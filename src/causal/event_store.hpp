// Per-creator determinant knowledge held by one rank.
//
// Causal logging replicates determinants: besides its own reception events,
// a rank accumulates events created by others (learned from piggybacks) so
// that any crashed process can reassemble its reception history from the
// survivors. Knowledge per creator is (mostly) a prefix of that creator's
// event sequence; events below the Event Logger's stable watermark are
// pruned — that pruning is precisely the EL benefit the paper measures.
//
// A holder's set may contain holes *below another holder's stable point*
// (a sender only piggybacks its unstable suffix, so a receiver can learn
// (10..15] while never seeing 6..10 that are already safely at the EL), and
// recovery takes the union of the EL prefix and every survivor's ranges —
// contiguity of that union is asserted at the recovery site.
//
// Storage is columnar, in the factored piggyback's own layout. Each creator
// has one power-of-two ring over (stable, stable + capacity], seq s in slot
// (s-1) & (capacity-1), held in a single allocation with three columns:
// the 14-byte factored record {src, ssn, tag} (laid out by causal/wire), a
// u64 cross-edge word (Determinant::dep_word) and an occupancy bitmap.
// A run of held events is therefore at most two contiguous stretches of
// each column, and a piggyback build or absorb moves it with memcpy
// (for_runs, append_run). for_range, collect and serialize decode whole
// Determinants on the fly, so their output is independent of the layout.
//
// `held_through(c)` is the top of the hole-free prefix: every seq of `c` at
// or below it is held or at or below `stable(c)`, so adding it is a no-op.
// A receiver skips that prefix of an incoming piggyback block undecoded,
// and for_runs hands it out without consulting the bitmap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "causal/wire.hpp"
#include "ftapi/determinant.hpp"
#include "util/buffer.hpp"
#include "util/check.hpp"

namespace mpiv::causal {

class EventStore {
 public:
  /// Consecutive held events whose columns are contiguous in memory.
  struct Run {
    std::uint64_t first = 0;              // seq of the first event
    std::size_t count = 0;
    const std::uint8_t* records = nullptr; // count * wire::kFactoredPerEvent
    const std::uint64_t* deps = nullptr;   // count dep words
  };

  explicit EventStore(int nranks);

  int nranks() const { return static_cast<int>(per_.size()); }

  /// Records a determinant. Returns true if it was new.
  bool add(const ftapi::Determinant& d) {
    Per& p = at(d.creator);
    if (d.seq <= p.stable) return false;
    if (d.seq > p.known) p.known = d.seq;
    return insert(p, d);
  }

  /// Stores `creator`'s events first .. first+n-1 from `n` back-to-back
  /// factored records and their dep words, if all of them lie above
  /// everything held for `creator` (so all are new). Returns false, storing
  /// nothing, otherwise; the caller then adds them one at a time.
  bool append_run(std::uint32_t creator, std::uint64_t first, std::size_t n,
                  const std::uint8_t* records, const std::uint64_t* deps);

  /// Highest event sequence of `creator` this rank has heard of.
  std::uint64_t known(std::uint32_t creator) const { return at(creator).known; }
  /// Stable watermark (acknowledged by the Event Logger).
  std::uint64_t stable(std::uint32_t creator) const { return at(creator).stable; }
  /// Every seq of `creator` at or below this is held or stable (see top).
  std::uint64_t held_through(std::uint32_t creator) const {
    return at(creator).held_through;
  }
  /// Whether `creator`'s event `seq` is held (false at or below stable).
  bool holds(std::uint32_t creator, std::uint64_t seq) const {
    const Per& p = at(creator);
    return seq > p.stable && seq <= p.top && p.occupied(p.index(seq));
  }

  /// Advances stability and prunes covered determinants (the EL's garbage
  /// collection effect on computing nodes).
  void set_stable(const std::vector<std::uint64_t>& stable);

  /// All held determinants created by `creator` (for recovery collection).
  void collect(std::uint32_t creator, ftapi::DeterminantList& out) const {
    for_range(creator, 0, at(creator).top,
              [&out](const ftapi::Determinant& d) { out.push_back(d); });
  }

  /// Calls fn(run) for each maximal run of held events of `creator` in
  /// (lo, hi], ascending; a run that wraps the ring comes as two.
  template <class Fn>
  void for_runs(std::uint32_t creator, std::uint64_t lo, std::uint64_t hi,
                Fn&& fn) const {
    runs(at(creator), lo, hi, fn);
  }

  /// Iterates held determinants of `creator` in (lo, hi], in seq order,
  /// decoding each. Ranges are short on the hot paths that use it (LogOn's
  /// build), so it walks seq by seq; the bitmap is read only above
  /// held_through.
  template <class Fn>
  void for_range(std::uint32_t creator, std::uint64_t lo, std::uint64_t hi,
                 Fn&& fn) const {
    const Per& p = at(creator);
    const std::uint64_t to = std::min(hi, p.top);
    ftapi::Determinant d;
    d.creator = creator;
    for (std::uint64_t s = std::max(lo, p.stable) + 1; s <= to; ++s) {
      const std::size_t i = p.index(s);
      if (s > p.held_through && !p.occupied(i)) continue;
      d.seq = s;
      wire::decode_record(p.record(i), d);
      d.set_dep_word(p.deps[i]);
      fn(static_cast<const ftapi::Determinant&>(d));
    }
  }

  std::size_t held_count() const { return held_; }

  /// Checkpoint image: per creator stable, known, the held count, then each
  /// held determinant's wire form plus u16 dep_creator (0xFFFF: none) and
  /// u64 dep_seq.
  void serialize(util::Buffer& b) const;
  void restore(util::Buffer& b);
  void reset();

  /// Knowledge vector (per-creator `known`), e.g. for restart clamping.
  std::vector<std::uint64_t> known_vector() const {
    std::vector<std::uint64_t> v(per_.size());
    for (std::size_t c = 0; c < per_.size(); ++c) v[c] = per_[c].known;
    return v;
  }
  std::vector<std::uint64_t> stable_vector() const {
    std::vector<std::uint64_t> v(per_.size());
    for (std::size_t c = 0; c < per_.size(); ++c) v[c] = per_[c].stable;
    return v;
  }

 private:
  // One creator's ring. Bits are set exactly for the held seqs, all of
  // which lie in (stable, top]; top >= stable and top - stable <= capacity.
  struct Per {
    std::uint64_t stable = 0;
    std::uint64_t known = 0;
    std::uint64_t held_through = 0;
    std::uint64_t top = 0;  // highest seq ever held, at least stable
    std::uint64_t cap = 0;  // ring capacity, a power of two (0: no ring yet)
    // One allocation: [deps: cap u64][bits: (cap+63)/64 u64][records].
    std::unique_ptr<std::uint64_t[]> mem;
    std::uint64_t* deps = nullptr;
    std::uint64_t* bits = nullptr;
    std::uint8_t* records = nullptr;  // cap * wire::kFactoredPerEvent bytes

    std::size_t index(std::uint64_t seq) const {
      return static_cast<std::size_t>((seq - 1) & (cap - 1));
    }
    std::uint8_t* record(std::size_t i) const {
      return records + i * wire::kFactoredPerEvent;
    }
    bool occupied(std::size_t i) const { return (bits[i >> 6] >> (i & 63)) & 1; }
  };

  /// Stores `d` (seq above stable) unless held; keeps held_through.
  bool insert(Per& p, const ftapi::Determinant& d) {
    if (d.seq - p.stable > p.cap) grow(p, d.seq);
    const std::size_t i = p.index(d.seq);
    if (d.seq <= p.top && p.occupied(i)) return false;
    p.deps[i] = d.dep_word();
    wire::encode_record(p.record(i), d);
    p.bits[i >> 6] |= std::uint64_t{1} << (i & 63);
    if (d.seq > p.top) p.top = d.seq;
    ++held_;
    if (d.seq == p.held_through + 1) {
      p.held_through = d.seq;
      extend_held(p);  // over a run that arrived earlier, if any
    }
    return true;
  }

  template <class Fn>
  static void runs(const Per& p, std::uint64_t lo, std::uint64_t hi, Fn& fn) {
    std::uint64_t s = std::max(lo, p.stable) + 1;
    const std::uint64_t to = std::min(hi, p.top);
    if (s > to) return;
    if (s <= p.held_through) {  // the hole-free prefix: no bitmap scan
      const std::uint64_t e = std::min(p.held_through, to);
      emit(p, s, e, fn);
      s = e + 1;
    }
    while (s <= to) {
      s = scan(p, s, to, true);
      if (s > to) break;
      const std::uint64_t e = scan(p, s, to, false) - 1;
      emit(p, s, e, fn);
      s = e + 1;
    }
  }
  /// Calls fn(run) for seqs s..e of `p` (all held), split at the ring's end.
  template <class Fn>
  static void emit(const Per& p, std::uint64_t s, std::uint64_t e, Fn& fn) {
    const std::size_t i = p.index(s);
    const std::uint64_t n = e - s + 1;
    const std::uint64_t head = std::min<std::uint64_t>(n, p.cap - i);
    fn(Run{s, static_cast<std::size_t>(head), p.record(i), p.deps + i});
    if (head < n) {
      fn(Run{s + head, static_cast<std::size_t>(n - head), p.records, p.deps});
    }
  }
  /// First seq in [from, to] whose occupancy bit equals `set`, or to + 1.
  static std::uint64_t scan(const Per& p, std::uint64_t from, std::uint64_t to,
                            bool set);
  /// Raises held_through over the held seqs that follow it.
  static void extend_held(Per& p) {
    if (p.top > p.held_through) {
      p.held_through = scan(p, p.held_through + 1, p.top, false) - 1;
    }
  }
  /// Re-homes `p` into a ring that covers (stable, seq].
  static void grow(Per& p, std::uint64_t seq);
  /// Copies `n` events into `p`'s slots for first.. and marks them held.
  static void place(Per& p, std::uint64_t first, std::size_t n,
                    const std::uint8_t* records, const std::uint64_t* deps);
  /// Clears the bits of seqs from..to (a stretch of at most one ring);
  /// returns how many were set.
  static std::size_t clear(Per& p, std::uint64_t from, std::uint64_t to);

  Per& at(std::uint32_t c) {
    MPIV_CHECK(c < per_.size(), "bad creator %u", c);
    return per_[c];
  }
  const Per& at(std::uint32_t c) const {
    MPIV_CHECK(c < per_.size(), "bad creator %u", c);
    return per_[c];
  }
  std::vector<Per> per_;
  std::size_t held_ = 0;  // total held events across creators (O(1) stat)
};

}  // namespace mpiv::causal
