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
// The store keeps no determinant values. Those live once per cluster in a
// DetTable (causal/det_table.hpp); the store records which seqs of each
// creator this rank holds, as intervals over the table. Per creator that is
// a hole-free prefix (stable, held_through] plus sorted, disjoint,
// non-adjacent intervals above held_through + 1, usually none. A piggyback
// absorbed from a peer sharing the table is an interval union (absorb_run):
// nothing is copied. Holding an event is a promise on the table: it keeps
// every seq above the lowest stable point of its stores (see DetTable).
// A standalone store (the constructor without a table) owns a private
// table; absorbing a piggyback built over another table imports the new
// records from it.
//
// Values are per holder. A rank may hold an event with another cross edge
// than the table's — one learned from a recovery response (no edge), a
// replayed one (recomputed), or one passed on by a sender holding such an
// edge — or, after overlapping crashes, with another record (a restored
// image holding a reception its creator has since re-created differently).
// The table never changes a value another store reads (DetTable::put), so
// the store keeps such a copy itself (own_, empty unless a rank
// restarted), and every read — get, for_runs, for_range, serialize —
// returns the value this rank learned.
//
// `held_through(c)` is the top of the hole-free prefix: every seq of `c` at
// or below it is held or at or below `stable(c)`, so adding it is a no-op.
// for_runs hands out held events as the table's contiguous columns;
// for_range, collect and serialize decode whole Determinants, so their
// output (and the checkpoint image format) is independent of the layout.
//
// With reference checks on (causal/reference_strategy.hpp), every store
// also mirrors add, set_stable, restore and reset into a private
// ColumnarStore, the oracle; piggybacks reach it through the reference
// codec (Strategy::take_factored).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "causal/det_table.hpp"
#include "ftapi/determinant.hpp"
#include "util/buffer.hpp"
#include "util/check.hpp"

namespace mpiv::causal {

class ColumnarStore;

class EventStore {
 public:
  /// Consecutive held events whose columns are contiguous in memory.
  using Run = DetTable::Run;

  /// A store over a private table.
  explicit EventStore(int nranks);
  /// A store over `table` (shared by a cluster's ranks; must outlive it).
  EventStore(int nranks, DetTable& table);
  ~EventStore();
  EventStore(const EventStore&) = delete;
  EventStore& operator=(const EventStore&) = delete;

  int nranks() const { return static_cast<int>(per_.size()); }
  const DetTable& table() const { return *table_; }

  /// Records a determinant, writing its value to the table. Returns true
  /// if it was new.
  bool add(const ftapi::Determinant& d) {
    Per& p = at(d.creator);
    bool fresh = false;
    if (d.seq > p.stable) {
      if (d.seq > p.known) p.known = d.seq;
      fresh = insert(p, d);
    }
    if (ref_ != nullptr) mirror_add(d, fresh);
    return fresh;
  }

  /// Holds `creator`'s events first .. first+n-1, which `from` holds the
  /// values of; events at or below stable are ignored. New events are
  /// imported from `from` unless it is this store's table, and each new
  /// stretch is reported as on_new(first, count) once its values are in
  /// the table (on_new may then set_own them).
  template <class Fn>
  void absorb_run(const DetTable& from, std::uint32_t creator,
                  std::uint64_t first, std::uint64_t n, Fn&& on_new) {
    if (n == 0) return;
    Per& p = at(creator);
    const std::uint64_t last = first + n - 1;
    if (last <= p.stable) return;
    if (last > p.known) p.known = last;
    const std::uint64_t lo = std::max(first, p.stable + 1);
    const auto fresh = [&](std::uint64_t a, std::uint64_t k) {
      MPIV_CHECK(from.covers(creator, a, a + k - 1),
                 "piggyback names events of creator %u its table does not keep",
                 creator);
      if (&from != table_) table_->put_run(from, creator, a, k);
      on_new(a, k);
    };
    hold(p, lo, last, fresh);
  }

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
    return holds(at(creator), seq);
  }
  /// Whether `creator`'s event `seq` is held with the table's value.
  bool reads_table(std::uint32_t creator, std::uint64_t seq) const {
    return holds(creator, seq) &&
           (own_.empty() || own_.find({creator, seq}) == own_.end());
  }

  /// A held event's own copy: its record and edge word.
  struct Own {
    std::uint8_t record[wire::kFactoredPerEvent];
    std::uint64_t dep;
  };

  /// The held determinant `creator`'s event `seq`, with this store's value.
  ftapi::Determinant get(std::uint32_t creator, std::uint64_t seq) const {
    if (!own_.empty()) {
      const auto it = own_.find({creator, seq});
      if (it != own_.end()) {
        ftapi::Determinant d = wire::decode_record(it->second.record, creator, seq);
        d.set_dep_word(it->second.dep);
        return d;
      }
    }
    return table_->get(creator, seq);
  }
  /// Gives `creator`'s event `seq`, just absorbed (in on_new), the record
  /// and edge word its sender held it with.
  void set_own(std::uint32_t creator, std::uint64_t seq,
               const std::uint8_t* record, std::uint64_t dep) {
    if (!table_->has(creator, seq, record, dep)) {
      Own& o = own_[{creator, seq}];
      std::memcpy(o.record, record, sizeof o.record);
      o.dep = dep;
    }
  }
  /// Calls fn(seq, own) for each held event of `creator` in first..last
  /// whose value is this store's own copy, ascending.
  template <class Fn>
  void for_own(std::uint32_t creator, std::uint64_t first, std::uint64_t last,
               Fn&& fn) const {
    for (auto it = own_.lower_bound({creator, first});
         it != own_.end() && it->first.first == creator &&
         it->first.second <= last;
         ++it) {
      fn(it->first.second, it->second);
    }
  }

  /// Advances stability and prunes covered determinants (the EL's garbage
  /// collection effect on computing nodes).
  void set_stable(const std::vector<std::uint64_t>& stable);

  /// All held determinants created by `creator` (for recovery collection).
  void collect(std::uint32_t creator, ftapi::DeterminantList& out) const {
    for_range(creator, 0, UINT64_MAX,
              [&out](const ftapi::Determinant& d) { out.push_back(d); });
  }

  /// Calls fn(first, last) for each maximal run of held seqs of `creator`
  /// in (lo, hi], ascending.
  template <class Fn>
  void for_spans(std::uint32_t creator, std::uint64_t lo, std::uint64_t hi,
                 Fn&& fn) const {
    const Per& p = at(creator);
    if (lo < p.stable) lo = p.stable;
    if (hi <= lo) return;
    const std::uint64_t s = lo + 1;
    if (s <= p.held_through) fn(s, std::min(p.held_through, hi));
    for (auto it = first_above(p, s); it != p.above.end() && it->lo <= hi; ++it) {
      fn(std::max(it->lo, s), std::min(it->hi, hi));
    }
  }

  /// Calls fn(run) for each maximal run of held events of `creator` in
  /// (lo, hi], ascending; a run that wraps the table's ring comes as two.
  template <class Fn>
  void for_runs(std::uint32_t creator, std::uint64_t lo, std::uint64_t hi,
                Fn&& fn) const {
    for_spans(creator, lo, hi, [&](std::uint64_t a, std::uint64_t b) {
      span_runs(creator, a, b, fn);
    });
  }
  /// Calls fn(run) for `creator`'s held events first .. last (a span of
  /// for_spans) as the table's columns; an event held as an own copy
  /// comes as a run of its own, pointing at that copy.
  template <class Fn>
  void span_runs(std::uint32_t creator, std::uint64_t first, std::uint64_t last,
                 Fn&& fn) const {
    for_own(creator, first, last, [&](std::uint64_t seq, const Own& o) {
      if (seq > first) table_->runs(creator, first, seq - 1, fn);
      fn(Run{seq, 1, o.record, &o.dep});
      first = seq + 1;
    });
    if (first <= last) table_->runs(creator, first, last, fn);
  }

  /// Iterates held determinants of `creator` in (lo, hi], in seq order,
  /// decoding each from its run.
  template <class Fn>
  void for_range(std::uint32_t creator, std::uint64_t lo, std::uint64_t hi,
                 Fn&& fn) const {
    ftapi::Determinant d;
    d.creator = creator;
    for_runs(creator, lo, hi, [&](const Run& r) {
      for (std::size_t k = 0; k < r.count; ++k) {
        d.seq = r.first + k;
        wire::decode_record(r.records + k * wire::kFactoredPerEvent, d);
        d.set_dep_word(r.deps[k]);
        fn(static_cast<const ftapi::Determinant&>(d));
      }
    });
  }

  std::size_t held_count() const { return held_; }

  /// Checkpoint image: per creator stable, known, the held count, then each
  /// held determinant's wire form plus u16 dep_creator (0xFFFF: none) and
  /// u64 dep_seq.
  void serialize(util::Buffer& b) const;
  /// Restores an image, re-adding its records to the table.
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

  /// The reference twin mirroring this store (null unless reference checks
  /// were on when it was built).
  ColumnarStore* reference() const { return ref_.get(); }
  /// Dies unless the twin holds exactly what this store holds: the same
  /// watermarks, held sets and values (no-op without a twin).
  void check_reference() const;

 private:
  struct Interval {
    std::uint64_t lo;
    std::uint64_t hi;
  };
  // One creator's holds: (stable, held_through] plus `above`, whose
  // intervals start past held_through + 1.
  struct Per {
    std::uint64_t stable = 0;
    std::uint64_t known = 0;
    std::uint64_t held_through = 0;
    std::vector<Interval> above;
  };

  static std::vector<Interval>::const_iterator first_above(const Per& p,
                                                           std::uint64_t s) {
    // The first interval ending at or after s.
    return std::lower_bound(
        p.above.begin(), p.above.end(), s,
        [](const Interval& iv, std::uint64_t x) { return iv.hi < x; });
  }
  static bool holds(const Per& p, std::uint64_t seq) {
    if (seq <= p.stable) return false;
    if (seq <= p.held_through) return true;
    const auto it = first_above(p, seq);
    return it != p.above.end() && it->lo <= seq;
  }

  /// Holds `d` (above stable), writing its value if it was not held (or
  /// keeping an own copy if the table keeps another value).
  bool insert(Per& p, const ftapi::Determinant& d) {
    if (d.seq != p.held_through + 1 || !p.above.empty()) return insert_above(p, d);
    put(d);  // in order, no holes: the common case
    p.held_through = d.seq;
    ++held_;
    return true;
  }
  /// insert() for `d` past a hole or among intervals.
  bool insert_above(Per& p, const ftapi::Determinant& d);
  /// Writes `d` to the table, or keeps it as an own copy if the table
  /// keeps another value.
  void put(const ftapi::Determinant& d) {
    if (!table_->put(d, *this)) keep_own(d);
  }
  void keep_own(const ftapi::Determinant& d);
  /// Adds `d` to the reference twin, which must agree it was `fresh`.
  void mirror_add(const ftapi::Determinant& d, bool fresh);

  /// Holds lo..hi (lo above stable); calls fresh(first, count) for each
  /// stretch not held before, ascending, before marking it.
  template <class Fn>
  void hold(Per& p, std::uint64_t lo, std::uint64_t hi, Fn& fresh) {
    if (lo <= p.held_through) lo = p.held_through + 1;
    if (lo > hi) return;
    if (p.above.empty()) {  // the common case: no holes
      fresh(lo, hi - lo + 1);
      held_ += hi - lo + 1;
      if (lo == p.held_through + 1) {
        p.held_through = hi;
      } else {
        p.above.push_back({lo, hi});
      }
      return;
    }
    // Merge [lo, hi] with every interval it overlaps or touches.
    auto it = p.above.begin() + (first_above(p, lo - 1) - p.above.cbegin());
    auto end = it;
    std::uint64_t cur = lo;  // first seq of [lo, hi] not yet accounted
    Interval merged{lo, hi};
    for (; end != p.above.end() && end->lo <= hi + 1; ++end) {
      if (end->lo > cur) {
        const std::uint64_t e = std::min(end->lo - 1, hi);
        fresh(cur, e - cur + 1);
        held_ += e - cur + 1;
      }
      cur = std::max(cur, end->hi + 1);
      merged.lo = std::min(merged.lo, end->lo);
      merged.hi = std::max(merged.hi, end->hi);
    }
    if (cur <= hi) {
      fresh(cur, hi - cur + 1);
      held_ += hi - cur + 1;
    }
    if (merged.lo == p.held_through + 1) {  // reaches the prefix
      p.held_through = merged.hi;
      p.above.erase(it, end);
    } else if (it == end) {  // touches no interval
      p.above.insert(it, merged);
    } else {
      *it = merged;
      p.above.erase(it + 1, end);
    }
  }

  Per& at(std::uint32_t c) {
    MPIV_CHECK(c < per_.size(), "bad creator %u", c);
    return per_[c];
  }
  const Per& at(std::uint32_t c) const {
    MPIV_CHECK(c < per_.size(), "bad creator %u", c);
    return per_[c];
  }

  std::unique_ptr<DetTable> private_;  // the private table, if any
  DetTable* table_;
  std::vector<Per> per_;
  std::size_t held_ = 0;  // total held events across creators (O(1) stat)
  // Held events whose value differs from the table's, by (creator, seq).
  std::map<std::pair<std::uint32_t, std::uint64_t>, Own> own_;
  std::unique_ptr<ColumnarStore> ref_;
};

}  // namespace mpiv::causal
