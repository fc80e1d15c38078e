// One determinant table per cluster.
//
// Determinants are immutable and keyed by (creator, seq), so one copy of
// each serves every rank. The table holds each determinant's 14-byte
// factored record {src, ssn, tag} (laid out by causal/wire) and its u64
// cross-edge word (Determinant::dep_word), columnar, in one power-of-two
// ring per creator over (base, base + capacity]: seq s sits in slot
// (s-1) & (capacity-1). A run of consecutive seqs is therefore at most two
// contiguous stretches of each column (runs). Each rank's EventStore holds
// only intervals of seqs over the table; runtime::Cluster owns one table
// for all its ranks, and a standalone EventStore owns a private one.
//
// Writers. A determinant's value is written by its creator (EventStore::add
// on the creating rank). Besides that, a store restored from a checkpoint
// image re-adds the image's records, recovery adds the determinants
// survivors shipped, a replaying creator re-adds its own, LogOn absorbs
// event by event, and a store absorbing a piggyback built over another
// table imports the new records from it (put_run). The table never changes
// a value that another store reads (holds without an own copy): such a
// write is refused and the writer keeps the value as its own copy
// (EventStore), so every holder reads what it learned, as if each rank
// kept its own store. A re-add of the same reception with another edge —
// recovery responses carry no cross edge, a replay recomputes it, and a
// piggyback passes on the sender's — is refused the same way without
// looking for readers. Otherwise a write lands: after a crash the creator
// may re-create (c, s) above its recovered prefix as a different reception
// (a wildcard receive can match another message), and when no store holds
// the old value it is overwritten. With overlapping crashes a store may be
// restored from an image that holds the old value while the creator holds
// the new one; then the restored store keeps its own copy.
//
// Pruning. The table keeps every (c, s) above the minimum of its attached
// stores' stable(c): every held seq lies above its holder's stable point,
// and so does every seq a store may still absorb. It prunes lazily, only
// when a write finds its creator's ring full. A write at or below the base
// (a store restored from an older image) lowers the base again.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "causal/wire.hpp"
#include "ftapi/determinant.hpp"
#include "util/check.hpp"

namespace mpiv::causal {

class EventStore;

class DetTable {
 public:
  /// Consecutive events whose columns are contiguous in memory.
  struct Run {
    std::uint64_t first = 0;               // seq of the first event
    std::size_t count = 0;
    const std::uint8_t* records = nullptr;  // count * wire::kFactoredPerEvent
    const std::uint64_t* deps = nullptr;    // count dep words
  };

  explicit DetTable(int nranks);
  DetTable(const DetTable&) = delete;
  DetTable& operator=(const DetTable&) = delete;

  int nranks() const { return static_cast<int>(rings_.size()); }

  /// Stores whose stable points bound pruning (EventStore registers itself).
  void attach(const EventStore* store) { stores_.push_back(store); }
  void detach(const EventStore* store);

  /// Writes `d`'s record and edge word (checks the edge, see dep_word) for
  /// `writer`, which does not hold it yet. Returns whether the table's value
  /// is now `d`'s; it is not when the table keeps this reception with
  /// another edge, or another value some other store reads: then the
  /// writer keeps its own copy (see top).
  bool put(const ftapi::Determinant& d, const EventStore& writer) {
    Ring& r = ring(d.creator);
    if (d.seq == r.top + 1 && d.seq - r.base <= r.cap) {  // a plain append
      r.top = d.seq;
      const std::size_t i = r.index(d.seq);
      wire::encode_record(r.record(i), d);
      r.deps[i] = d.dep_word();
      return true;
    }
    if (d.seq > r.base && d.seq <= r.top) {  // kept: maybe this reception
      std::uint8_t rec[wire::kFactoredPerEvent];
      wire::encode_record(rec, d);
      const std::size_t i = r.index(d.seq);
      if (std::memcmp(r.record(i), rec, sizeof rec) == 0) {
        return r.deps[i] == d.dep_word();
      }
    }
    return put_other(d, writer);
  }
  /// Copies `creator`'s events first .. first+n-1 from `from`.
  void put_run(const DetTable& from, std::uint32_t creator, std::uint64_t first,
               std::uint64_t n);

  /// Calls fn(run) for `creator`'s events first .. last (all written),
  /// ascending; a stretch that wraps the ring comes as two runs.
  template <class Fn>
  void runs(std::uint32_t creator, std::uint64_t first, std::uint64_t last,
            Fn&& fn) const {
    const Ring& r = ring(creator);
    MPIV_CHECK(covers(creator, first, last) && first <= last,
               "table of creator %u holds (%llu, %llu], not %llu..%llu", creator,
               static_cast<unsigned long long>(r.base),
               static_cast<unsigned long long>(r.top),
               static_cast<unsigned long long>(first),
               static_cast<unsigned long long>(last));
    const std::size_t i = r.index(first);
    const std::uint64_t n = last - first + 1;
    const std::uint64_t head = std::min<std::uint64_t>(n, r.cap - i);
    fn(Run{first, static_cast<std::size_t>(head), r.record(i), r.deps + i});
    if (head < n) {
      fn(Run{first + head, static_cast<std::size_t>(n - head), r.records, r.deps});
    }
  }

  /// Whether seqs first..last of `creator` lie inside the kept window.
  bool covers(std::uint32_t creator, std::uint64_t first,
              std::uint64_t last) const {
    const Ring& r = ring(creator);
    return first > r.base && last <= r.top;
  }

  /// Whether `creator`'s event `seq` (written) has this record and edge.
  bool has(std::uint32_t creator, std::uint64_t seq, const std::uint8_t* record,
           std::uint64_t dep) const {
    const Ring& r = ring(creator);
    const std::size_t i = r.index(seq);
    return r.deps[i] == dep &&
           std::memcmp(r.record(i), record, wire::kFactoredPerEvent) == 0;
  }
  /// The determinant `creator`'s event `seq` (written), with its edge.
  ftapi::Determinant get(std::uint32_t creator, std::uint64_t seq) const {
    const Ring& r = ring(creator);
    const std::size_t i = r.index(seq);
    ftapi::Determinant d = wire::decode_record(r.record(i), creator, seq);
    d.set_dep_word(r.deps[i]);
    return d;
  }


 private:
  struct Ring {
    std::uint64_t base = 0;  // seqs at or below it are dropped
    std::uint64_t top = 0;   // highest seq written, at least base
    std::uint64_t cap = 0;   // a power of two (0: no ring yet)
    // One allocation: [deps: cap u64][records: cap * kFactoredPerEvent].
    std::unique_ptr<std::uint64_t[]> mem;
    std::uint64_t* deps = nullptr;
    std::uint8_t* records = nullptr;

    std::size_t index(std::uint64_t seq) const {
      return static_cast<std::size_t>((seq - 1) & (cap - 1));
    }
    std::uint8_t* record(std::size_t i) const {
      return records + i * wire::kFactoredPerEvent;
    }
  };

  Ring& ring(std::uint32_t c) {
    MPIV_CHECK(c < rings_.size(), "bad creator %u", c);
    return rings_[c];
  }
  const Ring& ring(std::uint32_t c) const {
    MPIV_CHECK(c < rings_.size(), "bad creator %u", c);
    return rings_[c];
  }
  /// put() of another value over a kept seq, or of a seq that needs room.
  bool put_other(const ftapi::Determinant& d, const EventStore& writer);
  /// Prunes below the stores' stable floor, lowers the base to take `seq`,
  /// or grows the ring, so that `seq` fits.
  void make_room(std::uint32_t c, std::uint64_t seq);
  /// Lowest stable(c) among the attached stores (UINT64_MAX: none).
  std::uint64_t floor(std::uint32_t c) const;

  std::vector<Ring> rings_;
  std::vector<const EventStore*> stores_;
};

}  // namespace mpiv::causal
