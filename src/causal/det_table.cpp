#include "causal/det_table.hpp"

#include <algorithm>
#include <cstring>

#include "causal/event_store.hpp"
#include "causal/reference_strategy.hpp"

namespace mpiv::causal {

namespace {

constexpr std::uint64_t kMinCapacity = 16;
// A window no run reaches; beyond it a seq is corrupt, not unstable.
constexpr std::uint64_t kMaxCapacity = std::uint64_t{1} << 40;

}  // namespace

DetTable::DetTable(int nranks) : rings_(static_cast<std::size_t>(nranks)) {
  // Records keep `src` as a u16, like the factored wire format.
  MPIV_CHECK(nranks >= 0 && nranks <= UINT16_MAX + 1,
             "determinant table for %d ranks: src must fit in a u16", nranks);
}

void DetTable::detach(const EventStore* store) {
  const auto it = std::find(stores_.begin(), stores_.end(), store);
  if (it != stores_.end()) stores_.erase(it);
}

std::uint64_t DetTable::floor(std::uint32_t c) const {
  std::uint64_t lo = UINT64_MAX;
  for (const EventStore* s : stores_) lo = std::min(lo, s->stable(c));
  return lo;
}

bool DetTable::put_other(const ftapi::Determinant& d, const EventStore& writer) {
  Ring& r = ring(d.creator);
  if (d.seq > r.base && d.seq <= r.top) {  // kept, with another record
    ReferenceChecks& rc = reference_checks();
    for (const EventStore* s : stores_) {
      if (s != &writer && s->reads_table(d.creator, d.seq)) {
        if (rc.on) ++rc.own_copies;
        return false;
      }
    }
    if (rc.on) ++rc.overwrites;
  } else if (d.seq <= r.base || d.seq - r.base > r.cap) {
    make_room(d.creator, d.seq);
  }
  if (d.seq > r.top) r.top = d.seq;
  const std::size_t i = r.index(d.seq);
  wire::encode_record(r.record(i), d);
  r.deps[i] = d.dep_word();
  return true;
}

namespace {

/// Copies the columns of seqs first..last from ring `from` to ring `to`,
/// split wherever either ring wraps.
template <class Ring>
void copy_seqs(const Ring& from, Ring& to, std::uint64_t first,
               std::uint64_t last) {
  while (first <= last) {
    const std::size_t i = from.index(first);
    const std::size_t j = to.index(first);
    const std::uint64_t k =
        std::min({last - first + 1, from.cap - i, to.cap - j});
    std::memcpy(to.record(j), from.record(i), k * wire::kFactoredPerEvent);
    std::memcpy(to.deps + j, from.deps + i, k * sizeof(std::uint64_t));
    first += k;
  }
}

}  // namespace

void DetTable::put_run(const DetTable& from, std::uint32_t creator,
                       std::uint64_t first, std::uint64_t n) {
  if (n == 0) return;
  Ring& r = ring(creator);
  const std::uint64_t last = first + n - 1;
  if (first <= r.base || first - r.base > r.cap) make_room(creator, first);
  if (last - r.base > r.cap) make_room(creator, last);
  if (last > r.top) r.top = last;
  copy_seqs(from.ring(creator), r, first, last);
}

void DetTable::make_room(std::uint32_t c, std::uint64_t seq) {
  Ring& r = rings_[c];
  std::uint64_t lo;
  std::uint64_t hi;
  if (seq <= r.base) {  // a store re-adds an older image's record
    lo = seq - 1;
    hi = r.top;
  } else {  // past the ring's end (so past top): drop what no store needs
    lo = std::max(r.base, std::min(floor(c), seq - 1));
    hi = seq;
  }
  MPIV_CHECK(hi - lo <= kMaxCapacity,
             "event %llu is %llu past the stable point of its creator",
             static_cast<unsigned long long>(seq),
             static_cast<unsigned long long>(hi - lo));
  if (hi - lo > r.cap) {
    std::uint64_t cap = std::max(kMinCapacity, 2 * r.cap);
    while (cap < hi - lo) cap *= 2;
    Ring next;
    next.cap = cap;
    const std::uint64_t record_words = (cap * wire::kFactoredPerEvent + 7) / 8;
    next.mem = std::make_unique<std::uint64_t[]>(cap + record_words);
    next.deps = next.mem.get();
    next.records = reinterpret_cast<std::uint8_t*>(next.deps + cap);
    // Slots depend on the capacity: re-home what is still kept.
    const std::uint64_t keep = std::max(lo, r.base);
    if (r.cap > 0 && r.top > keep) copy_seqs(r, next, keep + 1, r.top);
    r.cap = next.cap;
    r.mem = std::move(next.mem);
    r.deps = next.deps;
    r.records = next.records;
  }
  r.base = lo;
  if (r.top < lo) r.top = lo;
}

}  // namespace mpiv::causal
