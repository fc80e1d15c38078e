#include "causal/event_store.hpp"

#include <bit>
#include <cstring>

namespace mpiv::causal {

namespace {

constexpr std::uint64_t kMinCapacity = 16;
// A window no run reaches; beyond it a seq is corrupt, not unstable.
constexpr std::uint64_t kMaxCapacity = std::uint64_t{1} << 40;

/// Mask of `span` bits (1..64) starting at bit `at` of a word.
std::uint64_t bit_mask(unsigned at, std::uint64_t span) {
  const std::uint64_t ones = span >= 64 ? ~std::uint64_t{0}
                                        : (std::uint64_t{1} << span) - 1;
  return ones << at;
}

}  // namespace

EventStore::EventStore(int nranks) : per_(static_cast<std::size_t>(nranks)) {
  // Records keep `src` as a u16, like the factored wire format.
  MPIV_CHECK(nranks >= 0 && nranks <= UINT16_MAX + 1,
             "EventStore for %d ranks: src must fit in a u16", nranks);
}

bool EventStore::append_run(std::uint32_t creator, std::uint64_t first,
                            std::size_t n, const std::uint8_t* records,
                            const std::uint64_t* deps) {
  Per& p = at(creator);
  if (first <= p.top) return false;  // top >= stable
  if (n == 0) return true;
  const std::uint64_t last = first + n - 1;
  if (last - p.stable > p.cap) grow(p, last);
  place(p, first, n, records, deps);
  p.top = last;
  if (last > p.known) p.known = last;
  held_ += n;
  // Nothing is held above `last`, so the prefix can only reach it.
  if (first == p.held_through + 1) p.held_through = last;
  return true;
}

void EventStore::set_stable(const std::vector<std::uint64_t>& stable) {
  MPIV_CHECK(stable.size() == per_.size(), "stable vector size %zu vs %zu",
             stable.size(), per_.size());
  for (std::size_t c = 0; c < per_.size(); ++c) {
    Per& p = per_[c];
    if (stable[c] <= p.stable) continue;
    const std::uint64_t hi = std::min(p.top, stable[c]);
    if (hi > p.stable) held_ -= clear(p, p.stable + 1, hi);
    p.stable = stable[c];
    if (p.top < p.stable) p.top = p.stable;
    if (p.held_through < p.stable) {
      p.held_through = p.stable;
      extend_held(p);
    }
  }
}

void EventStore::serialize(util::Buffer& b) const {
  for (std::size_t c = 0; c < per_.size(); ++c) {
    const Per& p = per_[c];
    b.put_u64(p.stable);
    b.put_u64(p.known);
    std::size_t n = 0;
    const auto count = [&n](const Run& r) { n += r.count; };
    runs(p, 0, p.top, count);
    b.put_u32(static_cast<std::uint32_t>(n));
    for_range(static_cast<std::uint32_t>(c), 0, p.top,
              [&b](const ftapi::Determinant& d) {
                d.serialize(b);
                b.put_u16(static_cast<std::uint16_t>(
                    d.dep_creator == UINT32_MAX ? 0xFFFF : d.dep_creator));
                b.put_u64(d.dep_seq);
              });
  }
}

void EventStore::restore(util::Buffer& b) {
  reset();
  for (std::size_t c = 0; c < per_.size(); ++c) {
    Per& p = per_[c];
    p.stable = b.get_u64();
    p.known = b.get_u64();
    p.top = p.stable;
    p.held_through = p.stable;
    const std::uint32_t n = b.get_u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      ftapi::Determinant d = ftapi::Determinant::deserialize(b);
      const std::uint16_t dc = b.get_u16();
      d.dep_creator = dc == 0xFFFF ? UINT32_MAX : dc;
      d.dep_seq = b.get_u64();
      MPIV_CHECK(d.creator == c, "image holds creator %u's event under %zu",
                 d.creator, c);
      // insert() packs the edge, checking it is (src, seq) or none.
      if (d.seq > p.stable) insert(p, d);
    }
  }
}

void EventStore::reset() {
  for (Per& p : per_) {
    if (p.cap > 0) std::memset(p.bits, 0, (p.cap + 63) / 64 * 8);
    p.stable = 0;
    p.known = 0;
    p.held_through = 0;
    p.top = 0;
  }
  held_ = 0;
}

std::uint64_t EventStore::scan(const Per& p, std::uint64_t from,
                               std::uint64_t to, bool set) {
  while (from <= to) {
    const std::size_t i = p.index(from);
    const unsigned at = i & 63;
    const std::uint64_t word = set ? p.bits[i >> 6] : ~p.bits[i >> 6];
    // Stay inside this word and this pass over the ring.
    const std::uint64_t span =
        std::min({std::uint64_t{64} - at, to - from + 1, p.cap - i});
    const std::uint64_t hits = word & bit_mask(at, span);
    if (hits != 0) {
      return from + static_cast<std::uint64_t>(std::countr_zero(hits)) - at;
    }
    from += span;
  }
  return to + 1;
}

void EventStore::grow(Per& p, std::uint64_t seq) {
  MPIV_CHECK(seq - p.stable <= kMaxCapacity,
             "event %llu is %llu past the stable point of its creator",
             static_cast<unsigned long long>(seq),
             static_cast<unsigned long long>(seq - p.stable));
  std::uint64_t cap = std::max(kMinCapacity, 2 * p.cap);
  while (cap < seq - p.stable) cap *= 2;
  Per next;
  next.cap = cap;
  const std::uint64_t words = (cap + 63) / 64;
  const std::uint64_t record_words = (cap * wire::kFactoredPerEvent + 7) / 8;
  next.mem = std::make_unique<std::uint64_t[]>(cap + words + record_words);
  next.deps = next.mem.get();
  next.bits = next.deps + cap;
  next.records = reinterpret_cast<std::uint8_t*>(next.bits + words);
  // Slots depend on the capacity: re-home every held run.
  const auto rehome = [&next](const Run& r) {
    place(next, r.first, r.count, r.records, r.deps);
  };
  if (p.cap > 0) runs(p, 0, p.top, rehome);
  p.cap = next.cap;
  p.mem = std::move(next.mem);
  p.deps = next.deps;
  p.bits = next.bits;
  p.records = next.records;
}

void EventStore::place(Per& p, std::uint64_t first, std::size_t n,
                       const std::uint8_t* records, const std::uint64_t* deps) {
  while (n > 0) {
    const std::size_t i = p.index(first);
    const std::size_t k =
        static_cast<std::size_t>(std::min<std::uint64_t>(n, p.cap - i));
    std::memcpy(p.record(i), records, k * wire::kFactoredPerEvent);
    std::memcpy(p.deps + i, deps, k * sizeof(std::uint64_t));
    for (std::size_t j = i, left = k; left > 0;) {
      const unsigned at = j & 63;
      const std::uint64_t span = std::min<std::uint64_t>(64 - at, left);
      p.bits[j >> 6] |= bit_mask(at, span);
      j += span;
      left -= span;
    }
    first += k;
    records += k * wire::kFactoredPerEvent;
    deps += k;
    n -= k;
  }
}

std::size_t EventStore::clear(Per& p, std::uint64_t from, std::uint64_t to) {
  std::size_t cleared = 0;
  while (from <= to) {
    const std::size_t i = p.index(from);
    const unsigned at = i & 63;
    const std::uint64_t span =
        std::min({std::uint64_t{64} - at, to - from + 1, p.cap - i});
    const std::uint64_t m = bit_mask(at, span);
    cleared += static_cast<std::size_t>(std::popcount(p.bits[i >> 6] & m));
    p.bits[i >> 6] &= ~m;
    from += span;
  }
  return cleared;
}

}  // namespace mpiv::causal
