#include "causal/strategy.hpp"

#include <algorithm>

#include "causal/wire.hpp"

namespace mpiv::causal {

std::uint64_t Strategy::put_factored(int dst, bool raise_cap, util::Buffer& out,
                                     DepShadow& deps) {
  // Size the buffer once. Below held_through a range is one run; above it
  // every event may open a block, and runs are cut every UINT16_MAX events.
  std::uint64_t max_events = 0;
  std::uint64_t max_blocks = 0;
  for (int c = 0; c < nranks_; ++c) {
    if (c == dst) continue;  // never send a peer its own events back
    const auto creator = static_cast<std::uint32_t>(c);
    const std::uint64_t lo = std::max(store_->stable(creator), holds_[creator]);
    const std::uint64_t hi = store_->known(creator);
    if (hi <= lo) continue;
    const std::uint64_t run_top = std::max(lo, store_->held_through(creator));
    max_events += hi - lo;
    max_blocks += 1 + (hi > run_top ? hi - run_top : 0) + (hi - lo) / UINT16_MAX;
  }
  deps.reserve(deps.size() + max_events);
  wire::FactoredWriter writer(out, max_events, max_blocks);
  for_held_runs(dst, raise_cap,
                [&](std::uint32_t creator, const EventStore::Run& r) {
                  writer.put_run(creator, r.first, r.count, r.records);
                  deps.insert(deps.end(), r.deps, r.deps + r.count);
                });
  writer.finish();
  return writer.events();
}

std::uint64_t Strategy::take_factored(int src, util::Buffer& in,
                                      const DepShadow& deps) {
  wire::FactoredReader reader(in);
  std::size_t next = 0;  // index into deps of the block's first event
  while (reader.next_block()) {
    const wire::FactoredReader::Block& b = reader.block();
    if (b.count == 0) continue;  // carries nothing (no writer emits it)
    MPIV_CHECK(next + b.count <= deps.size(), "dep shadow size %zu vs %zu+",
               deps.size(), next + b.count);
    // Adding an event at or below held_through is a no-op: skip them.
    const std::uint64_t held = store_->held_through(b.creator);
    const std::uint32_t dup =
        held < b.first ? 0
                       : static_cast<std::uint32_t>(std::min<std::uint64_t>(
                             b.count, held - b.first + 1));
    reader.skip(dup);
    const std::uint32_t n = b.count - dup;
    const std::uint64_t first = b.first + dup;
    const std::uint8_t* records = reader.records(n);
    const std::uint64_t* dep = deps.data() + next + dup;
    if (store_->append_run(b.creator, first, n, records, dep)) {
      if (absorb_hook_) {
        store_->for_range(b.creator, first - 1, first + n - 1,
                          [this](const ftapi::Determinant& d) { on_absorbed(d); });
      }
    } else {
      // Above a hole: some of the rest may be held already.
      for (std::uint32_t k = 0; k < n; ++k) {
        ftapi::Determinant d = wire::decode_record(
            records + k * wire::kFactoredPerEvent, b.creator, first + k);
        d.set_dep_word(dep[k]);
        if (store_->add(d) && absorb_hook_) on_absorbed(d);
      }
    }
    next += b.count;
    note_learned(src, b.creator, b.first + b.count - 1);
  }
  MPIV_CHECK(next == deps.size(), "dep shadow size %zu vs %zu", deps.size(),
             next);
  return next;
}

}  // namespace mpiv::causal
