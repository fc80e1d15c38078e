#include "causal/strategy.hpp"

#include <algorithm>

#include "causal/wire.hpp"

namespace mpiv::causal {

std::uint64_t Strategy::put_factored(int dst, bool raise_cap, util::Buffer& out,
                                     DepShadow& deps) {
  PeerView& view = views_[static_cast<std::size_t>(dst)];
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
  for (int c = 0; c < nranks_; ++c) {
    if (c == dst) continue;
    const auto creator = static_cast<std::uint32_t>(c);
    const std::uint64_t lo = std::max(store_->stable(creator), holds_[creator]);
    const std::uint64_t hi = store_->known(creator);
    if (hi <= lo) continue;
    std::uint64_t top = 0;
    store_->for_range(creator, lo, hi, [&](const ftapi::Determinant& d) {
      writer.put(d);
      deps.emplace_back(d.dep_creator, d.dep_seq);
      top = d.seq;
    });
    if (top > view.sent[creator]) view.sent[creator] = top;
    if (raise_cap) view.raise_cap(creator, top);
  }
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
    for (std::uint32_t k = dup; k < b.count; ++k) {
      ftapi::Determinant d = reader.event();
      d.dep_creator = deps[next + k].first;
      d.dep_seq = deps[next + k].second;
      if (store_->add(d)) on_absorbed(d);
    }
    next += b.count;
    note_learned(src, b.creator, b.first + b.count - 1);
  }
  MPIV_CHECK(next == deps.size(), "dep shadow size %zu vs %zu", deps.size(),
             next);
  return next;
}

}  // namespace mpiv::causal
