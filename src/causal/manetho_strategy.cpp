#include "causal/manetho_strategy.hpp"

#include <algorithm>

namespace mpiv::causal {

std::uint64_t ManethoStrategy::select(int dst) {
  const PeerView& view = views_[static_cast<std::size_t>(dst)];

  // What does dst know? Traverse the graph backward from dst's newest event
  // we hold; the reachable prefix per creator is provably known to dst.
  // The walk itself is incremental (each vertex visited once per peer), but
  // the PRICED work is Manetho's full traversal of the current graph region
  // reachable for this peer — the cost that grows without an Event Logger.
  std::vector<std::uint64_t>& reach = reach_cache_[static_cast<std::size_t>(dst)];
  graph_->known_from_cached(static_cast<std::uint32_t>(dst),
                            store_->known(static_cast<std::uint32_t>(dst)),
                            reach);
  std::uint64_t visits = 0;
  for (int c = 0; c < nranks_; ++c) {
    const auto creator = static_cast<std::uint32_t>(c);
    if (reach[creator] > store_->stable(creator)) {
      visits += reach[creator] - store_->stable(creator);
    }
    // Transitive (graph) evidence is capped after dst restarts (DESIGN §4).
    holds_[creator] = std::max(view.floor_known(creator),
                               std::min(reach[creator], view.cap[creator]));
  }
  return visits;
}

Strategy::Work ManethoStrategy::build(int dst, util::Buffer& out,
                                      DepShadow& deps) {
  Work w;
  w.visits = select(dst);
  const std::size_t start = out.size();
  w.events = put_factored(dst, /*raise_cap=*/true, out, deps);
  w.bytes = out.size() - start;
  w.cpu = w.visits * cost_->graph_visit +
          static_cast<sim::Time>(w.events) * cost_->ev_serialize;
  return w;
}

Strategy::Work ManethoStrategy::absorb(int src, util::Buffer& in,
                                       const DepShadow& deps) {
  Work w;
  w.events = take_factored(src, in, deps);
  // Manetho must first add the events, then re-cross the graph to generate
  // the new edges (paper §III-B.2) — the extra per-event walk is what makes
  // its receive side slower than LogOn's.
  w.visits = 2 * w.events;
  w.cpu = static_cast<sim::Time>(w.events) *
              (cost_->ev_deserialize + cost_->graph_insert) +
          w.visits * cost_->graph_visit;
  return w;
}

}  // namespace mpiv::causal
