#include "causal/vcausal_strategy.hpp"

namespace mpiv::causal {

Strategy::Work VcausalStrategy::build(int dst, util::Buffer& out,
                                      DepShadow& deps) {
  Work w;
  const PeerView& view = views_[static_cast<std::size_t>(dst)];
  for (int c = 0; c < nranks_; ++c) {
    holds_[static_cast<std::size_t>(c)] =
        view.floor_known(static_cast<std::uint32_t>(c));
  }
  put_factored(dst, /*raise_cap=*/false, out, deps, w);
  // Selection scans the held sequences (grows without an Event Logger).
  w.cpu = static_cast<sim::Time>(w.events) * cost_->ev_serialize +
          static_cast<sim::Time>(static_cast<double>(store_->held_count()) *
                                 cost_->vc_scan_ns_per_held);
  return w;
}

Strategy::Work VcausalStrategy::absorb(int src, util::Buffer& in,
                                       const DepShadow& deps) {
  Work w;
  w.events = take_factored(src, in, deps);
  w.cpu = static_cast<sim::Time>(w.events) *
          (cost_->ev_deserialize + cost_->seq_append);
  return w;
}

}  // namespace mpiv::causal
