// Manetho piggyback reduction (Elnozahy & Zwaenepoel; paper §III-B.2).
//
// Maintains the antecedence graph and, on each send, traverses it backward
// from the receiver's newest known event: everything reachable is already
// known to the receiver and need not be piggybacked. The traversal makes
// send-side cost grow with graph size (unbounded without an Event Logger);
// on receive, the new events must be inserted *and* the graph re-walked to
// generate the new edges, which is why Manetho's receive side is the
// expensive one in Fig. 8.
#pragma once

#include "causal/antecedence_graph.hpp"
#include "causal/strategy.hpp"

namespace mpiv::causal {

class ManethoStrategy : public Strategy {
 public:
  ManethoStrategy() { absorb_hook_ = true; }

  const char* name() const override { return "Manetho"; }

  void attach(EventStore* store, const net::CostModel* cost, int rank,
              int nranks) override {
    Strategy::attach(store, cost, rank, nranks);
    graph_ = std::make_unique<AntecedenceGraph>(nranks);
    reach_cache_.assign(static_cast<std::size_t>(nranks), {});
  }

  Work build(int dst, util::Buffer& out, DepShadow& deps) override;
  Work absorb(int src, util::Buffer& in, const DepShadow& deps) override;
  void on_local_event(const ftapi::Determinant& d) override { graph_->add(d); }
  void on_stable(const std::vector<std::uint64_t>& stable) override {
    graph_->prune_stable(stable);
  }
  void restore(util::Buffer& b) override {
    Strategy::restore(b);
    rebuild_graph();
    reach_cache_.assign(static_cast<std::size_t>(nranks_), {});
  }
  void reset() override {
    Strategy::reset();
    graph_->reset();
    reach_cache_.assign(static_cast<std::size_t>(nranks_), {});
  }
  std::size_t graph_vertices() const override { return graph_->vertex_count(); }

  const AntecedenceGraph& graph() const { return *graph_; }

 protected:
  void on_absorbed(const ftapi::Determinant& d) override { graph_->add(d); }

  /// Walks the graph for what `dst` provably knows and sets holds_ to it
  /// (the prefix per creator not to piggyback). Returns the priced visits.
  std::uint64_t select(int dst);

  /// The graph's vertices are exactly the held (unstable) determinants, so
  /// after a restore it is rebuilt from the EventStore.
  void rebuild_graph() {
    graph_->reset();
    for (int c = 0; c < nranks_; ++c) {
      ftapi::DeterminantList dets;
      store_->collect(static_cast<std::uint32_t>(c), dets);
      for (const ftapi::Determinant& d : dets) graph_->add(d);
    }
  }

  std::unique_ptr<AntecedenceGraph> graph_;
  // Per-peer monotone reach vectors (host-side cache; rebuilt lazily after
  // restore, costs are charged from the reach extents either way).
  std::vector<std::vector<std::uint64_t>> reach_cache_;
};

}  // namespace mpiv::causal
