#include "causal/logon_strategy.hpp"

#include <algorithm>
#include <map>

#include "causal/wire.hpp"

namespace mpiv::causal {

std::vector<ftapi::Determinant> LogOnStrategy::causal_order(
    std::vector<ftapi::Determinant> events) {
  // Kahn's algorithm over the in-set dependency edges: process-order
  // (creator, seq-1) -> (creator, seq) and cross edge dep -> event.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::size_t> index;
  for (std::size_t i = 0; i < events.size(); ++i) {
    index[{events[i].creator, events[i].seq}] = i;
  }
  std::vector<int> indegree(events.size(), 0);
  std::vector<std::vector<std::size_t>> out(events.size());
  auto add_edge = [&](std::uint32_t c, std::uint64_t s, std::size_t to) {
    auto it = index.find({c, s});
    if (it == index.end()) return;  // antecedent outside the set
    out[it->second].push_back(to);
    ++indegree[to];
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ftapi::Determinant& d = events[i];
    if (d.seq > 1) add_edge(d.creator, d.seq - 1, i);
    if (d.dep_creator != UINT32_MAX && d.dep_seq > 0) {
      add_edge(d.dep_creator, d.dep_seq, i);
    }
  }
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  std::vector<ftapi::Determinant> ordered;
  ordered.reserve(events.size());
  // FIFO processing keeps the order deterministic.
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const std::size_t i = ready[head];
    ordered.push_back(events[i]);
    for (const std::size_t j : out[i]) {
      if (--indegree[j] == 0) ready.push_back(j);
    }
  }
  MPIV_CHECK(ordered.size() == events.size(),
             "cycle in causal order: %zu of %zu emitted", ordered.size(),
             events.size());
  return ordered;
}

Strategy::Work LogOnStrategy::build(int dst, util::Buffer& out,
                                    DepShadow& deps) {
  Work w;
  PeerView& view = views_[static_cast<std::size_t>(dst)];

  std::vector<std::uint64_t>& reach = reach_cache_[static_cast<std::size_t>(dst)];
  graph_->known_from_cached(static_cast<std::uint32_t>(dst),
                            store_->known(static_cast<std::uint32_t>(dst)),
                            reach);
  for (int c = 0; c < nranks_; ++c) {
    const auto creator = static_cast<std::uint32_t>(c);
    if (reach[creator] > store_->stable(creator)) {
      w.visits += reach[creator] - store_->stable(creator);
    }
  }

  std::vector<ftapi::Determinant> events;
  for (int c = 0; c < nranks_; ++c) {
    if (c == dst) continue;
    const auto creator = static_cast<std::uint32_t>(c);
    const std::uint64_t graph_known = std::min(reach[creator], view.cap[creator]);
    const std::uint64_t lo = std::max({store_->stable(creator),
                                       view.floor_known(creator), graph_known});
    const std::uint64_t hi = store_->known(creator);
    if (hi <= lo) continue;
    std::uint64_t top = 0;
    store_->for_range(creator, lo, hi, [&](const ftapi::Determinant& d) {
      events.push_back(d);
      top = d.seq;
    });
    if (top > view.sent[creator]) view.sent[creator] = top;
    view.raise_cap(creator, top);
  }
  events = causal_order(std::move(events));
  for (const ftapi::Determinant& d : events) deps.push_back(d.dep_word());
  wire::plain_serialize(events, out);
  w.events = events.size();
  w.bytes = out.size();
  w.cpu = w.visits * cost_->graph_visit +
          static_cast<sim::Time>(events.size()) *
              (cost_->ev_serialize + cost_->logon_reorder);
  return w;
}

Strategy::Work LogOnStrategy::absorb(int src, util::Buffer& in,
                                     const DepShadow& deps) {
  Work w;
  std::vector<ftapi::Determinant> events = wire::plain_parse(in);
  MPIV_CHECK(deps.size() == events.size(), "dep shadow size %zu vs %zu",
             deps.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ftapi::Determinant& d = events[i];
    d.set_dep_word(deps[i]);
    if (store_->add(d)) graph_->add(d);
    note_learned(src, d.creator, d.seq);
  }
  w.events = events.size();
  // Single-pass merge: the partial order guarantees antecedents precede
  // their descendants, so no re-traversal is needed.
  w.cpu = static_cast<sim::Time>(events.size()) *
          (cost_->ev_deserialize + cost_->logon_fastmerge);
  return w;
}

}  // namespace mpiv::causal
