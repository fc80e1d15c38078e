#include "causal/logon_strategy.hpp"

#include <algorithm>
#include <cstring>
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
  w.visits = select(dst);
  const std::size_t start = out.size();
  w.events = put_plain(dst, out, deps);
  w.bytes = out.size() - start;
  w.cpu = w.visits * cost_->graph_visit +
          static_cast<sim::Time>(w.events) *
              (cost_->ev_serialize + cost_->logon_reorder);
  return w;
}

Strategy::Work LogOnStrategy::absorb(int src, util::Buffer& in,
                                     const DepShadow& deps) {
  Work w;
  w.events = take_plain(src, in, deps);
  // Single-pass merge: the partial order guarantees antecedents precede
  // their descendants, so no re-traversal is needed.
  w.cpu = static_cast<sim::Time>(w.events) *
          (cost_->ev_deserialize + cost_->logon_fastmerge);
  return w;
}

std::uint64_t LogOnStrategy::put_plain(int dst, util::Buffer& out,
                                       DepShadow& deps) {
  entries_.clear();
  for_held_runs(dst, /*raise_cap=*/true,
                [this](std::uint32_t creator, const EventStore::Run& r) {
                  for (std::size_t k = 0; k < r.count; ++k) {
                    entries_.push_back({r.records + k * wire::kFactoredPerEvent,
                                        r.first + k, r.deps[k], creator});
                  }
                });
  const std::size_t n = entries_.size();
  MPIV_CHECK(n <= UINT16_MAX, "piggyback too large: %zu events", n);
  order();

  std::uint8_t* p = out.extend(static_cast<std::size_t>(
      wire::kPlainHeader + n * wire::kPlainPerEvent));
  const auto count = static_cast<std::uint16_t>(n);
  std::memcpy(p, &count, 2);
  p += wire::kPlainHeader;
  deps.reserve(deps.size() + n);
  for (const std::uint32_t i : order_) {
    const Entry& e = entries_[i];
    wire::put_plain_record(p, e.creator, e.seq, e.record);
    p += wire::kPlainPerEvent;
    deps.push_back(e.dep);
  }
  return n;
}

std::uint64_t LogOnStrategy::take_plain(int src, util::Buffer& in,
                                        const DepShadow& deps) {
  const std::uint16_t n = in.get_u16();
  const std::uint8_t* p =
      in.read_span(static_cast<std::size_t>(n * wire::kPlainPerEvent));
  MPIV_CHECK(deps.size() == n, "dep shadow size %zu vs %u", deps.size(),
             static_cast<unsigned>(n));
  for (std::size_t k = 0; k < n; ++k, p += wire::kPlainPerEvent) {
    ftapi::Determinant d = wire::decode_plain_record(p);
    d.set_dep_word(deps[k]);
    if (store_->add(d)) graph_->add(d);
    note_learned(src, d.creator, d.seq);
  }
  store_->check_reference();
  return n;
}

std::uint32_t LogOnStrategy::find(std::uint32_t creator,
                                  std::uint64_t seq) const {
  if (creator >= static_cast<std::uint32_t>(nranks_)) return kNone;
  const std::uint32_t b = seg_[creator];
  const std::uint32_t e = seg_[creator + 1];
  if (b == e || seq < entries_[b].seq) return kNone;
  // Without holes below it, seq sits at its offset from the first held.
  const std::uint64_t off = seq - entries_[b].seq;
  if (off < e - b && entries_[b + off].seq == seq) {
    return b + static_cast<std::uint32_t>(off);
  }
  const auto first = entries_.begin() + b;
  const auto last = entries_.begin() + e;
  const auto it = std::lower_bound(
      first, last, seq, [](const Entry& x, std::uint64_t s) { return x.seq < s; });
  return it != last && it->seq == seq
             ? static_cast<std::uint32_t>(it - entries_.begin())
             : kNone;
}

void LogOnStrategy::order() {
  // causal_order's Kahn pass over indices. Its edges, in the order it adds
  // them: for each entry i ascending, the process-order edge
  // (creator, seq-1) -> i, then the cross edge (src, dep) -> i. Both can
  // come from one node (a self-sent event's dep is its predecessor); like
  // causal_order it keeps the two edges and indegree 2.
  const auto n = static_cast<std::uint32_t>(entries_.size());
  seg_.assign(static_cast<std::size_t>(nranks_) + 1, 0);
  for (const Entry& e : entries_) ++seg_[e.creator + 1];
  for (int c = 0; c < nranks_; ++c) seg_[c + 1] += seg_[c];

  preds_.resize(2 * static_cast<std::size_t>(n));
  indegree_.assign(n, 0);
  edge_at_.assign(static_cast<std::size_t>(n) + 2, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Entry& e = entries_[i];
    // Creator c's events are consecutive and ascending, so (c, seq-1) is
    // either entry i-1 or absent.
    const bool proc =
        i > seg_[e.creator] && entries_[i - 1].seq == e.seq - 1;
    preds_[2 * i] = proc ? i - 1 : kNone;
    preds_[2 * i + 1] = e.dep != ftapi::Determinant::kNoDep && e.dep > 0
                            ? find(wire::record_src(e.record), e.dep)
                            : kNone;
    for (int k = 0; k < 2; ++k) {
      const std::uint32_t from = preds_[2 * i + k];
      if (from == kNone) continue;
      ++edge_at_[from + 2];
      ++indegree_[i];
    }
  }
  // edge_at_[j + 1] is node j's fill cursor; after the fill, node j's
  // targets are [edge_at_[j], edge_at_[j + 1]), ascending.
  for (std::size_t j = 2; j < edge_at_.size(); ++j) edge_at_[j] += edge_at_[j - 1];
  edges_.resize(edge_at_.back());
  for (std::uint32_t i = 0; i < n; ++i) {
    for (int k = 0; k < 2; ++k) {
      const std::uint32_t from = preds_[2 * i + k];
      if (from != kNone) edges_[edge_at_[from + 1]++] = i;
    }
  }

  order_.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    if (indegree_[i] == 0) order_.push_back(i);
  }
  // FIFO processing keeps the order deterministic.
  for (std::size_t head = 0; head < order_.size(); ++head) {
    const std::uint32_t i = order_[head];
    for (std::uint32_t k = edge_at_[i]; k < edge_at_[i + 1]; ++k) {
      if (--indegree_[edges_[k]] == 0) order_.push_back(edges_[k]);
    }
  }
  MPIV_CHECK(order_.size() == n, "cycle in causal order: %zu of %u emitted",
             order_.size(), n);
}

}  // namespace mpiv::causal
