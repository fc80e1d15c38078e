// Reference piggyback codec: the vector round trip the streamed path
// replaced, kept as the oracle for differential tests and benches.
//
// `Reference<S>` runs strategy S (VcausalStrategy or ManethoStrategy) with
// the same selection, but builds by collecting each creator's events with
// for_range into a vector and encoding it with wire::factored_serialize,
// and absorbs by decoding with wire::factored_parse and adding every event
// one at a time. Its piggyback bytes, deps, Work and resulting knowledge
// must equal S's for every message.
//
// ReferenceLogOn (Reference<LogOnStrategy>) does the same for LogOn's plain
// format: it collects the selected events with for_range, orders them with
// the map-based LogOnStrategy::causal_order and encodes them with
// wire::plain_serialize, and absorbs by decoding with wire::plain_parse.
#pragma once

#include <algorithm>
#include <vector>

#include "causal/logon_strategy.hpp"
#include "causal/strategy.hpp"
#include "causal/wire.hpp"

namespace mpiv::causal {

template <class S>
class Reference final : public S {
 protected:
  std::uint64_t put_factored(int dst, bool raise_cap, util::Buffer& out,
                             Strategy::DepShadow& deps) override {
    PeerView& view = this->views_[static_cast<std::size_t>(dst)];
    std::vector<ftapi::Determinant> events;
    for (int c = 0; c < this->nranks_; ++c) {
      if (c == dst) continue;
      const auto creator = static_cast<std::uint32_t>(c);
      const std::uint64_t lo =
          std::max(this->store_->stable(creator), this->holds_[creator]);
      const std::uint64_t hi = this->store_->known(creator);
      if (hi <= lo) continue;
      std::uint64_t top = 0;
      this->store_->for_range(creator, lo, hi, [&](const ftapi::Determinant& d) {
        events.push_back(d);
        top = d.seq;
      });
      if (top > view.sent[creator]) view.sent[creator] = top;
      if (raise_cap) view.raise_cap(creator, top);
    }
    for (const ftapi::Determinant& d : events) deps.push_back(d.dep_word());
    wire::factored_serialize(events, out);
    return events.size();
  }

  std::uint64_t take_factored(int src, util::Buffer& in,
                              const Strategy::DepShadow& deps) override {
    std::vector<ftapi::Determinant> events = wire::factored_parse(in);
    MPIV_CHECK(deps.size() == events.size(), "dep shadow size %zu vs %zu",
               deps.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      ftapi::Determinant& d = events[i];
      d.set_dep_word(deps[i]);
      if (this->store_->add(d)) this->on_absorbed(d);
      this->note_learned(src, d.creator, d.seq);
    }
    return events.size();
  }
};

template <>
class Reference<LogOnStrategy> final : public LogOnStrategy {
 protected:
  std::uint64_t put_plain(int dst, util::Buffer& out,
                          Strategy::DepShadow& deps) override {
    PeerView& view = views_[static_cast<std::size_t>(dst)];
    std::vector<ftapi::Determinant> events;
    for (int c = 0; c < nranks_; ++c) {
      if (c == dst) continue;
      const auto creator = static_cast<std::uint32_t>(c);
      const std::uint64_t lo = std::max(store_->stable(creator), holds_[creator]);
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
    return events.size();
  }

  std::uint64_t take_plain(int src, util::Buffer& in,
                           const Strategy::DepShadow& deps) override {
    std::vector<ftapi::Determinant> events = wire::plain_parse(in);
    MPIV_CHECK(deps.size() == events.size(), "dep shadow size %zu vs %zu",
               deps.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      ftapi::Determinant& d = events[i];
      d.set_dep_word(deps[i]);
      if (store_->add(d)) graph_->add(d);
      note_learned(src, d.creator, d.seq);
    }
    return events.size();
  }
};

using ReferenceLogOn = Reference<LogOnStrategy>;

}  // namespace mpiv::causal
