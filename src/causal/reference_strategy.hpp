// Reference piggyback codecs and the reference checks.
//
// The factored codec. reference_put_factored streams the held runs a build
// selects through wire::FactoredWriter into real factored bytes (and their
// edge words into a dep shadow); reference_take_factored reads them back
// with wire::FactoredReader, skipping each block's already-held prefix and
// adding the rest one event at a time. Both work over an EventStore or a
// ColumnarStore, the per-rank copy store EventStore replaced.
//
// `Reference<S>` runs strategy S (VcausalStrategy or ManethoStrategy) with
// the same selection, but with that codec in place of the host form: its
// Work (events, simulated bytes, visits, cpu) and the knowledge it leaves
// behind must equal S's for every message.
//
// ReferenceLogOn (Reference<LogOnStrategy>) does the same for LogOn's plain
// format: it collects the selected events with for_range, orders them with
// the map-based LogOnStrategy::causal_order and encodes them with
// wire::plain_serialize, and absorbs by decoding with wire::plain_parse.
//
// Reference checks. While reference_checks().on is set, every EventStore
// built mirrors itself into a ColumnarStore twin, and every Vcausal or
// Manetho piggyback also carries the twin's real factored bytes. For each
// message the sender dies unless the computed size equals the serialized
// size and the events of the host form equal the serialized events, and
// the receiver absorbs the bytes into its twin and dies unless the two
// stores then hold the same sets (EventStore::check_reference). The
// switch is process-wide and read when a store is built: tests set it
// before building a cluster.
#pragma once

#include <algorithm>
#include <vector>

#include "causal/logon_strategy.hpp"
#include "causal/strategy.hpp"
#include "causal/wire.hpp"

namespace mpiv::causal {

struct ReferenceChecks {
  bool on = false;
  std::uint64_t builds = 0;   // piggybacks checked at the sender
  std::uint64_t absorbs = 0;  // piggybacks checked at the receiver
  std::uint64_t events = 0;   // events those piggybacks carried
  std::uint64_t stores = 0;   // store-vs-twin comparisons
  // DetTable writes of a new record over a kept seq: landed (no other
  // store read the old value), or refused and kept as the writer's copy.
  std::uint64_t overwrites = 0;
  std::uint64_t own_copies = 0;
};
ReferenceChecks& reference_checks();

/// Appends the real factored piggyback of the held events of every creator
/// c != dst in (max(stable(c), holds[c]), known(c)] to `out`, and their
/// edge words to `deps`. Returns the events.
template <class Store>
std::uint64_t reference_put_factored(const Store& store, int dst, int nranks,
                                     const std::vector<std::uint64_t>& holds,
                                     util::Buffer& out, Strategy::DepShadow& deps) {
  wire::FactoredWriter writer(out, 0, 0);
  for (int c = 0; c < nranks; ++c) {
    if (c == dst) continue;
    const auto creator = static_cast<std::uint32_t>(c);
    const std::uint64_t lo = std::max(store.stable(creator), holds[creator]);
    const std::uint64_t hi = store.known(creator);
    if (hi <= lo) continue;
    store.for_runs(creator, lo, hi, [&](const auto& r) {
      writer.put_run(creator, r.first, r.count, r.records);
      deps.insert(deps.end(), r.deps, r.deps + r.count);
    });
  }
  writer.finish();
  return writer.events();
}

/// Merges a real factored piggyback into `store` (deps in wire order):
/// skips each block's prefix the store holds undecoded and adds the rest.
/// Calls on_new(d) for every event new to the store and on_block(creator,
/// last seq) for every block. Returns the events it carried.
template <class Store, class OnBlock, class OnNew>
std::uint64_t reference_take_factored(Store& store, util::Buffer& in,
                                      const Strategy::DepShadow& deps,
                                      OnBlock&& on_block, OnNew&& on_new) {
  wire::FactoredReader reader(in);
  std::size_t next = 0;  // index into deps of the block's first event
  while (reader.next_block()) {
    const wire::FactoredReader::Block& b = reader.block();
    if (b.count == 0) continue;
    MPIV_CHECK(next + b.count <= deps.size(), "dep shadow size %zu vs %zu+",
               deps.size(), next + b.count);
    // Adding an event at or below held_through is a no-op: skip them.
    const std::uint64_t held = store.held_through(b.creator);
    const std::uint32_t dup =
        held < b.first ? 0
                       : static_cast<std::uint32_t>(std::min<std::uint64_t>(
                             b.count, held - b.first + 1));
    reader.skip(dup);
    const std::uint8_t* records = reader.records(b.count - dup);
    for (std::uint32_t k = 0; k < b.count - dup; ++k) {
      ftapi::Determinant d = wire::decode_record(
          records + k * wire::kFactoredPerEvent, b.creator, b.first + dup + k);
      d.set_dep_word(deps[next + dup + k]);
      if (store.add(d)) on_new(d);
    }
    next += b.count;
    on_block(b.creator, b.first + b.count - 1);
  }
  MPIV_CHECK(next == deps.size(), "dep shadow size %zu vs %zu", deps.size(), next);
  return next;
}

/// The events of a host-form piggyback (causal/wire.hpp), read from the
/// table it names, with the sender's edges.
std::vector<ftapi::Determinant> host_form_events(util::Buffer& in);

/// Reference check of a host-form build (see top): `out` holds the host
/// form from `start`; appends the twin's factored bytes and edge words.
void check_build(const EventStore& store, int dst, int nranks,
                 const std::vector<std::uint64_t>& holds, util::Buffer& out,
                 std::size_t start, const Strategy::Work& w);
/// Reference check of a host-form absorb of `events` events, already
/// merged into `store`: reads the bytes check_build appended from `in`,
/// merges them into the twin and compares the two stores.
void check_absorb(EventStore& store, util::Buffer& in, std::uint64_t events);

template <class S>
class Reference final : public S {
 protected:
  void put_factored(int dst, bool raise_cap, util::Buffer& out,
                    Strategy::DepShadow& deps, Strategy::Work& w) override {
    const std::size_t start = out.size();
    w.events = reference_put_factored(*this->store_, dst, this->nranks_,
                                      this->holds_, out, deps);
    w.bytes = out.size() - start;
    // dst's view records what was sent, as in S.
    this->for_held_spans(dst, raise_cap,
                         [](std::uint32_t, std::uint64_t, std::uint64_t) {});
  }

  std::uint64_t take_factored(int src, util::Buffer& in,
                              const Strategy::DepShadow& deps) override {
    return reference_take_factored(
        *this->store_, in, deps,
        [this, src](std::uint32_t creator, std::uint64_t last) {
          this->note_learned(src, creator, last);
        },
        [this](const ftapi::Determinant& d) { this->on_absorbed(d); });
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
