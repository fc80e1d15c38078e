// Piggyback-reduction strategy interface (paper §III-B).
//
// The three strategies share one EventStore (actual determinant data) and
// differ in (a) how they decide what a peer already knows, (b) the data
// structure maintained to decide it (plain sequences vs antecedence graph),
// (c) the wire format, and (d) — through the cost model — how much CPU the
// decision costs. All of those are exactly the axes the paper compares.
//
// Vcausal and Manetho differ only in (a)-(b) and (d): both hand the base
// class, per creator, the prefix the peer is known to hold, and the base
// streams the rest in the factored format (put_factored) and merges
// incoming factored piggybacks (take_factored).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "causal/event_store.hpp"
#include "net/cost_model.hpp"
#include "util/buffer.hpp"

namespace mpiv::causal {

/// What this rank believes peer `j` knows, per creator. `learned[c]` grows
/// when j's piggybacks arrive, `sent[c]` when we piggyback to j; `cap[c]`
/// bounds graph-derived (transitive) inference after j restarts from a
/// checkpoint — j's replay does not reconstruct third-party determinant
/// copies, so pre-crash transitive evidence about j is no longer valid
/// (docs/DESIGN.md §4).
struct PeerView {
  std::vector<std::uint64_t> learned;
  std::vector<std::uint64_t> sent;
  std::vector<std::uint64_t> cap;

  void init(int nranks) {
    learned.assign(static_cast<std::size_t>(nranks), 0);
    sent.assign(static_cast<std::size_t>(nranks), 0);
    cap.assign(static_cast<std::size_t>(nranks), UINT64_MAX);
  }
  std::uint64_t floor_known(std::uint32_t c) const {
    return std::max(learned[c], sent[c]);
  }
  void on_restart(const std::vector<std::uint64_t>& known) {
    for (std::size_t c = 0; c < learned.size(); ++c) {
      learned[c] = std::min(learned[c], known[c]);
      sent[c] = std::min(sent[c], known[c]);
      cap[c] = known[c];
    }
  }
  void raise_cap(std::uint32_t c, std::uint64_t seq) {
    if (cap[c] != UINT64_MAX && seq > cap[c]) cap[c] = seq;
  }
  void serialize(util::Buffer& b) const {
    for (std::uint64_t v : learned) b.put_u64(v);
    for (std::uint64_t v : sent) b.put_u64(v);
    for (std::uint64_t v : cap) b.put_u64(v);
  }
  void restore(util::Buffer& b) {
    for (std::uint64_t& v : learned) v = b.get_u64();
    for (std::uint64_t& v : sent) v = b.get_u64();
    for (std::uint64_t& v : cap) v = b.get_u64();
  }
};

class Strategy {
 public:
  struct Work {
    std::uint64_t events = 0;
    std::uint64_t bytes = 0;
    std::uint64_t visits = 0;  // antecedence-graph vertices touched
    sim::Time cpu = 0;
  };

  virtual ~Strategy() = default;
  virtual const char* name() const = 0;

  virtual void attach(EventStore* store, const net::CostModel* cost, int rank,
                      int nranks) {
    store_ = store;
    cost_ = cost;
    rank_ = rank;
    nranks_ = nranks;
    views_.assign(static_cast<std::size_t>(nranks), PeerView{});
    for (PeerView& v : views_) v.init(nranks);
    holds_.assign(static_cast<std::size_t>(nranks), 0);
  }

  /// Cross-edge targets of piggybacked events in piggyback order, one
  /// Determinant::dep_word() each (the edge's creator is the event's src).
  using DepShadow = std::vector<std::uint64_t>;

  /// Selects and serializes the events to piggyback to `dst`; `deps`
  /// receives the events' cross-edge targets in piggyback order.
  virtual Work build(int dst, util::Buffer& out, DepShadow& deps) = 0;
  /// Parses a piggyback received from `src` and merges it into knowledge;
  /// `deps` are the shadowed cross-edge targets (same order as the wire).
  virtual Work absorb(int src, util::Buffer& in, const DepShadow& deps) = 0;
  /// A determinant of this rank was created (already in the store).
  virtual void on_local_event(const ftapi::Determinant& d) { (void)d; }
  /// The Event Logger's stable vector advanced (store already pruned).
  virtual void on_stable(const std::vector<std::uint64_t>& stable) {
    (void)stable;
  }
  /// Peer restarted from a checkpoint whose knowledge vector is `known`.
  virtual void on_peer_restart(int peer, const std::vector<std::uint64_t>& known) {
    views_[static_cast<std::size_t>(peer)].on_restart(known);
  }

  virtual void serialize(util::Buffer& b) const {
    for (const PeerView& v : views_) v.serialize(b);
  }
  virtual void restore(util::Buffer& b) {
    for (PeerView& v : views_) v.restore(b);
  }
  virtual void reset() {
    for (PeerView& v : views_) v.init(nranks_);
  }

  virtual std::size_t graph_vertices() const { return 0; }

 protected:
  /// Records knowledge implied by a piggyback received from `src`: it
  /// carried `creator`'s event `seq`.
  void note_learned(int src, std::uint32_t creator, std::uint64_t seq) {
    PeerView& v = views_[static_cast<std::size_t>(src)];
    if (seq > v.learned[creator]) v.learned[creator] = seq;
    v.raise_cap(creator, seq);
  }

  /// Streams, for every creator c != dst, the held events in
  /// (max(stable(c), holds_[c]), known(c)] to `out` in the factored format
  /// and their cross edges to `deps`, then records in dst's view what was
  /// sent (`sent`, and the transitive cap if `raise_cap`). `holds_[c]` is
  /// the prefix of c's events dst is known to hold. Returns the events.
  virtual std::uint64_t put_factored(int dst, bool raise_cap, util::Buffer& out,
                                     DepShadow& deps);
  /// Merges a factored piggyback from `src` (deps in wire order), skipping
  /// undecoded each block's prefix the store already holds and copying the
  /// rest in as one run when it all lies above what the store holds; every
  /// event new to the store goes to on_absorbed if `absorb_hook_` is set.
  /// Returns the events it carried.
  virtual std::uint64_t take_factored(int src, util::Buffer& in,
                                      const DepShadow& deps);
  /// take_factored added `d` to the store (called when `absorb_hook_`).
  virtual void on_absorbed(const ftapi::Determinant& d) { (void)d; }

  /// Calls fn(creator, run) for every held run put_factored would send
  /// `dst` (creators ascending, each run ascending), then records in dst's
  /// view what was sent, as put_factored does.
  template <class Fn>
  void for_held_runs(int dst, bool raise_cap, Fn&& fn) {
    PeerView& view = views_[static_cast<std::size_t>(dst)];
    for (int c = 0; c < nranks_; ++c) {
      if (c == dst) continue;  // never send a peer its own events back
      const auto creator = static_cast<std::uint32_t>(c);
      const std::uint64_t lo = std::max(store_->stable(creator), holds_[creator]);
      const std::uint64_t hi = store_->known(creator);
      if (hi <= lo) continue;
      std::uint64_t top = 0;
      store_->for_runs(creator, lo, hi, [&](const EventStore::Run& r) {
        fn(creator, r);
        top = r.first + r.count - 1;
      });
      if (top > view.sent[creator]) view.sent[creator] = top;
      if (raise_cap) view.raise_cap(creator, top);
    }
  }

  EventStore* store_ = nullptr;
  const net::CostModel* cost_ = nullptr;
  int rank_ = -1;
  int nranks_ = 0;
  std::vector<PeerView> views_;
  std::vector<std::uint64_t> holds_;  // put_factored's input, per creator
  bool absorb_hook_ = false;  // take_factored feeds on_absorbed
};

enum class StrategyKind : std::uint8_t { kVcausal, kManetho, kLogOn };

const char* strategy_kind_name(StrategyKind k);
std::unique_ptr<Strategy> make_strategy(StrategyKind k);

}  // namespace mpiv::causal
