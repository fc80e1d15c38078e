// Layer probes: each calls one hot layer's public functions directly, at
// the operating point the workload's own exact counts describe.
//
//   causal  make_strategy + EventStore per rank, random point-to-point
//           traffic, stability trailing every creator by a fixed lag; times
//           every Strategy::build and Strategy::absorb call.
//   wire    serialize/parse of a mean-sized piggyback in the strategy's
//           format (factored for Vcausal/Manetho, plain for LogOn).
//   engine  hold model: sim::Engine with `queue_peak` self-rescheduling
//           callbacks; host ns per dispatched event.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <random>

#include "bench.hpp"
#include "causal/event_store.hpp"
#include "causal/wire.hpp"
#include "sim/engine.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace causal = mpiv::causal;
namespace ftapi = mpiv::ftapi;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

double median_of(std::vector<double> v) { return percentile(v, 50); }

std::uint64_t g_sink = 0;  // keeps probe results observable

struct ProbeRank {
  explicit ProbeRank(int nranks) : store(nranks) {}
  causal::EventStore store;
  std::unique_ptr<causal::Strategy> strategy;
  std::uint64_t seq = 0;  // this rank's own reception sequence
};

void causal_probe(const ProbeInputs& in, ProbeResults& out) {
  const int n = std::max(2, in.nranks);
  const causal::StrategyKind kind =
      in.causal ? in.strategy : causal::StrategyKind::kVcausal;
  const std::uint64_t lag =
      in.causal ? std::max<std::uint64_t>(1, in.unstable / static_cast<std::uint64_t>(n))
                : 1;
  const mpiv::net::CostModel cost{};
  std::vector<std::unique_ptr<ProbeRank>> ranks;
  for (int r = 0; r < n; ++r) {
    ranks.push_back(std::make_unique<ProbeRank>(n));
    ranks.back()->strategy = causal::make_strategy(kind);
    ranks.back()->strategy->attach(&ranks.back()->store, &cost, r, n);
  }
  std::vector<std::uint64_t> ssn(static_cast<std::size_t>(n) * n, 0);
  std::vector<std::uint64_t> stable(static_cast<std::size_t>(n), 0);
  std::mt19937_64 rng(in.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<double> build_us;
  std::vector<double> absorb_us;

  const auto message = [&](bool timed) {
    const auto src = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    const auto dst = static_cast<int>(
        (static_cast<std::uint64_t>(src) + 1 + rng() % static_cast<std::uint64_t>(n - 1)) %
        static_cast<std::uint64_t>(n));
    ProbeRank& s = *ranks[static_cast<std::size_t>(src)];
    ProbeRank& d = *ranks[static_cast<std::size_t>(dst)];
    mpiv::util::Buffer buf;
    causal::Strategy::DepShadow deps;
    const Clock::time_point t0 = Clock::now();
    const causal::Strategy::Work bw = s.strategy->build(dst, buf, deps);
    const Clock::time_point t1 = Clock::now();
    const causal::Strategy::Work aw = d.strategy->absorb(src, buf, deps);
    const Clock::time_point t2 = Clock::now();
    g_sink += bw.events + aw.events;
    if (timed) {
      build_us.push_back(ns_between(t0, t1) / 1e3);
      absorb_us.push_back(ns_between(t1, t2) / 1e3);
    }
    // The matching reception becomes dst's next determinant, with its
    // cross edge on the freshest event of the sender dst knows.
    ftapi::Determinant det;
    det.creator = static_cast<std::uint32_t>(dst);
    det.seq = ++d.seq;
    det.src = static_cast<std::uint32_t>(src);
    det.ssn = ++ssn[static_cast<std::size_t>(src) * n + static_cast<std::size_t>(dst)];
    det.dep_creator = static_cast<std::uint32_t>(src);
    det.dep_seq = d.store.known(static_cast<std::uint32_t>(src));
    d.store.add(det);
    d.strategy->on_local_event(det);
  };
  // Stability trails each creator by `lag` events, so every store settles
  // at about n * lag unstable determinants — the workload's peak.
  const auto advance_stability = [&] {
    for (int c = 0; c < n; ++c) {
      const std::uint64_t seq = ranks[static_cast<std::size_t>(c)]->seq;
      stable[static_cast<std::size_t>(c)] = seq > lag ? seq - lag : 0;
    }
    for (auto& r : ranks) {
      r->store.set_stable(stable);
      r->strategy->on_stable(stable);
    }
  };

  const std::uint64_t warmup = lag * static_cast<std::uint64_t>(n) +
                               4 * static_cast<std::uint64_t>(n);
  constexpr std::uint64_t kTimedCalls = 2000;
  for (std::uint64_t m = 1; m <= warmup + kTimedCalls; ++m) {
    message(m > warmup);
    if (m % static_cast<std::uint64_t>(n) == 0) advance_stability();
  }
  out.calls = build_us.size();
  out.build_us_p50 = percentile(build_us, 50);
  out.build_us_p99 = percentile(build_us, 99);
  out.absorb_us_p50 = percentile(absorb_us, 50);
  out.absorb_us_p99 = percentile(absorb_us, 99);
}

void wire_probe(const ProbeInputs& in, ProbeResults& out) {
  const int n = std::max(2, in.nranks);
  const bool plain = in.causal && in.strategy == causal::StrategyKind::kLogOn;
  // The plain format counts events in a u16.
  const std::uint64_t m =
      std::clamp<std::uint64_t>(in.causal ? in.mean_pb_events : 1, 1, 65535);
  // A mean-sized piggyback: contiguous seq runs spread over the creators.
  std::vector<ftapi::Determinant> events;
  events.reserve(m);
  const std::uint64_t per = (m + static_cast<std::uint64_t>(n) - 1) / static_cast<std::uint64_t>(n);
  for (std::uint64_t i = 0; i < m; ++i) {
    ftapi::Determinant d;
    d.creator = static_cast<std::uint32_t>(i / per);
    d.seq = 1000 + i % per;
    d.src = static_cast<std::uint32_t>((i * 7) % static_cast<std::uint64_t>(n));
    d.ssn = 500 + i;
    d.tag = static_cast<std::int32_t>(i % 3);
    events.push_back(d);
  }
  const std::uint64_t reps = std::max<std::uint64_t>(20, 2000000 / m);
  std::vector<double> ser;
  std::vector<double> par;
  mpiv::util::Buffer buf;
  for (int trial = 0; trial < 5; ++trial) {
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) {
      buf.clear();
      if (plain) {
        causal::wire::plain_serialize(events, buf);
      } else {
        causal::wire::factored_serialize(events, buf);
      }
      g_sink += buf.size();
    }
    const Clock::time_point t1 = Clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) {
      buf.rewind();
      const std::vector<ftapi::Determinant> back =
          plain ? causal::wire::plain_parse(buf) : causal::wire::factored_parse(buf);
      g_sink += back.size();
    }
    const Clock::time_point t2 = Clock::now();
    const double total = static_cast<double>(reps * m);
    ser.push_back(ns_between(t0, t1) / total);
    par.push_back(ns_between(t1, t2) / total);
  }
  out.serialize_ns_per_event = median_of(ser);
  out.parse_ns_per_event = median_of(par);
}

struct HoldModel {
  mpiv::sim::Engine eng;
  std::mt19937_64 rng;
  std::uint64_t left = 0;
};

/// One self-rescheduling callback of the hold model (one pointer, so it
/// fits std::function's inline storage like the simulator's own timers).
struct Hold {
  HoldModel* m;
  void operator()() const {
    if (--m->left == 0) {
      m->eng.stop();
      return;
    }
    m->eng.after(1 + static_cast<mpiv::sim::Time>(m->rng() % 2000), *this);
  }
};

void dispatch_probe(const ProbeInputs& in, ProbeResults& out) {
  const std::uint64_t q = std::max<std::uint64_t>(1, in.queue_peak);
  constexpr std::uint64_t kEvents = 1000000;
  std::vector<double> trials;
  for (int trial = 0; trial < 3; ++trial) {
    HoldModel m;
    m.rng.seed(in.seed + static_cast<std::uint64_t>(trial));
    m.left = kEvents;
    for (std::uint64_t i = 0; i < q; ++i) {
      m.eng.at(static_cast<mpiv::sim::Time>(m.rng() % 2000), Hold{&m});
    }
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t ran = m.eng.run();
    const Clock::time_point t1 = Clock::now();
    trials.push_back(ns_between(t0, t1) / static_cast<double>(ran));
  }
  out.dispatch_ns = median_of(trials);
}

}  // namespace

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

ProbeResults run_probes(const ProbeInputs& in) {
  ProbeResults out;
  causal_probe(in, out);
  wire_probe(in, out);
  dispatch_probe(in, out);
  return out;
}

}  // namespace perfbench
