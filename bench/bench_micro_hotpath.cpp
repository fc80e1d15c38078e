// Micro-benchmarks for the simulator hot paths.
//
// Times the inner loops every protocol variant executes per message —
// determinant storage (EventStore), antecedence-graph reachability,
// sender-log churn, engine event scheduling, the Vcausal and LogOn
// piggyback exchanges — plus one end-to-end cluster run, and emits a
// machine-readable JSON report (wall clock, throughput, peak RSS). Four
// duels run a fast path and its reference over identical inputs in one
// process (run_duel); their ratios are printed at the end as `DUEL` lines,
// which scripts/run_perf.sh gates. scripts/run_perf.sh drives this binary before and after
// hot-path changes; BENCH_hotpath.json in the repo root records the
// measured history. The items/s column also grounds the per-event and
// per-vertex constants of net/cost_model.hpp (docs/BENCHMARKS.md,
// "Host-time microbenchmarks").
//
// Usage: bench_micro_hotpath [--quick] [--json PATH]
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "causal/antecedence_graph.hpp"
#include "causal/columnar_store.hpp"
#include "causal/det_table.hpp"
#include "causal/event_store.hpp"
#include "causal/reference_strategy.hpp"
#include "causal/sender_log.hpp"
#include "causal/vcausal_strategy.hpp"
#include "scenario/runner.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/engine.hpp"
#include "workloads/apps.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct BenchResult {
  std::string name;
  double wall_ms = 0;
  std::uint64_t items = 0;  // work units (adds, visits, events, ...)
  double items_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(items) / (wall_ms / 1e3) : 0;
  }
};

std::vector<BenchResult> g_results;
std::uint64_t g_sink = 0;  // defeats dead-code elimination

template <class Fn>
BenchResult time_once(const char* name, Fn& fn) {
  BenchResult r;
  r.name = name;
  const auto t0 = Clock::now();
  r.items = fn();
  const auto t1 = Clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return r;
}

void record(BenchResult r) {
  std::printf("%-28s %10.1f ms  %12llu items  %12.0f items/s\n", r.name.c_str(),
              r.wall_ms, static_cast<unsigned long long>(r.items),
              r.items_per_sec());
  g_results.push_back(std::move(r));
}

template <class Fn>
void run_bench(const char* name, Fn&& fn) {
  record(time_once(name, fn));
}

// A duel times a fast path against its reference over identical inputs.
// The two sides alternate for kDuelRounds rounds and each keeps its fastest
// round, so a burst of host load during one side does not skew the ratio
// (the `DUEL` line, reference wall / fast wall) that run_perf.sh gates.
constexpr int kDuelRounds = 3;

struct Duel {
  const char* label;
  const char* fast;
  const char* ref;
};
std::vector<Duel> g_duels;

template <class Fast, class Ref>
void run_duel(const char* label, const char* fast_name, Fast&& fast,
              const char* ref_name, Ref&& ref) {
  BenchResult best_fast, best_ref;
  for (int round = 0; round < kDuelRounds; ++round) {
    BenchResult f = time_once(fast_name, fast);
    BenchResult r = time_once(ref_name, ref);
    if (round == 0 || f.wall_ms < best_fast.wall_ms) best_fast = std::move(f);
    if (round == 0 || r.wall_ms < best_ref.wall_ms) best_ref = std::move(r);
  }
  record(std::move(best_fast));
  record(std::move(best_ref));
  g_duels.push_back({label, fast_name, ref_name});
}

mpiv::ftapi::Determinant make_det(std::uint32_t creator, std::uint64_t seq,
                                  int nranks) {
  mpiv::ftapi::Determinant d;
  d.creator = creator;
  d.seq = seq;
  d.src = static_cast<std::uint32_t>((creator + seq) % static_cast<std::uint64_t>(nranks));
  d.ssn = seq;
  d.tag = 1;
  d.dep_creator = d.src;
  d.dep_seq = seq > 1 ? seq - 1 : 0;
  return d;
}

// EventStore: the per-message determinant path — add events for every
// creator, query the watermarks a piggyback build reads, read the unstable
// suffix back (LogOn's build and recovery collection decode it), and prune
// on a periodic stable-clock advance (the Event Logger's GC effect). Run on
// EventStore (intervals over a determinant table) and on ColumnarStore, the
// per-rank copy store it replaced: the `event_store` duel.
template <class Store>
std::uint64_t bench_event_store(std::uint64_t rounds) {
  const int nranks = 16;
  Store store(nranks);
  std::vector<std::uint64_t> stable(static_cast<std::size_t>(nranks), 0);
  std::uint64_t ops = 0;
  for (std::uint64_t r = 1; r <= rounds; ++r) {
    for (int c = 0; c < nranks; ++c) {
      const auto creator = static_cast<std::uint32_t>(c);
      store.add(make_det(creator, r, nranks));
      g_sink += store.known(creator) + store.held_through(creator);
      g_sink += store.holds(creator, r) ? 1 : 0;
      ops += 3;
    }
    if (r % 16 == 0) {
      const auto creator = static_cast<std::uint32_t>(r / 16 % nranks);
      store.for_range(creator, store.stable(creator), r,
                      [&ops](const mpiv::ftapi::Determinant& d) {
                        g_sink += d.ssn + d.dep_seq;
                        ++ops;
                      });
    }
    if (r % 64 == 0) {
      // Stability lags by 32 events: the store keeps a sliding unstable
      // suffix, exactly the EL-enabled steady state.
      for (auto& s : stable) s = r - 32;
      store.set_stable(stable);
      ++ops;
    }
  }
  g_sink += store.held_count();
  return ops;
}

// AntecedenceGraph: vertex insertion plus the incremental reachability
// query Manetho/LogOn run on every send.
std::uint64_t bench_graph_reach(std::uint64_t rounds) {
  const int nranks = 16;
  mpiv::causal::AntecedenceGraph graph(nranks);
  std::vector<std::vector<std::uint64_t>> cache(
      static_cast<std::size_t>(nranks));
  std::vector<std::uint64_t> stable(static_cast<std::size_t>(nranks), 0);
  std::uint64_t ops = 0;
  for (std::uint64_t r = 1; r <= rounds; ++r) {
    for (int c = 0; c < nranks; ++c) {
      graph.add(make_det(static_cast<std::uint32_t>(c), r, nranks));
      ++ops;
    }
    const auto peer = static_cast<std::uint32_t>(r % nranks);
    ops += graph.known_from_cached(peer, r, cache[peer]);
    if (r % 64 == 0) {
      for (auto& s : stable) s = r - 32;
      graph.prune_stable(stable);
    }
  }
  g_sink += graph.vertex_count();
  return ops;
}

// Full (non-incremental) traversal with a fresh visited set per query —
// the recovery-path variant.
std::uint64_t bench_graph_full(std::uint64_t rounds) {
  const int nranks = 16;
  mpiv::causal::AntecedenceGraph graph(nranks);
  const std::uint64_t depth = 512;
  for (std::uint64_t s = 1; s <= depth; ++s) {
    for (int c = 0; c < nranks; ++c) {
      graph.add(make_det(static_cast<std::uint32_t>(c), s, nranks));
    }
  }
  std::vector<std::uint64_t> known;
  std::uint64_t ops = 0;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const auto peer = static_cast<std::uint32_t>(r % nranks);
    ops += graph.known_from(peer, depth, known);
    g_sink += known[0];
  }
  return ops;
}

// SenderLog: the log/GC cycle every send and peer checkpoint runs.
std::uint64_t bench_sender_log(std::uint64_t rounds) {
  const int nranks = 16;
  mpiv::causal::SenderLog slog(nranks);
  mpiv::net::Payload p{4096, 0x5eed};
  std::uint64_t ops = 0;
  for (std::uint64_t r = 1; r <= rounds; ++r) {
    for (int dst = 0; dst < nranks; ++dst) {
      slog.log(dst, r, 1, p);
      ++ops;
    }
    if (r % 64 == 0) {
      for (int dst = 0; dst < nranks; ++dst) slog.gc(dst, r - 32);
      ops += nranks;
    }
  }
  g_sink += slog.bytes();
  return ops;
}

// Engine resume lane: P coroutine processes sleeping in lockstep — the
// schedule/resume cycle under every simulated blocking operation.
std::uint64_t bench_engine_resume(std::uint64_t events) {
  mpiv::sim::Engine eng;
  const int nprocs = 16;
  const std::uint64_t per_proc = events / nprocs;
  for (int p = 0; p < nprocs; ++p) {
    // std::string + avoids the GCC 12 -Wrestrict false positive that
    // `"p" + std::to_string(p)` trips under -O2.
    std::string pname = "p";
    pname += std::to_string(p);
    auto& proc = eng.create_process(pname);
    proc.start([](mpiv::sim::Engine& e, std::uint64_t n) -> mpiv::sim::Task<void> {
      for (std::uint64_t i = 0; i < n; ++i) co_await e.sleep(10);
    }(eng, per_proc));
  }
  return eng.run();
}

// Engine callback lane: a self-rescheduling timer chain per node, the
// at()/after() pattern the network and services use.
std::uint64_t bench_engine_callbacks(std::uint64_t events) {
  mpiv::sim::Engine eng;
  const int chains = 16;
  const std::uint64_t per_chain = events / chains;
  struct Chain {
    mpiv::sim::Engine* eng;
    std::uint64_t left;
    void fire() {
      if (left-- == 0) return;
      eng->after(10, [this] { fire(); });
    }
  };
  std::vector<Chain> cs(chains);
  for (auto& c : cs) {
    c.eng = &eng;
    c.left = per_chain;
    eng.after(1, [&c] { c.fire(); });
  }
  return eng.run();
}

// Event queue duel: the calendar queue that now backs the engine versus
// the binary heap it replaced, fed the exact same hold-model stream —
// a steady population of pending events where each pop schedules a
// successor a short pseudo-random distance in the future (the engine's
// actual access pattern).
struct QEv {
  mpiv::sim::Time t;
  std::uint64_t seq;
};

template <class Queue, class Push, class PopTop>
std::uint64_t bench_queue(std::uint64_t events, Queue& q, Push push,
                          PopTop pop_top) {
  const std::uint64_t hold = 4096;  // steady pending population
  std::uint64_t x = 0x9e3779b97f4a7c15ull;  // splitmix-style gap stream
  std::uint64_t seq = 0;
  auto gap = [&x]() -> mpiv::sim::Time {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<mpiv::sim::Time>((z ^ (z >> 31)) % 20'000);
  };
  for (std::uint64_t i = 0; i < hold; ++i) push(q, QEv{gap(), seq++});
  std::uint64_t ops = hold;
  for (std::uint64_t i = 0; i < events; ++i) {
    const QEv top = pop_top(q);
    g_sink += static_cast<std::uint64_t>(top.t) ^ top.seq;
    push(q, QEv{top.t + gap(), seq++});  // reschedule past `now`
    ops += 2;
  }
  while (q.size() > 64) {  // drain the tail through the shrink rebuilds
    g_sink += pop_top(q).seq;
    ++ops;
  }
  return ops;
}

std::uint64_t bench_queue_calendar(std::uint64_t events) {
  mpiv::sim::CalendarQueue<QEv> q;
  return bench_queue(
      events, q, [](auto& qq, const QEv& e) { qq.push(e); },
      [](auto& qq) {
        const QEv e = qq.top();
        qq.pop();
        return e;
      });
}

std::uint64_t bench_queue_binary_heap(std::uint64_t events) {
  struct Later {
    bool operator()(const QEv& a, const QEv& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<QEv, std::vector<QEv>, Later> q;
  return bench_queue(
      events, q, [](auto& qq, const QEv& e) { qq.push(e); },
      [](auto& qq) {
        const QEv e = qq.top();
        qq.pop();
        return e;
      });
}

// Piggyback exchange duels: a strategy's build/absorb versus its reference
// (causal/reference_strategy.hpp) over the exact same message stream —
// random point-to-point traffic over `n` ranks, stability trailing every
// creator by 48 events. `vcausal_exchange` runs Vcausal's host-form path
// (runs over the table, the factored size computed) against the real
// factored codec at 96 ranks (the scale wall's hot layer); `logon_exchange` runs
// LogOn's in-place causal order and plain records at 16 ranks (lu16_logon's
// hot layer). Items are piggybacked events. The ranks' stores share one
// determinant table, as in runtime::Cluster.
template <class S>
std::uint64_t bench_exchange(std::uint64_t messages, int n) {
  const std::uint64_t lag = 48;
  const mpiv::net::CostModel cost{};
  mpiv::causal::DetTable table(n);
  struct Rank {
    Rank(int nranks, mpiv::causal::DetTable& t) : store(nranks, t) {}
    mpiv::causal::EventStore store;
    S strat;
    std::uint64_t seq = 0;
  };
  std::vector<std::unique_ptr<Rank>> ranks;
  for (int r = 0; r < n; ++r) {
    ranks.push_back(std::make_unique<Rank>(n, table));
    ranks.back()->strat.attach(&ranks.back()->store, &cost, r, n);
  }
  std::vector<std::uint64_t> stable(static_cast<std::size_t>(n), 0);
  std::uint64_t x = 0x2545f4914f6cdd1dull;  // xorshift traffic stream
  const auto next = [&x](std::uint64_t bound) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x % bound;
  };
  std::uint64_t events = 0;
  for (std::uint64_t m = 1; m <= messages; ++m) {
    const auto src = static_cast<int>(next(n));
    const auto dst = static_cast<int>((static_cast<std::uint64_t>(src) + 1 + next(n - 1)) % n);
    Rank& s = *ranks[static_cast<std::size_t>(src)];
    Rank& d = *ranks[static_cast<std::size_t>(dst)];
    mpiv::util::Buffer buf;
    mpiv::causal::Strategy::DepShadow deps;
    events += s.strat.build(dst, buf, deps).events;
    d.strat.absorb(src, buf, deps);
    mpiv::ftapi::Determinant det = make_det(static_cast<std::uint32_t>(dst), ++d.seq, n);
    det.src = static_cast<std::uint32_t>(src);
    det.dep_creator = det.src;
    det.dep_seq = d.store.known(det.src);
    d.store.add(det);
    d.strat.on_local_event(det);
    if (m % static_cast<std::uint64_t>(n) == 0) {
      for (int c = 0; c < n; ++c) {
        const std::uint64_t seq = ranks[static_cast<std::size_t>(c)]->seq;
        stable[static_cast<std::size_t>(c)] = seq > lag ? seq - lag : 0;
      }
      for (auto& r : ranks) {
        r->store.set_stable(stable);
        r->strat.on_stable(stable);
      }
    }
  }
  g_sink += events;
  return events;
}

// End-to-end: a causal cluster running wildcard traffic — every layer of
// the stack (engine, network, daemon, matching, strategy, EL) at once,
// driven through the scenario API like every other experiment.
std::uint64_t bench_cluster(int iterations) {
  const mpiv::scenario::RunResult r = mpiv::scenario::run_spec(
      mpiv::scenario::ScenarioBuilder("hotpath_e2e")
          .variant("logon:el")
          .nranks(8)
          .seed(11)
          .random_any(iterations, 11, 1024)
          .build());
  MPIV_CHECK(r.completed, "cluster bench did not complete");
  g_sink += r.checksums[0];
  return r.events_executed;
}

std::uint64_t peak_rss_kb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }
  const std::uint64_t scale = quick ? 1 : 4;

  std::printf("bench_micro_hotpath (%s)\n", quick ? "quick" : "full");
  run_duel(
      "event_store", "event_store",
      [&] { return bench_event_store<mpiv::causal::EventStore>(200000 * scale); },
      "event_store_reference", [&] {
        return bench_event_store<mpiv::causal::ColumnarStore>(200000 * scale);
      });
  run_bench("graph_reach", [&] { return bench_graph_reach(20000 * scale); });
  run_bench("graph_full", [&] { return bench_graph_full(300 * scale); });
  run_bench("sender_log", [&] { return bench_sender_log(30000 * scale); });
  run_bench("engine_resume", [&] { return bench_engine_resume(400000 * scale); });
  run_bench("engine_callbacks",
            [&] { return bench_engine_callbacks(400000 * scale); });
  run_duel(
      "queue", "queue_calendar",
      [&] { return bench_queue_calendar(1000000 * scale); },
      "queue_binary_heap", [&] { return bench_queue_binary_heap(1000000 * scale); });
  run_duel(
      "vcausal_exchange", "vcausal_exchange",
      [&] {
        return bench_exchange<mpiv::causal::VcausalStrategy>(4000 * scale, 96);
      },
      "vcausal_exchange_reference", [&] {
        return bench_exchange<
            mpiv::causal::Reference<mpiv::causal::VcausalStrategy>>(4000 * scale, 96);
      });
  run_duel(
      "logon_exchange", "logon_exchange",
      [&] {
        return bench_exchange<mpiv::causal::LogOnStrategy>(8000 * scale, 16);
      },
      "logon_exchange_reference", [&] {
        return bench_exchange<mpiv::causal::ReferenceLogOn>(8000 * scale, 16);
      });
  run_bench("cluster_e2e",
            [&] { return bench_cluster(static_cast<int>(30 * scale)); });

  double total_ms = 0;
  for (const BenchResult& r : g_results) total_ms += r.wall_ms;
  const auto wall = [](const char* name) {
    for (const BenchResult& r : g_results) {
      if (r.name == name) return r.wall_ms;
    }
    return 0.0;
  };
  for (const Duel& d : g_duels) {
    const std::string label = std::string("DUEL ") + d.label;
    std::printf("%-28s %10.2fx  (%s / %s)\n", label.c_str(),
                wall(d.ref) / wall(d.fast), d.ref, d.fast);
  }
  const std::uint64_t rss = peak_rss_kb();
  std::printf("%-28s %10.1f ms  peak RSS %llu kB  (sink %llx)\n", "TOTAL",
              total_ms, static_cast<unsigned long long>(rss),
              static_cast<unsigned long long>(g_sink));

  if (json_path) {
    FILE* f = std::fopen(json_path, "w");
    MPIV_CHECK(f != nullptr, "cannot write %s", json_path);
    std::fprintf(f, "{\n  \"mode\": \"%s\",\n  \"peak_rss_kb\": %llu,\n",
                 quick ? "quick" : "full",
                 static_cast<unsigned long long>(rss));
    std::fprintf(f, "  \"total_wall_ms\": %.1f,\n  \"benches\": [\n", total_ms);
    for (std::size_t i = 0; i < g_results.size(); ++i) {
      const BenchResult& r = g_results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"wall_ms\": %.1f, \"items\": %llu, "
                   "\"items_per_sec\": %.0f}%s\n",
                   r.name.c_str(), r.wall_ms,
                   static_cast<unsigned long long>(r.items), r.items_per_sec(),
                   i + 1 < g_results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
