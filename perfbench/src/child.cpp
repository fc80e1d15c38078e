// One workload run inside a child process, through the library's public
// API only: scenario::parse_scenario_text / expand / lower, the workload
// registry, runtime::Cluster and scenario::to_json.
//
// The child prints `key value` lines on stdout for the parent to gate and
// aggregate:
//   completed, outcome, checksums, reference_checksums
//   run_s, setup_s, setup_samples, events
//   count.<name>   exact per-layer counts from the ClusterReport
//   trace.<name>   traced run only: span totals, engine slices, probes
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace perfbench {

namespace {

namespace scenario = mpiv::scenario;
namespace runtime = mpiv::runtime;
namespace sim = mpiv::sim;
using Clock = std::chrono::steady_clock;

/// Set-up repetitions per timed child; setup_s is their median.
constexpr int kSetupRepeats = 15;
/// Virtual length of one engine sampler slice in the traced run.
constexpr sim::Time kSlice = sim::kMillisecond;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Spans of the traced run: kept in memory, written once at exit.
class SpanLog {
 public:
  explicit SpanLog(std::string run_id)
      : run_id_(std::move(run_id)), origin_(Clock::now()) {}

  int open(const char* name, int parent) {
    spans_.push_back({name, Clock::now(), Clock::now(), parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = Clock::now(); }

  /// Summed duration of every span called `name`.
  double total_s(const std::string& name) const {
    double s = 0;
    for (const Record& r : spans_) {
      if (name == r.name) s += secs(r.start, r.end);
    }
    return s;
  }

  /// One JSON object per line: run, id, name, parent, start_s, end_s.
  void write(const std::string& path) const {
    std::ofstream f(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      char line[512];
      std::snprintf(line, sizeof line,
                    "{\"run\": \"%s\", \"id\": %zu, \"name\": \"%s\", "
                    "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f}\n",
                    run_id_.c_str(), i, r.name, r.parent,
                    secs(origin_, r.start), secs(origin_, r.end));
      f << line;
    }
  }

 private:
  struct Record {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
  };
  std::string run_id_;
  Clock::time_point origin_;
  std::vector<Record> spans_;
};

/// Scoped span; a null log (the untraced run) records nothing.
class Span {
 public:
  Span(SpanLog* log, const char* name, int parent)
      : log_(log), id_(log ? log->open(name, parent) : -1) {}
  ~Span() {
    if (log_) log_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Host time per virtual slice, through the engine's schedule-neutral
/// observation side-channel (Engine::set_sampler).
class SliceSampler {
 public:
  SliceSampler() = default;
  SliceSampler(const SliceSampler&) = delete;
  SliceSampler& operator=(const SliceSampler&) = delete;

  void arm(sim::Engine& eng) {
    eng_ = &eng;
    last_t_ = Clock::now();
    last_events_ = eng.events_executed();
    eng.set_sampler(kSlice, eng.now() + kSlice, [this](sim::Time) { tick(); });
  }
  void disarm() {
    if (eng_) eng_->set_sampler(0, 0, nullptr);
    eng_ = nullptr;
  }

  std::vector<double>& ns_per_event() { return ns_per_event_; }
  std::uint64_t queue_peak() const { return queue_peak_; }

 private:
  void tick() {
    const Clock::time_point now = Clock::now();
    const std::uint64_t events = eng_->events_executed();
    if (events > last_events_) {
      ns_per_event_.push_back(
          std::chrono::duration<double, std::nano>(now - last_t_).count() /
          static_cast<double>(events - last_events_));
    }
    last_t_ = now;
    last_events_ = events;
    queue_peak_ = std::max<std::uint64_t>(queue_peak_, eng_->queue_size());
  }

  sim::Engine* eng_ = nullptr;
  Clock::time_point last_t_{};
  std::uint64_t last_events_ = 0;
  std::vector<double> ns_per_event_;
  std::uint64_t queue_peak_ = 0;
};

struct CrashPick {
  int rank;
  double frac;
};

/// The recovery workload's crash: rank and completion fraction from the
/// seed (fractions 0.40 .. 0.60 around the paper's mid-run point).
CrashPick crash_pick(std::uint64_t seed, int nranks) {
  const std::uint64_t h = mpiv::workloads::mix64(seed + 0x5eedULL);
  return {static_cast<int>(h % static_cast<std::uint64_t>(nranks)),
          0.40 + 0.05 * static_cast<double>((h >> 32) % 5)};
}

/// The workload as scenario-file text; `twin` gives its p4 counterpart.
std::string scenario_text(const Options& o, bool twin) {
  const bool scale = o.workload == "vcausal_scale96";
  const int nranks = o.toy ? 8 : scale ? 96 : 16;
  std::ostringstream s;
  s << "[scenario]\nname = " << o.workload << (twin ? "_p4_twin" : "")
    << "\nseed = " << o.seed << "\nnranks = " << nranks << "\n";
  if (scale) {
    s << "variant = vcausal:el\nel_shards = 1\nworkload = random_any\n"
      << "workload.iters = " << (o.toy ? 12 : 48) << "\n"
      << "workload.seed = " << o.seed << "\nworkload.bytes = 4096\n";
    return s.str();
  }
  s << "nas = lu:A:" << (o.toy ? "0.05" : "0.5") << "\n";
  if (twin) {
    s << "variant = p4\n";
  } else if (o.workload == "lu16_logon") {
    s << "variant = logon:el\n";
  } else {
    const CrashPick c = crash_pick(o.seed, nranks);
    s << "variant = pessimistic\nckpt_policy = round-robin\n"
      << "ckpt_interval = 5s\nmidrun_fault_rank = " << c.rank
      << "\nmidrun_fault_frac = " << c.frac << "\n";
  }
  return s.str();
}

/// One cluster execution: its spec, workload instance and cluster.
struct Pass {
  scenario::ScenarioSpec spec;
  scenario::WorkloadInstance wl;
  std::unique_ptr<runtime::Cluster> cluster;
  runtime::ClusterReport report;
};

struct WorkloadRun {
  std::vector<double> setup_samples;
  double run_s = 0;
  std::uint64_t events = 0;  // every pass
  scenario::RunResult result;
  std::vector<std::pair<std::string, double>> counts;
  std::string report_json;
};

/// Workload make + Cluster construction for a lowered, validated spec.
void construct(Pass& p, SpanLog* log, int parent) {
  runtime::ClusterConfig cfg;
  {
    const Span s(log, "scenario.lower", parent);
    cfg = scenario::lower(p.spec);
    p.wl = scenario::workload_registry().at(p.spec.workload.name).make(p.spec);
  }
  const Span s(log, "runtime.construct", parent);
  p.cluster = std::make_unique<runtime::Cluster>(cfg);
}

void run_pass(Pass& p, SpanLog* log, int parent, SliceSampler* sampler,
              WorkloadRun& out) {
  sim::Engine& eng = p.cluster->engine();
  if (sampler) sampler->arm(eng);
  const std::uint64_t before = eng.events_executed();
  const Clock::time_point t0 = Clock::now();
  {
    const Span s(log, "runtime.run", parent);
    p.report = p.cluster->run(p.wl.app);
  }
  out.run_s += secs(t0, Clock::now());

  if (sampler) sampler->disarm();
  out.events += eng.events_executed() - before;
}

/// The exact per-layer counts: deterministic, so they must repeat bit for
/// bit across runs and between the traced and untraced passes.
std::vector<std::pair<std::string, double>> exact_counts(
    Pass& measured, const scenario::RunResult& r, std::uint64_t events) {
  const runtime::ClusterReport& rep = r.report;
  const mpiv::ftapi::RankStats t = rep.totals();
  double image_ms = 0;
  double collect_ms = 0;
  double replay_ms = 0;
  double replay_events = 0;
  for (const mpiv::fault::RecoveryRecord& rec : rep.recoveries) {
    if (!rec.complete()) continue;
    image_ms += sim::to_ms(rec.image_ns());
    collect_ms += sim::to_ms(rec.collect_ns());
    replay_ms += sim::to_ms(rec.replay_ns());
    replay_events += static_cast<double>(rec.replay_events);
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"sim.events", d(events)},
      {"sim.makespan_s", sim::to_sec(rep.completion_time)},
      {"net.wire_bytes", d(r.wire_bytes)},
      {"net.app_msgs", d(t.app_msgs_sent)},
      {"mpi.replayed_receptions", d(t.replayed_receptions)},
      {"causal.pb_events", d(t.pb_events_sent)},
      {"causal.pb_bytes", d(t.pb_bytes_sent)},
      {"causal.pb_pct", rep.piggyback_pct()},
      {"causal.pb_peak_msg_events", d(t.pb_peak_msg_events)},
      {"causal.send_cpu_sim_s", sim::to_sec(t.pb_send_cpu)},
      {"causal.recv_cpu_sim_s", sim::to_sec(t.pb_recv_cpu)},
      {"causal.event_store_peak", d(t.event_store_peak)},
      {"causal.graph_peak_nodes", d(t.graph_peak_nodes)},
      {"causal.sender_log_peak_bytes", d(t.sender_log_peak_bytes)},
      {"elog.events_stored", d(rep.el_stats.events_stored)},
      {"elog.acks_sent", d(rep.el_stats.acks_sent)},
      {"elog.peak_queue", d(rep.el_stats.peak_queue)},
      {"elog.ack_p50_us", t.el_ack_latency_us.p50()},
      {"elog.ack_p99_us", t.el_ack_latency_us.p99()},
      {"ckpt.images", d(measured.cluster->checkpoint_server().stores_completed())},
      {"fault.recoveries", d(rep.recoveries.size())},
      {"fault.image_ms", image_ms},
      {"fault.collect_ms", collect_ms},
      {"fault.replay_ms", replay_ms},
      {"fault.replay_events", replay_events},
      {"workloads.mops", r.mops()},
  };
}

/// Runs the workload: `setup_repeats` full set-ups (the last one is kept),
/// the run, and — for the recovery workload — the paper's mid-run protocol:
/// a rank-fault-free reference pass, then a crash pass at `frac` of the
/// reference completion time, verified against the reference checksums.
WorkloadRun run_workload(const Options& o, int setup_repeats, SpanLog* log,
                         SliceSampler* sampler) {
  WorkloadRun out;
  const std::string text = scenario_text(o, false);
  const Span root(log, "workload", -1);
  Pass first;
  int crash_rank = -1;
  double crash_frac = 0;
  for (int k = 0; k < setup_repeats; ++k) {
    first = Pass{};
    const Clock::time_point t0 = Clock::now();
    scenario::ScenarioSpec spec;
    {
      const Span s(log, "scenario.parse", root.id());
      spec = scenario::parse_scenario_text(text, o.workload + ".scn");
    }
    {
      const Span s(log, "scenario.lower", root.id());
      std::vector<scenario::RunPoint> points = scenario::expand(spec);
      if (points.size() != 1 || points[0].skipped) {
        throw std::runtime_error("workload does not expand to one runnable point");
      }
      first.spec = std::move(points[0].spec);
    }
    crash_rank = first.spec.faults.midrun_rank;
    crash_frac = first.spec.faults.midrun_frac;
    first.spec.faults.midrun_rank = -1;  // the reference pass
    construct(first, log, root.id());
    out.setup_samples.push_back(secs(t0, Clock::now()));
  }
  run_pass(first, log, root.id(), sampler, out);

  Pass second;
  Pass* measured = &first;
  if (crash_rank >= 0 && first.report.completed) {
    // Like the scenario runner, drop the reference cluster before the
    // crash pass; its report and checksums are all that is kept.
    first.cluster.reset();
    std::vector<double> samples;
    for (int k = 0; k < setup_repeats; ++k) {
      second = Pass{};
      const Clock::time_point t0 = Clock::now();
      second.spec = first.spec;
      second.spec.faults.faults.push_back(runtime::FaultSpec{
          static_cast<sim::Time>(static_cast<double>(first.report.completion_time) *
                                 crash_frac),
          crash_rank});
      construct(second, log, root.id());
      samples.push_back(secs(t0, Clock::now()));
    }
    const double extra = percentile(samples, 50);
    for (double& s : out.setup_samples) s += extra;
    run_pass(second, log, root.id(), sampler, out);
    measured = &second;
  }

  scenario::RunResult& r = out.result;
  r.label = o.workload;
  r.completed = measured->report.completed;
  r.protocol_label = measured->cluster->protocol_label();
  r.report = measured->report;
  r.events_executed = measured->cluster->engine().events_executed();
  r.wire_bytes = measured->cluster->network().bytes_sent();
  r.checksums = measured->wl.checksums->checksums;
  r.flops = measured->wl.flops;
  if (crash_rank >= 0) {
    r.has_reference = true;
    r.reference_time = first.report.completion_time;
    r.reference_checksums = first.wl.checksums->checksums;
    r.recovered_exact = measured != &first && r.completed &&
                        !r.checksums.empty() &&
                        r.checksums == r.reference_checksums;
  }
  out.counts = exact_counts(*measured, r, out.events);
  {
    const Span s(log, "scenario.report", root.id());
    scenario::RunSet set;
    set.scenario = o.workload;
    set.origin = o.workload + ".scn";
    set.runs.push_back(r);
    out.report_json = scenario::to_json(set);
  }
  return out;
}

std::string hex_list(const std::vector<std::uint64_t>& v) {
  std::string s;
  for (const std::uint64_t x : v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%s0x%016" PRIx64, s.empty() ? "" : ",", x);
    s += buf;
  }
  return s.empty() ? "-" : s;
}

void emit(const char* key, double v) { std::printf("%s %.17g\n", key, v); }
void emit(const std::string& key, double v) { emit(key.c_str(), v); }

void emit_run(const WorkloadRun& w) {
  const scenario::RunResult& r = w.result;
  std::printf("completed %d\n", r.completed ? 1 : 0);
  std::printf("outcome %s\n", scenario::outcome_name(r.outcome()));
  std::printf("checksums %s\n", hex_list(r.checksums).c_str());
  std::printf("reference_checksums %s\n", hex_list(r.reference_checksums).c_str());
  emit("run_s", w.run_s);
  std::vector<double> setups = w.setup_samples;
  emit("setup_s", percentile(setups, 50));
  emit("events", static_cast<double>(w.events));
  for (const auto& [name, value] : w.counts) emit("count." + name, value);
}

double count_of(const WorkloadRun& w, const std::string& name) {
  for (const auto& [n, v] : w.counts) {
    if (n == name) return v;
  }
  return 0;
}

int run_traced(const Options& o) {
  const std::string run_id =
      o.workload + "-seed" + std::to_string(o.seed) + (o.toy ? "-toy" : "");
  SpanLog log(run_id);
  SliceSampler sampler;
  const WorkloadRun w = run_workload(o, 1, &log, &sampler);
  emit_run(w);

  ProbeInputs in;
  in.nranks = w.result.report.rank_stats.empty()
                  ? 1
                  : static_cast<int>(w.result.report.rank_stats.size());
  const scenario::ScenarioSpec spec =
      scenario::parse_scenario_text(scenario_text(o, false));
  in.causal = spec.variant.protocol == runtime::ProtocolKind::kCausal;
  in.strategy = spec.variant.strategy;
  in.unstable = static_cast<std::uint64_t>(count_of(w, "causal.event_store_peak"));
  const double msgs = count_of(w, "net.app_msgs");
  in.mean_pb_events = static_cast<std::uint64_t>(
      msgs > 0 ? count_of(w, "causal.pb_events") / msgs + 0.5 : 0);
  in.queue_peak = sampler.queue_peak();
  in.seed = o.seed;
  ProbeResults p;
  {
    const Span s(&log, "probes", -1);
    p = run_probes(in);
  }

  for (const char* name : {"scenario.parse", "scenario.lower",
                           "runtime.construct", "runtime.run", "scenario.report"}) {
    emit(std::string("trace.") + name + "_s", log.total_s(name));
  }
  std::vector<double>& slices = sampler.ns_per_event();
  emit("trace.sim.slices", static_cast<double>(slices.size()));
  emit("trace.sim.host_ns_per_event.p50", percentile(slices, 50));
  emit("trace.sim.host_ns_per_event.p99", percentile(slices, 99));
  emit("trace.sim.queue_peak", static_cast<double>(sampler.queue_peak()));
  emit("trace.causal.build_us.p50", p.build_us_p50);
  emit("trace.causal.build_us.p99", p.build_us_p99);
  emit("trace.causal.absorb_us.p50", p.absorb_us_p50);
  emit("trace.causal.absorb_us.p99", p.absorb_us_p99);
  emit("trace.causal.probe_calls", static_cast<double>(p.calls));
  emit("trace.causal.wire.serialize_ns_per_event", p.serialize_ns_per_event);
  emit("trace.causal.wire.parse_ns_per_event", p.parse_ns_per_event);
  emit("trace.sim.dispatch_ns", p.dispatch_ns);

  // Spans and the run's report stay inside the build tree.
  const std::string out_dir = std::string(PERFBENCH_BUILD_DIR) + "/out";
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  log.write(out_dir + "/spans-" + run_id + ".jsonl");
  std::ofstream(out_dir + "/report-" + run_id + ".json", std::ios::trunc)
      << w.report_json;
  return 0;
}

}  // namespace

int run_child(const std::string& kind, const Options& o) {
  if (kind == "twin") {
    const scenario::RunResult r =
        scenario::run_spec(scenario::parse_scenario_text(scenario_text(o, true)));
    std::printf("completed %d\n", r.completed ? 1 : 0);
    std::printf("checksums %s\n", hex_list(r.checksums).c_str());
    return 0;
  }
  if (kind == "timed") {
    emit_run(run_workload(o, kSetupRepeats, nullptr, nullptr));
    return 0;
  }
  if (kind == "traced") return run_traced(o);
  std::fprintf(stderr, "perfbench: unknown child kind '%s'\n", kind.c_str());
  return 2;
}

}  // namespace perfbench
