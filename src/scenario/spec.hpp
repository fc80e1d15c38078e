// Declarative experiment specs (the paper's comparison matrix as data).
//
// A ScenarioSpec names everything one experiment varies — protocol variant,
// EL topology, cost model, checkpoint policy, fault plan, workload, sweep
// axes — in registry-resolved strings, so a scenario is equally expressible
// as fluent C++ (ScenarioBuilder), a text file (parse_scenario_file, the
// `mpiv_run` driver), or a sweep axis value. runtime::ClusterConfig remains
// the *lowered* form: scenario::lower() maps a validated spec onto it
// field-for-field, so a spec-driven run is byte-identical to a hand-built
// ClusterConfig run (tests/test_determinism.cpp pins this).
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/scheduler.hpp"
#include "fault/campaign.hpp"
#include "runtime/cluster.hpp"
#include "workloads/nas.hpp"

namespace mpiv::scenario {

/// Recoverable configuration error: unknown names, out-of-range values,
/// malformed scenario files. (MPIV_CHECK aborts; spec validation must be
/// reportable to the user instead.)
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One protocol variant of the evaluation, lowered from a name such as
/// "p4", "vdummy", "pessimistic", "coordinated", "vcausal:el",
/// "manetho:noel". Causal strategies default to ":el" when unsuffixed.
struct VariantSpec {
  std::string name = "vdummy";  // canonical registry name
  std::string label = "MPICH-Vdummy";
  runtime::ProtocolKind protocol = runtime::ProtocolKind::kVdummy;
  causal::StrategyKind strategy = causal::StrategyKind::kVcausal;
  bool event_logger = true;
};

/// Registry-resolved workload plus its string-typed parameters (exact for
/// the integral knobs every bundled workload uses).
struct WorkloadSpec {
  std::string name = "ring";
  std::map<std::string, std::string> params;

  bool has(const std::string& key) const { return params.count(key) != 0; }
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::string get_str(const std::string& key, const std::string& fallback) const;
};

/// When and whom to crash. `midrun_rank >= 0` is the paper's "middle of
/// correct execution" protocol: the runner first executes a fault-free
/// reference, then reruns with a crash of that rank at
/// `midrun_frac * reference completion time`. `campaign` is the fault
/// engine's declarative chaos surface (EL-shard crashes, server outages,
/// link perturbations, event-triggered kills — the `[faults]` section of
/// scenario files).
struct FaultPlan {
  std::vector<runtime::FaultSpec> faults;
  double faults_per_minute = 0.0;
  int midrun_rank = -1;
  double midrun_frac = 0.5;
  fault::Campaign campaign;

  bool any() const {
    return !faults.empty() || faults_per_minute > 0 || midrun_rank >= 0 ||
           !campaign.empty();
  }
  /// The plan as the one campaign the fault engine runs: each timed crash
  /// a kAt rank injection ahead of the campaign's own injections, and
  /// `faults_per_minute` one random-rank Poisson stream appended last. The
  /// engine arms injections in this order, so it fixes the run's event
  /// sequence and RNG draws. The runner lowers the mid-run crash into
  /// `faults` once the reference pass has timed it.
  fault::Campaign lowered() const;
};

/// The full declarative experiment description. Field defaults mirror
/// runtime::ClusterConfig so an empty spec lowers to the seed defaults.
struct ScenarioSpec {
  std::string name = "unnamed";
  std::string notes;

  VariantSpec variant;
  int nranks = 4;
  bool el_shards_set = false;  // true once el_shards was explicitly chosen
  int el_shards = 1;
  int el_standby = 0;  // cold standby EL shard nodes (failover targets)
  std::uint64_t seed = 1;
  net::CostModel cost{};

  ckpt::Policy ckpt_policy = ckpt::Policy::kNone;
  sim::Time ckpt_interval = 0;

  FaultPlan faults;
  sim::Time detection_delay = 250 * sim::kMillisecond;
  sim::Time max_sim_time = 4L * 3600 * sim::kSecond;

  /// Replica hybrid: application sends between shadow sync frames
  /// (`replica.sync_interval`; <= 1 syncs on every send).
  int replica_sync_interval = 8;
  /// ULFM shrink-and-repair: agreement + communicator-rebuild window
  /// between revoke and the survivors' relaunch (`ulfm.repair_cost`).
  sim::Time ulfm_repair_cost = 10 * sim::kMillisecond;
  /// Causal variant knob (`payload_at_sender`): retain logged payloads in
  /// sender application memory instead of copying into the daemon.
  bool payload_at_sender = false;

  /// Run a fault-free reference pass even without a midrun fault, so
  /// `recovered_exact` is computed for ANY faulty run (the chaos-soak
  /// outcome classifier). The reference strips rank crashes but keeps the
  /// campaign's environment faults, exactly like the midrun protocol.
  bool compare_reference = false;

  /// Per-rank trace lanes (`[trace]` section / `trace.*` keys). When a
  /// reference pass runs, it inherits the same trace config so the two
  /// streams can be aligned by mpiv_trace.
  trace::Config trace{};
  /// Directory for trace stream files ("" = keep in memory / JSON only).
  std::string trace_dir;

  /// Aggregate metrics + virtual-time gauge sampler (`[metrics]` section /
  /// `metrics.*` keys). Off by default; schedule-neutral when on.
  metrics::Config metrics{};
  /// Directory for per-run time-series CSV files ("" = JSON summary only).
  std::string metrics_dir;

  /// Sweep-point fan-out (`runner.parallelism`): how many forked workers
  /// run() may spread the expanded grid across. 1 = in-process serial
  /// execution; mpiv_run --jobs overrides it. The report is byte-identical
  /// either way — workers ship back prerendered results reassembled in
  /// sweep order.
  int runner_parallelism = 1;

  WorkloadSpec workload;

  /// Cartesian sweep axes in declaration order: each key is any scalar
  /// spec key ("variant", "nranks", "el_shards", "workload.kernel", ...).
  std::vector<std::pair<std::string, std::vector<std::string>>> sweep;

  /// Overrides applied in quick mode (mpiv_run --quick / CI smoke). A key
  /// that names a sweep axis replaces that axis.
  std::vector<std::pair<std::string, std::string>> quick;
};

/// Resolves a variant name through the protocol/strategy registries.
/// Throws SpecError for unknown names, listing what is registered.
VariantSpec parse_variant(const std::string& name);

/// Applies one textual `key = value` setting to the spec — the single
/// mutation path shared by the file parser, sweep expansion and quick
/// overlays. Throws SpecError on unknown keys or unparsable values.
void apply_key(ScenarioSpec& spec, const std::string& key,
               const std::string& value);

/// Removes the campaign injections a `faults.*` injection key previously
/// produced (no-op for other keys). Sweep axes and quick overlays call this
/// before re-applying, so a swept injection key REPLACES the base
/// `[faults]` line of the same kind — matching every other axis's override
/// semantics — while repeated lines within a `[faults]` section still
/// accumulate.
void strip_fault_key(ScenarioSpec& spec, const std::string& key);

/// Splits a comma-separated value list, trimming each element (the sweep-
/// axis and quick-overlay tokenizer).
std::vector<std::string> split_list(const std::string& csv);

/// One `faults.*` scenario key: name, value syntax, an example value the
/// parser accepts, and a one-line summary. The table below is the single
/// source of truth the parser, `mpiv_run --list` and the docs check share —
/// a key can be parsed only if it is listed here, and scripts/check_docs.sh
/// fails when a listed key is missing from docs/SCENARIOS.md.
struct FaultKeyInfo {
  const char* key;
  const char* syntax;
  const char* example;
  const char* summary;
};
const std::vector<FaultKeyInfo>& fault_key_table();

/// Parses the `mpiv_run` scenario text format (INI-style sections
/// [scenario] / [cost] / [sweep] / [quick], '#' comments). Throws
/// SpecError with file:line context on malformed input.
ScenarioSpec parse_scenario_text(const std::string& text,
                                 const std::string& origin = "<string>");
ScenarioSpec parse_scenario_file(const std::string& path);

/// Serializes a spec back to scenario-file text (parse round-trip).
std::string to_scenario_text(const ScenarioSpec& spec);

/// Validates a fully-resolved spec (no sweep axes considered). Throws
/// SpecError naming the scenario and the offending field.
void validate(const ScenarioSpec& spec);

/// Fluent, validating construction — the C++ face of the scenario API.
/// Every setter returns *this; build() validates and throws SpecError.
class ScenarioBuilder {
 public:
  explicit ScenarioBuilder(std::string name = "unnamed") {
    spec_.name = std::move(name);
  }

  ScenarioBuilder& notes(std::string n) { spec_.notes = std::move(n); return *this; }
  /// Compound variant name ("vcausal:el", "p4", ...).
  ScenarioBuilder& variant(const std::string& v) {
    spec_.variant = parse_variant(v);
    return *this;
  }
  ScenarioBuilder& nranks(int n) { spec_.nranks = n; return *this; }
  ScenarioBuilder& el_shards(int n) {
    spec_.el_shards = n;
    spec_.el_shards_set = true;
    return *this;
  }
  ScenarioBuilder& seed(std::uint64_t s) { spec_.seed = s; return *this; }
  ScenarioBuilder& cost(const net::CostModel& c) { spec_.cost = c; return *this; }
  ScenarioBuilder& checkpoint(ckpt::Policy policy, sim::Time interval) {
    spec_.ckpt_policy = policy;
    spec_.ckpt_interval = interval;
    return *this;
  }
  ScenarioBuilder& fault_at(sim::Time at, int rank) {
    spec_.faults.faults.push_back(runtime::FaultSpec{at, rank});
    return *this;
  }
  ScenarioBuilder& fault_rate(double per_minute) {
    spec_.faults.faults_per_minute = per_minute;
    return *this;
  }
  ScenarioBuilder& midrun_fault(int rank, double frac = 0.5) {
    spec_.faults.midrun_rank = rank;
    spec_.faults.midrun_frac = frac;
    return *this;
  }

  // --- fault-engine campaign (chaos) surface -------------------------------
  /// Raw injection escape hatch; the named conveniences below cover the
  /// bundled experiments.
  ScenarioBuilder& inject(const fault::Injection& inj) {
    spec_.faults.campaign.injections.push_back(inj);
    return *this;
  }
  /// Kills rank `rank`'s communication daemon at `at`; the dispatcher
  /// respawns it `downtime` later (0 = the campaign's daemon_restart_delay).
  /// The app rank survives, stalled, with its volatile state intact.
  ScenarioBuilder& crash_daemon_at(sim::Time at, int rank,
                                   sim::Time downtime = 0) {
    fault::Injection inj;
    inj.target = fault::Target::kDaemon;
    inj.index = rank;
    inj.at = at;
    inj.duration = downtime;
    return inject(inj);
  }
  /// Seeded Poisson daemon-crash process over random live ranks. Rate 0 =
  /// stream off, mirroring the `faults.daemon_rate` scenario key (so the
  /// fault-free sweep corner is expressible from C++ too).
  ScenarioBuilder& daemon_rate(double per_minute) {
    if (per_minute <= 0) return *this;
    fault::Injection inj;
    inj.target = fault::Target::kDaemon;
    inj.index = -1;
    inj.trigger = fault::Trigger::kRate;
    inj.rate_per_minute = per_minute;
    return inject(inj);
  }
  /// Detection + respawn + reconnect delay for daemon crashes.
  ScenarioBuilder& daemon_restart_delay(sim::Time t) {
    spec_.faults.campaign.daemon_restart_delay = t;
    return *this;
  }
  /// Partial partition: ranks in `a` and ranks in `b` mutually unreachable
  /// from `at` for `duration`; held frames re-deliver `backoff` after heal.
  ScenarioBuilder& partition(sim::Time at, std::vector<int> a,
                             std::vector<int> b, sim::Time duration,
                             sim::Time backoff = 2 * sim::kMillisecond) {
    fault::Injection inj;
    inj.target = fault::Target::kFabric;
    inj.action = fault::Action::kPartition;
    inj.at = at;
    inj.duration = duration;
    inj.magnitude = backoff;
    inj.group_a = std::move(a);
    inj.group_b = std::move(b);
    return inject(inj);
  }
  /// Service-side partition: like partition(), but each side additionally
  /// names service endpoints — EL shard ids in `sa` / `sb`, or
  /// fault::kCkptService for the checkpoint server. Cutting a serving EL
  /// shard from its clients arms suspicion and split-brain reconciliation.
  ScenarioBuilder& partition_services(sim::Time at, std::vector<int> a,
                                      std::vector<int> b, std::vector<int> sa,
                                      std::vector<int> sb, sim::Time duration,
                                      sim::Time backoff = 2 *
                                                          sim::kMillisecond) {
    fault::Injection inj;
    inj.target = fault::Target::kFabric;
    inj.action = fault::Action::kPartition;
    inj.at = at;
    inj.duration = duration;
    inj.magnitude = backoff;
    inj.group_a = std::move(a);
    inj.group_b = std::move(b);
    inj.services_a = std::move(sa);
    inj.services_b = std::move(sb);
    return inject(inj);
  }
  /// Campaign-level suspicion window for service cuts (-1 inherits the
  /// cluster detection_delay).
  ScenarioBuilder& fault_detection_delay(sim::Time t) {
    spec_.faults.campaign.detection_delay = t;
    return *this;
  }
  /// Kills `rank` when it commits its `nth` checkpoint.
  ScenarioBuilder& crash_rank_on_ckpt(int rank, std::uint64_t nth) {
    fault::Injection inj;
    inj.target = fault::Target::kRank;
    inj.index = rank;
    inj.trigger = fault::Trigger::kOnCheckpoint;
    inj.nth = nth;
    return inject(inj);
  }
  /// Permanently crashes EL shard `shard` at `at` (failover follows).
  ScenarioBuilder& crash_el_at(sim::Time at, int shard) {
    fault::Injection inj;
    inj.target = fault::Target::kElShard;
    inj.index = shard;
    inj.at = at;
    return inject(inj);
  }
  /// Crashes EL shard `shard` once it has stored `nth` determinants.
  ScenarioBuilder& crash_el_on_stored(int shard, std::uint64_t nth) {
    fault::Injection inj;
    inj.target = fault::Target::kElShard;
    inj.index = shard;
    inj.trigger = fault::Trigger::kOnElStored;
    inj.nth = nth;
    return inject(inj);
  }
  /// Transient EL service outage: down at `at`, back `duration` later with
  /// its persistent log intact.
  ScenarioBuilder& el_outage(sim::Time at, int shard, sim::Time duration) {
    fault::Injection inj;
    inj.target = fault::Target::kElShard;
    inj.index = shard;
    inj.at = at;
    inj.action = fault::Action::kOutage;
    inj.duration = duration;
    return inject(inj);
  }
  /// Checkpoint-server service outage (images persist; clients retransmit).
  ScenarioBuilder& ckpt_outage(sim::Time at, sim::Time duration) {
    fault::Injection inj;
    inj.target = fault::Target::kCkptServer;
    inj.at = at;
    inj.action = fault::Action::kOutage;
    inj.duration = duration;
    return inject(inj);
  }
  /// +`extra` latency on rank `rank`'s link for `duration`.
  ScenarioBuilder& link_latency(sim::Time at, int rank, sim::Time extra,
                                sim::Time duration) {
    fault::Injection inj;
    inj.target = fault::Target::kLink;
    inj.index = rank;
    inj.at = at;
    inj.action = fault::Action::kLatencySpike;
    inj.magnitude = extra;
    inj.duration = duration;
    return inject(inj);
  }
  /// Frames toward rank `rank` held for `duration`, retransmitted after
  /// `backoff`.
  ScenarioBuilder& link_drop(sim::Time at, int rank, sim::Time duration,
                             sim::Time backoff = 5 * sim::kMillisecond) {
    fault::Injection inj;
    inj.target = fault::Target::kLink;
    inj.index = rank;
    inj.at = at;
    inj.action = fault::Action::kDropWindow;
    inj.magnitude = backoff;
    inj.duration = duration;
    return inject(inj);
  }
  ScenarioBuilder& el_failover(fault::ElFailover mode, sim::Time delay) {
    spec_.faults.campaign.el_failover = mode;
    spec_.faults.campaign.el_failover_delay = delay;
    return *this;
  }
  ScenarioBuilder& el_standby(int n) {
    spec_.el_standby = n;
    return *this;
  }
  ScenarioBuilder& detection_delay(sim::Time t) { spec_.detection_delay = t; return *this; }
  ScenarioBuilder& max_sim_time(sim::Time t) { spec_.max_sim_time = t; return *this; }
  /// Replica hybrid: sends between shadow sync frames (<= 1 = every send).
  ScenarioBuilder& replica_sync_interval(int sends) {
    spec_.replica_sync_interval = sends;
    return *this;
  }
  /// ULFM: priced agreement + communicator-rebuild window.
  ScenarioBuilder& ulfm_repair_cost(sim::Time t) {
    spec_.ulfm_repair_cost = t;
    return *this;
  }
  /// Causal: keep logged payloads in sender memory (skip the daemon copy).
  ScenarioBuilder& payload_at_sender(bool on = true) {
    spec_.payload_at_sender = on;
    return *this;
  }
  /// Always run the fault-free reference pass (recovered_exact on any
  /// faulty run — the chaos-soak outcome classifier).
  ScenarioBuilder& compare_reference(bool on = true) {
    spec_.compare_reference = on;
    return *this;
  }
  /// Fan the expanded sweep across N forked workers (1 = serial).
  ScenarioBuilder& runner_parallelism(int jobs) {
    spec_.runner_parallelism = jobs;
    return *this;
  }
  /// Per-rank trace lanes (merged stream in the report / trace_dir files).
  ScenarioBuilder& trace(bool on = true) {
    spec_.trace.enabled = on;
    return *this;
  }
  ScenarioBuilder& trace_capacity(std::uint32_t records_per_lane) {
    spec_.trace.capacity = records_per_lane;
    return *this;
  }
  ScenarioBuilder& trace_dir(std::string dir) {
    spec_.trace_dir = std::move(dir);
    return *this;
  }
  /// Aggregate metrics: histogram summaries in the report plus the
  /// virtual-time gauge series (CSV under metrics_dir when set).
  ScenarioBuilder& metrics(bool on = true) {
    spec_.metrics.enabled = on;
    return *this;
  }
  ScenarioBuilder& metrics_sample_interval(sim::Time interval) {
    spec_.metrics.sample_interval = interval;
    return *this;
  }
  ScenarioBuilder& metrics_dir(std::string dir) {
    spec_.metrics_dir = std::move(dir);
    return *this;
  }

  ScenarioBuilder& workload(const std::string& name) {
    spec_.workload.name = name;
    spec_.workload.params.clear();
    return *this;
  }
  ScenarioBuilder& wparam(const std::string& key, const std::string& value) {
    spec_.workload.params[key] = value;
    return *this;
  }
  ScenarioBuilder& wparam(const std::string& key, std::uint64_t value) {
    return wparam(key, std::to_string(value));
  }
  ScenarioBuilder& wparam(const std::string& key, int value) {
    return wparam(key, std::to_string(value));
  }
  ScenarioBuilder& wparam(const std::string& key, double value);

  // Bundled-workload conveniences.
  ScenarioBuilder& ring(int laps, std::uint64_t token_bytes);
  ScenarioBuilder& random_any(int iterations, std::uint64_t wseed,
                              std::uint64_t bytes);
  ScenarioBuilder& random_then_ring(int rand_iters, int ring_laps,
                                    std::uint64_t wseed, std::uint64_t bytes);
  ScenarioBuilder& pingpong(const std::vector<std::uint64_t>& sizes, int reps);
  ScenarioBuilder& nas(workloads::NasKernel kernel, workloads::NasClass klass,
                       double scale);

  /// Adds a cartesian sweep axis (expanded by scenario::expand / run).
  ScenarioBuilder& sweep(const std::string& key,
                         const std::vector<std::string>& values) {
    spec_.sweep.emplace_back(key, values);
    return *this;
  }
  /// Generic textual setting — same key space as scenario files.
  ScenarioBuilder& set(const std::string& key, const std::string& value) {
    apply_key(spec_, key, value);
    return *this;
  }

  /// Validates and returns the finished spec. Throws SpecError.
  ScenarioSpec build() const {
    validate(spec_);
    return spec_;
  }

 private:
  ScenarioSpec spec_;
};

}  // namespace mpiv::scenario
