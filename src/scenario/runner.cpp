#include "scenario/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "scenario/parallel.hpp"
#include "scenario/registry.hpp"

namespace mpiv::scenario {

namespace {

/// One cluster execution of a resolved, validated spec.
struct ClusterRun {
  runtime::ClusterReport report;
  std::uint64_t events_executed = 0;
  std::uint64_t wire_bytes = 0;
  std::vector<std::uint64_t> checksums;
  workloads::PingPongResult pingpong;
  double flops = 0;
  std::string protocol_label;
  std::string trace_dump;
};

ClusterRun run_cluster(const ScenarioSpec& spec) {
  const WorkloadEntry& entry = workload_registry().at(spec.workload.name);
  WorkloadInstance wl = entry.make(spec);
  ClusterRun out;
  runtime::Cluster cluster(lower(spec));
  out.protocol_label = cluster.protocol_label();
  out.report = cluster.run(wl.app);
  out.events_executed = cluster.engine().events_executed();
  out.wire_bytes = cluster.network().bytes_sent();
  if (wl.checksums) out.checksums = wl.checksums->checksums;
  if (wl.pingpong) out.pingpong = *wl.pingpong;
  out.flops = wl.flops;
  if (trace::TraceSink* sink = cluster.trace_sink()) {
    out.trace_dump = sink->dump();
  }
  return out;
}

/// Point labels double as trace file stems; anything outside the portable
/// filename alphabet collapses to '_'.
std::string sanitize_label(const std::string& label) {
  std::string s = label;
  for (char& ch : s) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '.' || ch == '-' ||
                    ch == '_';
    if (!ok) ch = '_';
  }
  return s;
}

/// Writes one trace stream under `dir`, returning the path ("" on failure —
/// a broken report path must not abort a finished run).
std::string write_trace_file(const std::string& dir, const std::string& stem,
                             const std::string& dump) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + stem + ".trace";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return "";
  f << dump;
  return f.good() ? path : "";
}

/// Same contract for the metrics time-series CSV.
std::string write_metrics_csv(const std::string& dir, const std::string& stem,
                              const std::string& csv) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + stem + ".csv";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return "";
  f << csv;
  return f.good() ? path : "";
}

}  // namespace

std::uint64_t RunResult::checksum_digest() const {
  std::uint64_t d = 0;
  for (const std::uint64_t c : checksums) d = workloads::word(d, c, 0x5eedULL);
  return d;
}

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kFailed: return "failed";
    case Outcome::kSkipped: return "skipped";
    case Outcome::kAbandoned: return "abandoned";
    case Outcome::kCompletedShrunk: return "completed_shrunk";
    case Outcome::kCompleted: return "completed";
    case Outcome::kRecoveredExact: return "recovered_exact";
  }
  return "?";
}

OutcomeCounts RunSet::tally() const {
  OutcomeCounts t;
  for (const RunResult& r : runs) {
    switch (r.outcome()) {
      case Outcome::kFailed: ++t.failed; break;
      case Outcome::kSkipped: ++t.skipped; break;
      case Outcome::kAbandoned: ++t.abandoned; break;
      case Outcome::kCompletedShrunk: ++t.completed_shrunk; break;
      case Outcome::kCompleted: ++t.completed; break;
      case Outcome::kRecoveredExact: ++t.recovered_exact; break;
    }
  }
  return t;
}

void apply_quick(ScenarioSpec& spec) {
  for (const auto& [key, value] : spec.quick) {
    auto axis = spec.sweep.begin();
    while (axis != spec.sweep.end() && axis->first != key) ++axis;
    if (axis != spec.sweep.end()) {
      axis->second = split_list(value);
      if (axis->second.empty()) {
        throw SpecError("scenario '" + spec.name + "': quick override for '" +
                        key + "' empties the sweep axis");
      }
    } else {
      strip_fault_key(spec, key);  // injection keys override, not append
      apply_key(spec, key, value);
    }
  }
  spec.quick.clear();
}

std::vector<RunPoint> expand(const ScenarioSpec& spec) {
  ScenarioSpec base = spec;
  const auto axes = base.sweep;
  base.sweep.clear();
  base.quick.clear();

  std::vector<RunPoint> points;
  // Odometer over the cartesian product, first axis slowest.
  std::vector<std::size_t> idx(axes.size(), 0);
  while (true) {
    RunPoint p;
    p.spec = base;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const std::string& value = axes[a].second[idx[a]];
      // A swept injection key replaces the base [faults] line of its kind —
      // the same override semantics every scalar axis has.
      strip_fault_key(p.spec, axes[a].first);
      apply_key(p.spec, axes[a].first, value);
      p.axes.emplace_back(axes[a].first, value);
    }
    try {
      validate(p.spec);
    } catch (const SpecError& e) {
      // An infeasible corner of a cross-product sweep (say, el_shards = 8
      // crossed with nranks = 4) is a skipped point like a workload/rank
      // mismatch — only a sweepless spec escalates to an error.
      if (axes.empty()) throw;
      p.skipped = true;
      p.skip_reason = e.what();
    }
    if (p.axes.empty()) {
      p.label = p.spec.name;
    } else {
      for (const auto& [axis, value] : p.axes) {
        if (!p.label.empty()) p.label += ", ";
        p.label += axis == "variant" ? p.spec.variant.label
                                     : axis + "=" + value;
      }
    }
    if (!p.skipped) {
      std::string why;
      const WorkloadEntry& wl = workload_registry().at(p.spec.workload.name);
      if (!wl.valid(p.spec, &why)) {
        p.skipped = true;
        p.skip_reason = why;
      }
    }
    points.push_back(std::move(p));

    std::size_t a = axes.size();
    while (a > 0) {
      --a;
      if (++idx[a] < axes[a].second.size()) break;
      idx[a] = 0;
      if (a == 0) return points;
    }
    if (axes.empty()) return points;
  }
}

runtime::ClusterConfig lower(const ScenarioSpec& spec) {
  runtime::ClusterConfig cfg;
  cfg.nranks = spec.nranks;
  cfg.protocol = spec.variant.protocol;
  cfg.strategy = spec.variant.strategy;
  cfg.event_logger = spec.variant.event_logger;
  cfg.el_shards = spec.el_shards;
  cfg.el_standby = spec.el_standby;
  cfg.cost = spec.cost;
  cfg.seed = spec.seed;
  cfg.ckpt_policy = spec.ckpt_policy;
  cfg.ckpt_interval = spec.ckpt_interval;
  cfg.faults = spec.faults.faults;
  cfg.faults_per_minute = spec.faults.faults_per_minute;
  cfg.campaign = spec.faults.campaign;
  cfg.detection_delay = spec.detection_delay;
  cfg.replica_sync_interval = spec.replica_sync_interval;
  cfg.ulfm_repair_cost = spec.ulfm_repair_cost;
  cfg.payload_at_sender = spec.payload_at_sender;
  cfg.trace = spec.trace;
  cfg.metrics = spec.metrics;
  cfg.max_sim_time = spec.max_sim_time;
  return cfg;
}

RunResult run_point(const RunPoint& point) {
  RunResult r;
  r.label = point.label;
  r.axes = point.axes;
  r.skipped = point.skipped;
  r.skip_reason = point.skip_reason;
  if (r.skipped) return r;

  // The single place a cluster execution's fields land in the result —
  // both the measured pass and the reference-doubles-as-measurement
  // shortcut go through it.
  const auto adopt = [&r](const ClusterRun& run) {
    r.completed = run.report.completed;
    r.protocol_label = run.protocol_label;
    r.report = run.report;
    r.events_executed = run.events_executed;
    r.wire_bytes = run.wire_bytes;
    r.checksums = run.checksums;
    r.pingpong = run.pingpong;
    r.flops = run.flops;
    r.trace_dump = run.trace_dump;
  };

  // Trace streams leave the process only when the spec names a directory;
  // both return paths below funnel through this.
  const auto persist_traces = [&r, &point] {
    if (point.spec.trace_dir.empty()) return;
    const std::string stem = sanitize_label(r.label);
    if (!r.trace_dump.empty()) {
      r.trace_path = write_trace_file(point.spec.trace_dir, stem, r.trace_dump);
    }
    if (!r.reference_trace_dump.empty()) {
      r.reference_trace_path = write_trace_file(
          point.spec.trace_dir, stem + ".reference", r.reference_trace_dump);
    }
  };

  // The measured run's metrics time series leaves the process only when
  // the spec names metrics.dir (the summary always travels in the JSON).
  const auto persist_metrics = [&r, &point] {
    if (point.spec.metrics_dir.empty() || !r.report.metrics.enabled ||
        r.report.metrics.series_rows() == 0) {
      return;
    }
    r.metrics_csv_path =
        write_metrics_csv(point.spec.metrics_dir, sanitize_label(r.label),
                          r.report.metrics.series_csv());
  };

  ScenarioSpec spec = point.spec;
  if (spec.faults.midrun_rank >= 0 || spec.compare_reference) {
    // The paper's "middle of correct execution" protocol: a rank-fault-free
    // reference pass sizes the crash time for the measured pass. The
    // reference strips every rank crash (timed, stochastic, midrun) but
    // keeps the campaign's *environment* faults — EL crashes, daemon
    // crashes, server outages, link perturbations, partitions — so both
    // passes see identical timing up to the measured crash and
    // `recovered_exact` isolates recovery correctness, not incidental
    // wildcard reorderings. `compare_reference` runs the same reference
    // without scheduling a midrun crash, so a chaos campaign's outcome can
    // be classified as recovered_exact too.
    ScenarioSpec ref = spec;
    ref.compare_reference = false;
    ref.faults.faults.clear();
    ref.faults.faults_per_minute = 0.0;
    ref.faults.midrun_rank = -1;
    auto& inj = ref.faults.campaign.injections;
    inj.erase(std::remove_if(inj.begin(), inj.end(),
                             [](const fault::Injection& i) {
                               return i.target == fault::Target::kRank;
                             }),
              inj.end());
    // When the point carries no rank crashes at all (a compare_reference
    // sweep corner like rank_rate = 0), the reference IS the measured run
    // — the simulator is deterministic, so don't pay for it twice.
    const bool ref_is_measured =
        spec.faults.midrun_rank < 0 && spec.faults.faults.empty() &&
        spec.faults.faults_per_minute == 0.0 &&
        inj.size() == spec.faults.campaign.injections.size();
    const ClusterRun ref_run = run_cluster(ref);
    r.has_reference = true;
    r.reference_time = ref_run.report.completion_time;
    r.reference_checksums = ref_run.checksums;
    r.reference_trace_dump = ref_run.trace_dump;
    if (!ref_run.report.completed || ref_is_measured) {
      // Either the reference never finished (nothing to measure against)
      // or it doubles as the measurement itself.
      adopt(ref_run);
      r.recovered_exact = ref_is_measured && r.completed && !r.checksums.empty();
      persist_traces();
      persist_metrics();
      return r;
    }
    if (spec.faults.midrun_rank >= 0) {
      spec.faults.faults.push_back(runtime::FaultSpec{
          static_cast<sim::Time>(static_cast<double>(r.reference_time) *
                                 spec.faults.midrun_frac),
          spec.faults.midrun_rank});
      spec.faults.midrun_rank = -1;
    }
  }

  const ClusterRun run = run_cluster(spec);
  adopt(run);
  if (r.has_reference) {
    r.recovered_exact = !r.checksums.empty() &&
                        r.checksums == r.reference_checksums;
  }
  persist_traces();
  persist_metrics();
  return r;
}

RunResult run_spec(const ScenarioSpec& spec) {
  if (!spec.sweep.empty()) {
    throw SpecError("scenario '" + spec.name +
                    "': run_spec expects no sweep axes — use run()");
  }
  validate(spec);
  std::vector<RunPoint> points = expand(spec);
  if (points.front().skipped) {
    throw SpecError("scenario '" + spec.name + "': " +
                    points.front().skip_reason);
  }
  return run_point(points.front());
}

RunSet run(const ScenarioSpec& spec, const RunOptions& options) {
  ScenarioSpec resolved = spec;
  if (options.quick) {
    apply_quick(resolved);
  } else {
    resolved.quick.clear();
  }
  RunSet set;
  set.scenario = resolved.name;
  set.origin = "<builder>";
  set.quick = options.quick;
  const std::vector<RunPoint> points = expand(resolved);
  const int jobs =
      options.jobs > 0 ? options.jobs : resolved.runner_parallelism;
  if (jobs > 1 && points.size() > 1) {
    // Fan the grid across forked workers; results come back in sweep order
    // carrying prerendered JSON stanzas, so the report is byte-identical
    // to the serial loop below.
    set.runs = detail::run_points_parallel(points, jobs, options);
    return set;
  }
  for (const RunPoint& p : points) {
    RunResult r = run_point(p);
    if (options.on_result) options.on_result(p, r);
    set.runs.push_back(std::move(r));
  }
  return set;
}

// ---------------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------------

namespace {

void json_escape(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out << buf;
        } else {
          out << ch;
        }
    }
  }
  out << '"';
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  // JSON has no inf/nan.
  if (std::string(buf).find_first_of("in") != std::string::npos) return "null";
  return buf;
}

void write_run(std::ostringstream& out, const RunResult& r,
               const std::string& indent) {
  if (!r.prerendered_json.empty()) {
    // A parallel worker already rendered this run at zero indent; splice it
    // back re-indented. json_escape leaves no raw newline inside strings,
    // so every '\n' in the fragment is structural and the splice is
    // byte-identical to rendering in-process.
    out << indent;
    for (const char ch : r.prerendered_json) {
      out << ch;
      if (ch == '\n') out << indent;
    }
    return;
  }
  auto key = [&out, &indent](const char* k) -> std::ostringstream& {
    out << indent << "  ";
    json_escape(out, k);
    out << ": ";
    return out;
  };
  out << indent << "{\n";
  key("label");
  json_escape(out, r.label);
  out << ",\n";
  key("axes") << "{";
  for (std::size_t i = 0; i < r.axes.size(); ++i) {
    if (i) out << ", ";
    json_escape(out, r.axes[i].first);
    out << ": ";
    json_escape(out, r.axes[i].second);
  }
  out << "},\n";
  if (r.failed) {
    // Worker-crash containment: the point ran in a worker that died before
    // delivering a result. Everything known about it is why it failed.
    key("skipped") << "false,\n";
    key("outcome");
    json_escape(out, outcome_name(r.outcome()));
    out << ",\n";
    key("failed") << "true,\n";
    key("fail_reason");
    json_escape(out, r.fail_reason);
    out << "\n" << indent << "}";
    return;
  }
  if (r.skipped) {
    key("skipped") << "true,\n";
    key("outcome");
    json_escape(out, outcome_name(r.outcome()));
    out << ",\n";
    key("skip_reason");
    json_escape(out, r.skip_reason);
    out << "\n" << indent << "}";
    return;
  }
  key("skipped") << "false,\n";
  key("outcome");
  json_escape(out, outcome_name(r.outcome()));
  out << ",\n";
  key("protocol");
  json_escape(out, r.protocol_label);
  out << ",\n";
  key("completed") << (r.completed ? "true" : "false") << ",\n";
  key("sim_time_s") << json_num(r.sim_seconds()) << ",\n";
  key("faults_injected") << r.report.faults_injected << ",\n";
  const ftapi::RankStats t = r.report.totals();
  key("app_msgs") << t.app_msgs_sent << ",\n";
  key("app_bytes") << t.app_bytes_sent << ",\n";
  key("pb_events") << t.pb_events_sent << ",\n";
  key("pb_bytes") << t.pb_bytes_sent << ",\n";
  key("pb_empty_msgs") << t.pb_empty_msgs << ",\n";
  key("pb_pct") << json_num(r.report.piggyback_pct()) << ",\n";
  key("pb_peak_msg_bytes") << t.pb_peak_msg_bytes << ",\n";
  key("pb_peak_msg_events") << t.pb_peak_msg_events << ",\n";
  key("pb_peak_post_el_fault_bytes") << t.pb_peak_post_el_fault_bytes << ",\n";
  key("pb_peak_post_el_fault_events") << t.pb_peak_post_el_fault_events
                                      << ",\n";
  key("pb_send_cpu_s") << json_num(sim::to_sec(t.pb_send_cpu)) << ",\n";
  key("pb_recv_cpu_s") << json_num(sim::to_sec(t.pb_recv_cpu)) << ",\n";
  key("sender_log_peak_bytes") << t.sender_log_peak_bytes << ",\n";
  key("events_executed") << r.events_executed << ",\n";
  key("wire_bytes") << r.wire_bytes << ",\n";
  {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(r.checksum_digest()));
    key("checksum");
    json_escape(out, buf);
    out << ",\n";
  }
  if (r.flops > 0) {
    key("mops") << json_num(r.mops()) << ",\n";
  }
  key("el") << "{\"events_stored\": " << r.report.el_stats.events_stored
            << ", \"acks_sent\": " << r.report.el_stats.acks_sent
            << ", \"peak_queue\": " << r.report.el_stats.peak_queue
            << ", \"mean_ack_us\": " << json_num(t.el_ack_latency_us.mean());
  if (r.report.metrics.enabled) {
    // Tail percentiles ride along only when metrics are on, keeping the
    // metrics-off report shape byte-identical to the pre-metrics goldens.
    out << ", \"p50_ack_us\": " << json_num(t.el_ack_latency_us.p50())
        << ", \"p99_ack_us\": " << json_num(t.el_ack_latency_us.p99());
  }
  out << "},\n";
  key("recovery") << "{\"events\": " << t.recovery_events
                  << ", \"collect_ms\": "
                  << json_num(sim::to_ms(t.recovery_collect_time))
                  << ", \"total_ms\": "
                  << json_num(sim::to_ms(t.recovery_total_time)) << "},\n";
  const fault::FaultCounts& fc = r.report.fault_counts;
  key("faults") << "{\"rank_crashes\": " << fc.rank_crashes
                << ", \"daemon_crashes\": " << fc.daemon_crashes
                << ", \"el_crashes\": " << fc.el_crashes
                << ", \"el_outages\": " << fc.el_outages
                << ", \"el_failovers\": " << fc.el_failovers
                << ", \"ckpt_outages\": " << fc.ckpt_outages
                << ", \"link_faults\": " << fc.link_faults
                << ", \"partitions\": " << fc.partitions
                << ", \"el_suspects\": " << fc.el_suspects
                << ", \"el_reconciles\": " << fc.el_reconciles
                << ", \"first_el_fault_s\": "
                << json_num(sim::to_sec(r.report.first_el_fault)) << "},\n";
  // One timeline entry per recovery: the per-phase breakdown Fig. 10's
  // scalar hides. Interrupted recoveries (crash mid-recovery) report
  // complete = false with the phases that did finish.
  key("recoveries") << "[";
  for (std::size_t i = 0; i < r.report.recoveries.size(); ++i) {
    const fault::RecoveryRecord& rec = r.report.recoveries[i];
    if (i) out << ", ";
    out << "{\"rank\": " << rec.rank
        << ", \"coordinated\": " << (rec.coordinated ? "true" : "false")
        << ", \"complete\": " << (rec.complete() ? "true" : "false")
        << ", \"fault_s\": " << json_num(sim::to_sec(rec.fault_at))
        << ", \"events\": " << rec.replay_events;
    if (rec.restart_at != 0) {
      out << ", \"detect_ms\": " << json_num(sim::to_ms(rec.detect_ns()));
    }
    if (rec.image_at != 0) {
      out << ", \"image_ms\": " << json_num(sim::to_ms(rec.image_ns()));
    }
    if (rec.collect_at != 0) {
      out << ", \"collect_ms\": " << json_num(sim::to_ms(rec.collect_ns()));
    }
    if (rec.complete()) {
      out << ", \"replay_ms\": " << json_num(sim::to_ms(rec.replay_ns()))
          << ", \"total_ms\": " << json_num(sim::to_ms(rec.total_ns()));
    }
    out << "}";
  }
  out << "]";
  if (!r.report.daemon_outages.empty()) {
    out << ",\n";
    // The daemon failure domain: the app survived each of these, stalled,
    // while the dispatcher respawned the daemon. An incomplete record means
    // a rank crash superseded the respawn.
    key("daemon_outages") << "[";
    for (std::size_t i = 0; i < r.report.daemon_outages.size(); ++i) {
      const fault::DaemonOutageRecord& rec = r.report.daemon_outages[i];
      if (i) out << ", ";
      out << "{\"rank\": " << rec.rank
          << ", \"complete\": " << (rec.complete() ? "true" : "false")
          << ", \"interrupted\": " << (rec.interrupted ? "true" : "false")
          << ", \"fault_s\": " << json_num(sim::to_sec(rec.fault_at));
      if (rec.complete()) {
        out << ", \"down_ms\": " << json_num(sim::to_ms(rec.down_ns()))
            << ", \"held_frames\": " << rec.held_frames;
      }
      out << "}";
    }
    out << "]";
  }
  if (!r.report.repairs.empty()) {
    out << ",\n";
    // ULFM repairs: fault -> revoke broadcast -> agreement/rebuild ->
    // survivors relaunched shrunk. An incomplete record means the run hit
    // max_sim_time inside the repair window.
    key("repairs") << "[";
    for (std::size_t i = 0; i < r.report.repairs.size(); ++i) {
      const fault::RepairRecord& rec = r.report.repairs[i];
      if (i) out << ", ";
      out << "{\"victim\": " << rec.victim
          << ", \"survivors\": " << rec.survivors
          << ", \"complete\": " << (rec.complete() ? "true" : "false")
          << ", \"fault_s\": " << json_num(sim::to_sec(rec.fault_at));
      if (rec.revoke_at != 0) {
        out << ", \"detect_ms\": " << json_num(sim::to_ms(rec.detect_ns()));
      }
      if (rec.complete()) {
        out << ", \"repair_ms\": " << json_num(sim::to_ms(rec.repair_ns()))
            << ", \"total_ms\": " << json_num(sim::to_ms(rec.total_ns()));
      }
      out << "}";
    }
    out << "]";
  }
  if (!r.report.promotions.empty()) {
    out << ",\n";
    // Replica promotions: the shadow took over in place — no rollback, so
    // the only cost is the switchover window holding the victim's frames.
    key("promotions") << "[";
    for (std::size_t i = 0; i < r.report.promotions.size(); ++i) {
      const fault::PromotionRecord& rec = r.report.promotions[i];
      if (i) out << ", ";
      out << "{\"rank\": " << rec.rank
          << ", \"complete\": " << (rec.complete() ? "true" : "false")
          << ", \"fault_s\": " << json_num(sim::to_sec(rec.fault_at));
      if (rec.complete()) {
        out << ", \"promote_ms\": " << json_num(sim::to_ms(rec.promote_ns()))
            << ", \"held_frames\": " << rec.held_frames;
      }
      out << "}";
    }
    out << "]";
  }
  if (t.replica_sync_msgs != 0 || t.replica_mirror_cpu != 0) {
    out << ",\n";
    // The replication hybrid's steady-state price: the visible slice of the
    // 2x compute (mirror copies) plus the shadow-sync fabric traffic.
    key("replica") << "{\"sync_msgs\": " << t.replica_sync_msgs
                   << ", \"sync_bytes\": " << t.replica_sync_bytes
                   << ", \"mirror_cpu_s\": "
                   << json_num(sim::to_sec(t.replica_mirror_cpu)) << "}";
  }
  if (t.ulfm_revokes_seen != 0 || t.ulfm_repairs != 0) {
    out << ",\n";
    key("ulfm") << "{\"revokes_seen\": " << t.ulfm_revokes_seen
                << ", \"repairs\": " << t.ulfm_repairs << "}";
  }
  if (!r.report.el_reconciles.empty()) {
    out << ",\n";
    // Split-brain merges: a suspected failover behind a service cut left
    // two shards accepting submissions; the heal folded the stale log into
    // the successor's, dropping (creator, seq) duplicates.
    key("el_reconciles") << "[";
    for (std::size_t i = 0; i < r.report.el_reconciles.size(); ++i) {
      const fault::ElReconcileRecord& rec = r.report.el_reconciles[i];
      if (i) out << ", ";
      out << "{\"stale_shard\": " << rec.stale_shard
          << ", \"successor\": " << rec.successor
          << ", \"moved_ranks\": " << rec.moved_ranks
          << ", \"complete\": " << (rec.complete() ? "true" : "false")
          << ", \"detect_ms\": " << json_num(sim::to_ms(rec.detect_ns()));
      if (rec.complete()) {
        out << ", \"split_ms\": " << json_num(sim::to_ms(rec.split_ns()))
            << ", \"merge_ms\": " << json_num(sim::to_ms(rec.merge_ns()))
            << ", \"merged_records\": " << rec.merged_records
            << ", \"dup_dropped\": " << rec.dup_dropped;
        if (rec.first_dup_rank >= 0) {
          out << ", \"first_dup_rank\": " << rec.first_dup_rank
              << ", \"first_dup_seq\": " << rec.first_dup_seq;
        }
      }
      out << "}";
    }
    out << "]";
  }
  {
    bool split_brain = false;
    for (const ftapi::RankStats& s : r.report.rank_stats) {
      split_brain = split_brain || s.el_dup_submissions != 0 ||
                    s.el_reconciled_records != 0 || s.stale_acks_fenced != 0;
    }
    // Per-rank split-brain counters, emitted only when a run actually
    // exercised the dual-log window so fault-free JSON keeps its shape.
    if (split_brain) {
      out << ",\n";
      key("rank_stats") << "[";
      for (std::size_t i = 0; i < r.report.rank_stats.size(); ++i) {
        const ftapi::RankStats& s = r.report.rank_stats[i];
        if (i) out << ", ";
        out << "{\"rank\": " << i
            << ", \"el_dup_submissions\": " << s.el_dup_submissions
            << ", \"el_reconciled_records\": " << s.el_reconciled_records
            << ", \"stale_acks_fenced\": " << s.stale_acks_fenced << "}";
      }
      out << "]";
    }
  }
  if (r.has_reference) {
    out << ",\n";
    key("reference") << "{\"sim_time_s\": "
                     << json_num(sim::to_sec(r.reference_time))
                     << ", \"recovered_exact\": "
                     << (r.recovered_exact ? "true" : "false") << "}";
  }
  if (!r.trace_dump.empty()) {
    out << ",\n";
    key("trace") << "{\"records\": ";
    // Header + lane lines start with '#'; everything else is one record.
    std::uint64_t records = 0;
    bool line_start = true;
    bool comment = false;
    for (const char ch : r.trace_dump) {
      if (line_start) comment = ch == '#';
      line_start = ch == '\n';
      if (line_start && !comment) ++records;
    }
    out << records;
    if (!r.trace_path.empty()) {
      out << ", \"path\": ";
      json_escape(out, r.trace_path);
    }
    if (!r.reference_trace_path.empty()) {
      out << ", \"reference_path\": ";
      json_escape(out, r.reference_trace_path);
    }
    out << "}";
  }
  if (r.report.metrics.enabled) {
    const metrics::Snapshot& ms = r.report.metrics;
    out << ",\n";
    key("metrics") << "{\n";
    out << indent << "    \"sample_interval_ns\": " << ms.sample_interval
        << ",\n";
    out << indent << "    \"counters\": {";
    for (std::size_t i = 0; i < ms.counters.size(); ++i) {
      if (i) out << ", ";
      json_escape(out, ms.counters[i].first);
      out << ": " << ms.counters[i].second;
    }
    out << "},\n";
    out << indent << "    \"gauges\": {";
    for (std::size_t i = 0; i < ms.gauges.size(); ++i) {
      if (i) out << ", ";
      json_escape(out, ms.gauges[i].first);
      out << ": " << ms.gauges[i].second;
    }
    out << "},\n";
    out << indent << "    \"histograms\": {";
    for (std::size_t i = 0; i < ms.histograms.size(); ++i) {
      const metrics::HistogramSummary& h = ms.histograms[i];
      out << (i ? "," : "") << "\n" << indent << "      ";
      json_escape(out, h.name);
      out << ": {\"count\": " << h.count
          << ", \"mean\": " << json_num(h.mean)
          << ", \"min\": " << json_num(h.min)
          << ", \"max\": " << json_num(h.max)
          << ", \"p50\": " << json_num(h.p50)
          << ", \"p90\": " << json_num(h.p90)
          << ", \"p99\": " << json_num(h.p99) << "}";
    }
    if (!ms.histograms.empty()) out << "\n" << indent << "    ";
    out << "},\n";
    out << indent << "    \"series\": {\"columns\": [";
    for (std::size_t i = 0; i < ms.series_columns.size(); ++i) {
      if (i) out << ", ";
      json_escape(out, ms.series_columns[i]);
    }
    out << "], \"rows\": " << ms.series_rows()
        << ", \"dropped\": " << ms.series_dropped;
    if (!r.metrics_csv_path.empty()) {
      out << ", \"csv_path\": ";
      json_escape(out, r.metrics_csv_path);
    }
    out << "}\n" << indent << "  }";
  }
  if (!r.pingpong.points.empty()) {
    out << ",\n";
    key("points") << "[";
    for (std::size_t i = 0; i < r.pingpong.points.size(); ++i) {
      const auto& p = r.pingpong.points[i];
      if (i) out << ", ";
      out << "{\"bytes\": " << p.bytes
          << ", \"latency_us\": " << json_num(p.latency_us)
          << ", \"bandwidth_mbps\": " << json_num(p.bandwidth_mbps) << "}";
    }
    out << "]";
  }
  out << "\n" << indent << "}";
}

void write_set(std::ostringstream& out, const RunSet& set,
               const std::string& indent) {
  out << indent << "{\n";
  out << indent << "  \"scenario\": ";
  json_escape(out, set.scenario);
  out << ",\n" << indent << "  \"origin\": ";
  json_escape(out, set.origin);
  out << ",\n" << indent << "  \"quick\": " << (set.quick ? "true" : "false");
  const OutcomeCounts t = set.tally();
  out << ",\n"
      << indent << "  \"outcomes\": {\"recovered_exact\": " << t.recovered_exact
      << ", \"completed\": " << t.completed
      << ", \"completed_shrunk\": " << t.completed_shrunk
      << ", \"abandoned\": " << t.abandoned << ", \"failed\": " << t.failed
      << ", \"skipped\": " << t.skipped
      << ", \"total\": " << t.total() << "}";
  out << ",\n" << indent << "  \"runs\": [\n";
  for (std::size_t i = 0; i < set.runs.size(); ++i) {
    write_run(out, set.runs[i], indent + "    ");
    out << (i + 1 < set.runs.size() ? ",\n" : "\n");
  }
  out << indent << "  ]\n" << indent << "}";
}

}  // namespace

std::string run_json_fragment(const RunResult& r) {
  std::ostringstream out;
  write_run(out, r, "");
  return out.str();
}

std::string to_json(const RunSet& set) {
  std::ostringstream out;
  write_set(out, set, "");
  out << "\n";
  return out.str();
}

std::string to_json(const std::vector<RunSet>& sets) {
  std::ostringstream out;
  out << "{\n  \"reports\": [\n";
  for (std::size_t i = 0; i < sets.size(); ++i) {
    write_set(out, sets[i], "    ");
    out << (i + 1 < sets.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace mpiv::scenario
