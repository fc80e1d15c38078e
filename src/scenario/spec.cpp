// Spec plumbing: typed parameter access, the shared key=value mutation
// path, the scenario text format, and build-time validation.
#include "scenario/spec.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "scenario/registry.hpp"

namespace mpiv::scenario {

namespace {

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* expected) {
  throw SpecError("bad value '" + value + "' for '" + key + "' (expected " +
                  expected + ")");
}

std::int64_t parse_i64(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const std::int64_t v = std::stoll(value, &used);
    if (trim(value.substr(used)).empty()) return v;
  } catch (const std::exception&) {
  }
  bad_value(key, value, "an integer");
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    if (!value.empty() && value[0] != '-') {
      const std::uint64_t v = std::stoull(value, &used, 0);
      if (trim(value.substr(used)).empty()) return v;
    }
  } catch (const std::exception&) {
  }
  bad_value(key, value, "an unsigned integer");
}

double parse_f64(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (trim(value.substr(used)).empty()) return v;
  } catch (const std::exception&) {
  }
  bad_value(key, value, "a number");
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "on" || value == "1" || value == "yes") {
    return true;
  }
  if (value == "false" || value == "off" || value == "0" || value == "no") {
    return false;
  }
  bad_value(key, value, "a boolean (true/false)");
}

/// Durations accept a unit suffix: "250ms", "5s", "32us", "123456ns";
/// a bare number is nanoseconds.
sim::Time parse_time(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(value, &used);
  } catch (const std::exception&) {
    bad_value(key, value, "a duration like 250ms / 5s / 32us");
  }
  const std::string unit = trim(value.substr(used));
  if (unit.empty() || unit == "ns") return static_cast<sim::Time>(v);
  if (unit == "us") return sim::from_us(v);
  if (unit == "ms") return sim::from_ms(v);
  if (unit == "s") return sim::from_sec(v);
  if (unit == "min") return static_cast<sim::Time>(v * sim::kMinute);
  if (unit == "h") return static_cast<sim::Time>(v * 60 * sim::kMinute);
  bad_value(key, value, "a duration like 250ms / 5s / 32us");
}

ckpt::Policy parse_policy(const std::string& key, const std::string& value) {
  if (value == "none") return ckpt::Policy::kNone;
  if (value == "round-robin") return ckpt::Policy::kRoundRobin;
  if (value == "random") return ckpt::Policy::kRandom;
  if (value == "all-at-once") return ckpt::Policy::kAllAtOnce;
  bad_value(key, value, "none / round-robin / random / all-at-once");
}

/// Parses a partition rank group: '+'-separated elements, each a rank or
/// an inclusive range "a-b" ("0-2+5" = {0,1,2,5}). Commas are taken by the
/// sweep-axis tokenizer, so groups use '+'.
std::vector<int> parse_rank_group(const std::string& key,
                                  const std::string& s) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t plus = s.find('+', pos);
    if (plus == std::string::npos) plus = s.size();
    const std::string tok = trim(s.substr(pos, plus - pos));
    pos = plus + 1;
    if (tok.empty()) bad_value(key, s, "ranks like '0+1' or ranges '0-3'");
    // A '-' after the first character splits a range (a leading '-' would
    // be a negative rank, rejected downstream by validation).
    const std::size_t dash = tok.find('-', 1);
    if (dash == std::string::npos) {
      out.push_back(static_cast<int>(parse_i64(key, tok)));
    } else {
      const int lo = static_cast<int>(parse_i64(key, tok.substr(0, dash)));
      const int hi = static_cast<int>(parse_i64(key, tok.substr(dash + 1)));
      if (hi < lo) bad_value(key, s, "an ascending range like '0-3'");
      for (int r = lo; r <= hi; ++r) out.push_back(r);
    }
    if (pos > s.size()) break;
  }
  return out;
}

std::string format_rank_group(const std::vector<int>& ranks) {
  std::string out;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (i) out += "+";
    out += std::to_string(ranks[i]);
  }
  return out;
}

/// Parses one side of a service partition: the rank-group grammar extended
/// with service tokens — "elK" names EL shard K, "ckpt" the checkpoint
/// server ("el0+2+4" = shard 0 plus ranks {2,4}). Ranks land in `ranks`,
/// service ids in `services` (fault::kCkptService for the ckpt server).
void parse_service_group(const std::string& key, const std::string& s,
                         std::vector<int>& ranks, std::vector<int>& services) {
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t plus = s.find('+', pos);
    if (plus == std::string::npos) plus = s.size();
    const std::string tok = trim(s.substr(pos, plus - pos));
    pos = plus + 1;
    if (tok.empty()) {
      bad_value(key, s, "ranks/ranges plus service tokens like 'el0' / 'ckpt'");
    }
    if (tok == "ckpt") {
      services.push_back(fault::kCkptService);
    } else if (tok.size() > 2 && tok.rfind("el", 0) == 0 &&
               tok.find_first_not_of("0123456789", 2) == std::string::npos) {
      services.push_back(static_cast<int>(parse_i64(key, tok.substr(2))));
    } else {
      const std::size_t dash = tok.find('-', 1);
      if (dash == std::string::npos) {
        ranks.push_back(static_cast<int>(parse_i64(key, tok)));
      } else {
        const int lo = static_cast<int>(parse_i64(key, tok.substr(0, dash)));
        const int hi = static_cast<int>(parse_i64(key, tok.substr(dash + 1)));
        if (hi < lo) bad_value(key, s, "an ascending range like '0-3'");
        for (int r = lo; r <= hi; ++r) ranks.push_back(r);
      }
    }
    if (pos > s.size()) break;
  }
}

std::string format_service_group(const std::vector<int>& ranks,
                                 const std::vector<int>& services) {
  std::string out = format_rank_group(ranks);
  for (const int s : services) {
    if (!out.empty()) out += "+";
    out += s == fault::kCkptService ? std::string("ckpt")
                                    : "el" + std::to_string(s);
  }
  return out;
}

/// Splits ':'-separated injection fields, trimming each.
std::vector<std::string> split_fields(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t colon = s.find(':', pos);
    if (colon == std::string::npos) colon = s.size();
    out.push_back(trim(s.substr(pos, colon - pos)));
    pos = colon + 1;
  }
  return out;
}

/// Campaign trigger token: a time ("120ms") or an execution count
/// ("ckpt@5" on crash_rank, "stored@2000" on crash_el — '@', because '#'
/// starts a comment in scenario files).
void parse_fault_trigger(const std::string& key, const std::string& tok,
                         const char* event_word, fault::Trigger event_trigger,
                         fault::Injection& inj) {
  const std::string prefix = std::string(event_word) + "@";
  if (tok.rfind(prefix, 0) == 0) {
    inj.trigger = event_trigger;
    inj.nth = parse_u64(key, tok.substr(prefix.size()));
    return;
  }
  inj.trigger = fault::Trigger::kAt;
  inj.at = parse_time(key, tok);
}

[[noreturn]] void bad_fields(const std::string& key, const std::string& value,
                             const char* expected) {
  bad_value(key, value, expected);
}

/// The `faults.*` key family — the scenario-file face of fault::Campaign.
/// Every key handled here MUST be listed in fault_key_table() (the parser
/// rejects unlisted keys up front, and a unit test feeds each table
/// example back through this function), so the table, the CLI listing and
/// docs/SCENARIOS.md cannot silently diverge.
bool apply_fault_key(ScenarioSpec& spec, const std::string& key,
                     const std::string& value) {
  bool listed = false;
  for (const FaultKeyInfo& e : fault_key_table()) listed |= key == e.key;
  if (!listed) return false;
  fault::Campaign& c = spec.faults.campaign;
  const std::vector<std::string> f = split_fields(value);
  if (key == "faults.crash_rank") {
    // "<time>:<rank>" or "ckpt@N:<rank>".
    if (f.size() != 2) bad_fields(key, value, "'<time|ckpt@N>:<rank>'");
    fault::Injection inj;
    inj.target = fault::Target::kRank;
    parse_fault_trigger(key, f[0], "ckpt", fault::Trigger::kOnCheckpoint, inj);
    inj.index = static_cast<int>(parse_i64(key, f[1]));
    c.injections.push_back(inj);
  } else if (key == "faults.crash_el") {
    // "<time>:<shard>" or "stored@N:<shard>".
    if (f.size() != 2) bad_fields(key, value, "'<time|stored@N>:<shard>'");
    fault::Injection inj;
    inj.target = fault::Target::kElShard;
    parse_fault_trigger(key, f[0], "stored", fault::Trigger::kOnElStored, inj);
    inj.index = static_cast<int>(parse_i64(key, f[1]));
    c.injections.push_back(inj);
  } else if (key == "faults.el_outage") {
    if (f.size() != 3) bad_fields(key, value, "'<time>:<shard>:<duration>'");
    fault::Injection inj;
    inj.target = fault::Target::kElShard;
    inj.action = fault::Action::kOutage;
    inj.at = parse_time(key, f[0]);
    inj.index = static_cast<int>(parse_i64(key, f[1]));
    inj.duration = parse_time(key, f[2]);
    c.injections.push_back(inj);
  } else if (key == "faults.ckpt_outage") {
    if (f.size() != 2) bad_fields(key, value, "'<time>:<duration>'");
    fault::Injection inj;
    inj.target = fault::Target::kCkptServer;
    inj.action = fault::Action::kOutage;
    inj.at = parse_time(key, f[0]);
    inj.duration = parse_time(key, f[1]);
    c.injections.push_back(inj);
  } else if (key == "faults.link_latency") {
    if (f.size() != 4) {
      bad_fields(key, value, "'<time>:<rank>:<extra>:<duration>'");
    }
    fault::Injection inj;
    inj.target = fault::Target::kLink;
    inj.action = fault::Action::kLatencySpike;
    inj.at = parse_time(key, f[0]);
    inj.index = static_cast<int>(parse_i64(key, f[1]));
    inj.magnitude = parse_time(key, f[2]);
    inj.duration = parse_time(key, f[3]);
    c.injections.push_back(inj);
  } else if (key == "faults.link_drop") {
    if (f.size() != 3 && f.size() != 4) {
      bad_fields(key, value, "'<time>:<rank>:<duration>[:<backoff>]'");
    }
    fault::Injection inj;
    inj.target = fault::Target::kLink;
    inj.action = fault::Action::kDropWindow;
    inj.at = parse_time(key, f[0]);
    inj.index = static_cast<int>(parse_i64(key, f[1]));
    inj.duration = parse_time(key, f[2]);
    inj.magnitude =
        f.size() == 4 ? parse_time(key, f[3]) : 5 * sim::kMillisecond;
    c.injections.push_back(inj);
  } else if (key == "faults.rank_rate") {
    // A Poisson crash process over random live ranks — the `[faults]`
    // spelling of `faults_per_minute` (both lower to this injection). Rate
    // 0 = stream off, so a sweep axis can include the fault-free corner.
    const double rate = parse_f64(key, value);
    if (rate < 0) bad_value(key, value, "a rate >= 0 (0 = off)");
    if (rate > 0) c.injections.push_back(fault::rank_crash_rate(rate));
  } else if (key == "faults.crash_daemon") {
    // "<time>:<rank>[:<downtime>]" — only the communication daemon dies;
    // the app rank stalls until the dispatcher respawns it.
    if (f.size() != 2 && f.size() != 3) {
      bad_fields(key, value, "'<time>:<rank>[:<downtime>]'");
    }
    fault::Injection inj;
    inj.target = fault::Target::kDaemon;
    inj.at = parse_time(key, f[0]);
    inj.index = static_cast<int>(parse_i64(key, f[1]));
    if (f.size() == 3) inj.duration = parse_time(key, f[2]);
    c.injections.push_back(inj);
  } else if (key == "faults.daemon_rate") {
    // The daemon twin of rank_rate: Poisson daemon crashes over random
    // live ranks (the rank survives each one, stalled). 0 = off.
    const double rate = parse_f64(key, value);
    if (rate < 0) bad_value(key, value, "a rate >= 0 (0 = off)");
    if (rate > 0) {
      fault::Injection inj;
      inj.target = fault::Target::kDaemon;
      inj.index = -1;
      inj.trigger = fault::Trigger::kRate;
      inj.rate_per_minute = rate;
      c.injections.push_back(inj);
    }
  } else if (key == "faults.daemon_restart_delay") {
    c.daemon_restart_delay = parse_time(key, value);
  } else if (key == "faults.partition") {
    // "<time>:<groupA>|<groupB>:<duration>[:<backoff>]" with '+'-separated
    // ranks or 'a-b' ranges per group, e.g. "10ms:0-3|4-7:25ms:2ms".
    if (f.size() != 3 && f.size() != 4) {
      bad_fields(key, value, "'<time>:<ranks>|<ranks>:<duration>[:<backoff>]'");
    }
    const std::size_t bar = f[1].find('|');
    if (bar == std::string::npos) {
      bad_fields(key, value, "two '|'-separated rank groups like '0-3|4-7'");
    }
    fault::Injection inj;
    inj.target = fault::Target::kFabric;
    inj.action = fault::Action::kPartition;
    inj.at = parse_time(key, f[0]);
    inj.group_a = parse_rank_group(key, trim(f[1].substr(0, bar)));
    inj.group_b = parse_rank_group(key, trim(f[1].substr(bar + 1)));
    inj.duration = parse_time(key, f[2]);
    inj.magnitude =
        f.size() == 4 ? parse_time(key, f[3]) : 2 * sim::kMillisecond;
    c.injections.push_back(inj);
  } else if (key == "faults.partition_services") {
    // Like faults.partition, but each side may also name service endpoints:
    // "elK" (EL shard K) or "ckpt", e.g. "30ms:el0|2+4:80ms:2ms" cuts shard
    // 0 away from ranks 2 and 4 (split-brain when a failover fires inside
    // the window).
    if (f.size() != 3 && f.size() != 4) {
      bad_fields(key, value,
                 "'<time>:<group>|<group>:<duration>[:<backoff>]' with "
                 "ranks, 'elK' and 'ckpt' tokens per group");
    }
    const std::size_t bar = f[1].find('|');
    if (bar == std::string::npos) {
      bad_fields(key, value, "two '|'-separated groups like 'el0|2+4'");
    }
    fault::Injection inj;
    inj.target = fault::Target::kFabric;
    inj.action = fault::Action::kPartition;
    inj.at = parse_time(key, f[0]);
    parse_service_group(key, trim(f[1].substr(0, bar)), inj.group_a,
                        inj.services_a);
    parse_service_group(key, trim(f[1].substr(bar + 1)), inj.group_b,
                        inj.services_b);
    if (inj.services_a.empty() && inj.services_b.empty()) {
      bad_fields(key, value,
                 "at least one 'elK' / 'ckpt' token (use faults.partition "
                 "for rank-only cuts)");
    }
    inj.duration = parse_time(key, f[2]);
    inj.magnitude =
        f.size() == 4 ? parse_time(key, f[3]) : 2 * sim::kMillisecond;
    c.injections.push_back(inj);
  } else if (key == "faults.detection_delay") {
    c.detection_delay = parse_time(key, value);
    if (c.detection_delay <= 0) {
      bad_value(key, value, "a positive duration like 5ms");
    }
  } else if (key == "faults.el_failover") {
    if (value == "reassign") {
      c.el_failover = fault::ElFailover::kReassign;
    } else if (value == "standby") {
      c.el_failover = fault::ElFailover::kStandby;
    } else {
      bad_value(key, value, "reassign / standby");
    }
  } else if (key == "faults.el_failover_delay") {
    c.el_failover_delay = parse_time(key, value);
  } else if (key == "faults.service_retry") {
    c.service_retry = parse_time(key, value);
  } else if (key == "faults.seed_salt") {
    c.seed_salt = parse_u64(key, value);
  } else {
    return false;
  }
  return true;
}

std::string protocol_name(runtime::ProtocolKind kind) {
  for (const auto& entry : protocols().entries()) {
    if (entry.second.kind == kind) return entry.first;
  }
  return "?";
}

std::string strategy_name(causal::StrategyKind kind) {
  for (const auto& entry : strategies().entries()) {
    if (entry.second.kind == kind) return entry.first;
  }
  return "?";
}

/// Recomputes the canonical name + label after a piecemeal edit
/// (protocol / strategy / event_logger keys).
void refresh_variant(VariantSpec& v) {
  if (v.protocol == runtime::ProtocolKind::kCausal) {
    const StrategyEntry& s = strategy_entry(v.strategy);
    v.name = strategy_name(v.strategy) + (v.event_logger ? ":el" : ":noel");
    v.label = std::string(s.display) + (v.event_logger ? " (EL)" : " (no EL)");
  } else {
    const ProtocolEntry& p = protocol_entry(v.protocol);
    v.name = protocol_name(v.protocol);
    runtime::ClusterConfig tmp;
    tmp.protocol = v.protocol;
    v.label = p.label(tmp);
  }
}

/// `cost.*` keys: the calibration knobs scenarios are allowed to retune.
bool apply_cost_key(net::CostModel& cost, const std::string& key,
                    const std::string& value) {
  if (key == "cost.bandwidth_mbps") {
    cost.bandwidth_bps = parse_f64(key, value) * 1e6;
  } else if (key == "cost.wire_latency") {
    cost.wire_latency = parse_time(key, value);
  } else if (key == "cost.el_service") {
    cost.el_service = parse_time(key, value);
  } else if (key == "cost.el_ack_build") {
    cost.el_ack_build = parse_time(key, value);
  } else if (key == "cost.mlog_send_fixed") {
    cost.mlog_send_fixed = parse_time(key, value);
  } else if (key == "cost.mlog_recv_fixed") {
    cost.mlog_recv_fixed = parse_time(key, value);
  } else if (key == "cost.eager_threshold") {
    cost.eager_threshold = parse_u64(key, value);
  } else if (key == "cost.node_gflops") {
    cost.node_gflops = parse_f64(key, value);
  } else if (key == "cost.ckpt_disk_mbps") {
    cost.ckpt_disk_bps = parse_f64(key, value) * 1e6 * 8;
  } else if (key == "cost.slog_ns_per_byte") {
    cost.slog_ns_per_byte = parse_f64(key, value);
  } else {
    return false;
  }
  return true;
}

}  // namespace

// The single source of truth for the `faults.*` key family. The parser
// consults it before dispatching, `mpiv_run --list` prints it, a unit test
// replays every example through apply_key, and scripts/check_docs.sh greps
// the region between the markers to assert docs/SCENARIOS.md documents
// every key. Keep the markers on their own lines.
// BEGIN FAULT KEY TABLE (scripts/check_docs.sh)
const std::vector<FaultKeyInfo>& fault_key_table() {
  static const std::vector<FaultKeyInfo> table = {
      {"faults.crash_rank", "<time|ckpt@N>:<rank>", "120ms:3",
       "kill the rank at a time or on its Nth checkpoint commit"},
      {"faults.rank_rate", "<per-minute>", "0.5",
       "Poisson rank crashes over random live ranks"},
      {"faults.crash_daemon", "<time>:<rank>[:<downtime>]", "50ms:2",
       "kill only the rank's daemon; the app stalls until respawn"},
      {"faults.daemon_rate", "<per-minute>", "1.5",
       "Poisson daemon crashes over random live ranks"},
      {"faults.daemon_restart_delay", "<duration>", "40ms",
       "daemon detect + respawn + reconnect delay"},
      {"faults.crash_el", "<time|stored@N>:<shard>", "60ms:0",
       "permanently crash the EL shard (failover follows)"},
      {"faults.el_outage", "<time>:<shard>:<duration>", "10ms:0:25ms",
       "transient EL service outage; the persistent log survives"},
      {"faults.ckpt_outage", "<time>:<duration>", "40ms:30ms",
       "checkpoint-server outage; images persist, clients retransmit"},
      {"faults.link_latency", "<time>:<rank>:<extra>:<duration>",
       "5ms:2:1ms:20ms", "latency spike on the rank's link"},
      {"faults.link_drop", "<time>:<rank>:<duration>[:<backoff>]",
       "7ms:4:8ms:2ms", "drop-with-retransmit window on the rank's link"},
      {"faults.partition", "<time>:<ranks>|<ranks>:<duration>[:<backoff>]",
       "10ms:0-1|2-3:25ms:2ms",
       "partial partition: the two rank groups mutually unreachable"},
      {"faults.partition_services",
       "<time>:<group>|<group>:<duration>[:<backoff>]", "30ms:el0|2+4:80ms:2ms",
       "partition whose sides may name services ('elK', 'ckpt'); cutting a "
       "serving EL shard arms split-brain reconciliation"},
      {"faults.detection_delay", "<duration>", "5ms",
       "suspicion window for a service cut (default: cluster "
       "detection_delay)"},
      {"faults.el_failover", "reassign | standby", "standby",
       "what mounts a dead shard's log: surviving shard or cold standby"},
      {"faults.el_failover_delay", "<duration>", "25ms",
       "shard-crash detection + log-mount initiation delay"},
      {"faults.service_retry", "<duration>", "500ms",
       "client retransmit interval for unacked EL/ckpt requests"},
      {"faults.seed_salt", "<u64>", "77",
       "salt mixed into the campaign's stochastic streams"},
  };
  return table;
}
// END FAULT KEY TABLE (scripts/check_docs.sh)

void strip_fault_key(ScenarioSpec& spec, const std::string& key) {
  using fault::Action;
  using fault::Injection;
  using fault::Target;
  using fault::Trigger;
  bool (*match)(const Injection&) = nullptr;
  if (key == "faults.crash_rank") {
    match = [](const Injection& i) {
      return i.target == Target::kRank && i.trigger != Trigger::kRate;
    };
  } else if (key == "faults.rank_rate") {
    match = [](const Injection& i) {
      return i.target == Target::kRank && i.trigger == Trigger::kRate;
    };
  } else if (key == "faults.crash_daemon") {
    match = [](const Injection& i) {
      return i.target == Target::kDaemon && i.trigger != Trigger::kRate;
    };
  } else if (key == "faults.daemon_rate") {
    match = [](const Injection& i) {
      return i.target == Target::kDaemon && i.trigger == Trigger::kRate;
    };
  } else if (key == "faults.partition") {
    match = [](const Injection& i) {
      return i.target == Target::kFabric && !i.cuts_services();
    };
  } else if (key == "faults.partition_services") {
    match = [](const Injection& i) {
      return i.target == Target::kFabric && i.cuts_services();
    };
  } else if (key == "faults.crash_el") {
    match = [](const Injection& i) {
      return i.target == Target::kElShard && i.action == Action::kCrash;
    };
  } else if (key == "faults.el_outage") {
    match = [](const Injection& i) {
      return i.target == Target::kElShard && i.action == Action::kOutage;
    };
  } else if (key == "faults.ckpt_outage") {
    match = [](const Injection& i) { return i.target == Target::kCkptServer; };
  } else if (key == "faults.link_latency") {
    match = [](const Injection& i) {
      return i.target == Target::kLink && i.action == Action::kLatencySpike;
    };
  } else if (key == "faults.link_drop") {
    match = [](const Injection& i) {
      return i.target == Target::kLink && i.action == Action::kDropWindow;
    };
  } else {
    return;  // scalar keys override naturally
  }
  auto& inj = spec.faults.campaign.injections;
  inj.erase(std::remove_if(inj.begin(), inj.end(), match), inj.end());
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const std::string tok = trim(csv.substr(pos, comma - pos));
    if (!tok.empty()) out.push_back(tok);
    pos = comma + 1;
  }
  return out;
}

std::int64_t WorkloadSpec::get_int(const std::string& key,
                                   std::int64_t fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback
                            : parse_i64("workload." + key, it->second);
}

std::uint64_t WorkloadSpec::get_u64(const std::string& key,
                                    std::uint64_t fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback
                            : parse_u64("workload." + key, it->second);
}

double WorkloadSpec::get_double(const std::string& key, double fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback
                            : parse_f64("workload." + key, it->second);
}

std::string WorkloadSpec::get_str(const std::string& key,
                                  const std::string& fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

void apply_key(ScenarioSpec& spec, const std::string& raw_key,
               const std::string& raw_value) {
  const std::string key = trim(raw_key);
  const std::string value = trim(raw_value);
  if (key == "name") {
    spec.name = value;
  } else if (key == "notes") {
    spec.notes = value;
  } else if (key == "variant") {
    spec.variant = parse_variant(value);
  } else if (key == "protocol") {
    spec.variant.protocol = protocols().at(value).kind;
    refresh_variant(spec.variant);
  } else if (key == "strategy") {
    spec.variant.strategy = strategies().at(value).kind;
    refresh_variant(spec.variant);
  } else if (key == "event_logger") {
    spec.variant.event_logger = parse_bool(key, value);
    refresh_variant(spec.variant);
  } else if (key == "nranks") {
    spec.nranks = static_cast<int>(parse_i64(key, value));
  } else if (key == "el_shards") {
    spec.el_shards = static_cast<int>(parse_i64(key, value));
    spec.el_shards_set = true;
  } else if (key == "el_standby") {
    spec.el_standby = static_cast<int>(parse_i64(key, value));
  } else if (key == "seed") {
    spec.seed = parse_u64(key, value);
  } else if (key == "ckpt_policy") {
    spec.ckpt_policy = parse_policy(key, value);
  } else if (key == "ckpt_interval") {
    spec.ckpt_interval = parse_time(key, value);
  } else if (key == "detection_delay") {
    spec.detection_delay = parse_time(key, value);
  } else if (key == "max_sim_time") {
    spec.max_sim_time = parse_time(key, value);
  } else if (key == "compare_reference") {
    spec.compare_reference = parse_bool(key, value);
  } else if (key == "replica.sync_interval") {
    spec.replica_sync_interval = static_cast<int>(parse_i64(key, value));
  } else if (key == "runner.parallelism") {
    spec.runner_parallelism = static_cast<int>(parse_i64(key, value));
  } else if (key == "ulfm.repair_cost") {
    spec.ulfm_repair_cost = parse_time(key, value);
  } else if (key == "payload_at_sender") {
    spec.payload_at_sender = parse_bool(key, value);
  } else if (key == "faults_per_minute") {
    spec.faults.faults_per_minute = parse_f64(key, value);
  } else if (key == "fault") {
    // "<time>:<rank>", e.g. "120ms:1" — repeat the key for more faults.
    const std::size_t colon = value.rfind(':');
    if (colon == std::string::npos) bad_value(key, value, "'<time>:<rank>'");
    spec.faults.faults.push_back(runtime::FaultSpec{
        parse_time(key, value.substr(0, colon)),
        static_cast<int>(parse_i64(key, value.substr(colon + 1)))});
  } else if (key == "midrun_fault_rank") {
    spec.faults.midrun_rank = static_cast<int>(parse_i64(key, value));
  } else if (key == "midrun_fault_frac") {
    spec.faults.midrun_frac = parse_f64(key, value);
  } else if (key == "workload") {
    // Same contract as ScenarioBuilder::workload(): switching workloads
    // drops the previous workload's parameters.
    spec.workload.name = value;
    spec.workload.params.clear();
  } else if (key == "nas") {
    // Compound NAS selector "<kernel>:<class>:<scale>" — one sweep axis
    // value carries the kernel together with its calibrated scale.
    const std::size_t c1 = value.find(':');
    const std::size_t c2 = c1 == std::string::npos ? c1 : value.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) {
      bad_value(key, value, "'<kernel>:<class>:<scale>' like bt:A:0.15");
    }
    spec.workload.name = "nas";
    spec.workload.params.clear();
    spec.workload.params["kernel"] = trim(value.substr(0, c1));
    spec.workload.params["class"] = trim(value.substr(c1 + 1, c2 - c1 - 1));
    spec.workload.params["scale"] = trim(value.substr(c2 + 1));
  } else if (key.rfind("workload.", 0) == 0) {
    spec.workload.params[key.substr(sizeof("workload.") - 1)] = value;
  } else if (key.rfind("faults.", 0) == 0) {
    if (!apply_fault_key(spec, key, value)) {
      std::string known;
      for (const FaultKeyInfo& e : fault_key_table()) {
        if (!known.empty()) known += ", ";
        known += e.key;
      }
      throw SpecError("unknown faults key '" + key + "' (known: " + known +
                      ")");
    }
  } else if (key == "trace.enabled") {
    spec.trace.enabled = parse_bool(key, value);
  } else if (key == "trace.capacity") {
    spec.trace.capacity = static_cast<std::uint32_t>(parse_u64(key, value));
  } else if (key == "trace.dir") {
    spec.trace_dir = value;
  } else if (key == "metrics.enabled") {
    spec.metrics.enabled = parse_bool(key, value);
  } else if (key == "metrics.sample_interval") {
    spec.metrics.sample_interval = parse_time(key, value);
  } else if (key == "metrics.dir") {
    spec.metrics_dir = value;
  } else if (key.rfind("cost.", 0) == 0) {
    if (!apply_cost_key(spec.cost, key, value)) {
      throw SpecError("unknown cost key '" + key + "'");
    }
  } else {
    throw SpecError("unknown scenario key '" + key + "'");
  }
}

ScenarioSpec parse_scenario_text(const std::string& text,
                                 const std::string& origin) {
  ScenarioSpec spec;
  std::istringstream in(text);
  std::string line;
  std::string section = "scenario";
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    try {
      if (line.front() == '[') {
        if (line.back() != ']') throw SpecError("unterminated section header");
        section = trim(line.substr(1, line.size() - 2));
        if (section != "scenario" && section != "cost" && section != "sweep" &&
            section != "quick" && section != "faults" && section != "trace" &&
            section != "metrics") {
          throw SpecError("unknown section [" + section +
                          "] (use [scenario], [cost], [faults], [trace], "
                          "[metrics], [sweep], [quick])");
        }
        continue;
      }
      const std::size_t eq = line.find('=');
      if (eq == std::string::npos) {
        throw SpecError("expected 'key = value', got '" + line + "'");
      }
      const std::string key = trim(line.substr(0, eq));
      const std::string value = trim(line.substr(eq + 1));
      if (key.empty()) throw SpecError("empty key");
      if (section == "scenario") {
        apply_key(spec, key, value);
      } else if (section == "cost") {
        apply_key(spec, "cost." + key, value);
      } else if (section == "faults") {
        apply_key(spec, "faults." + key, value);
      } else if (section == "trace") {
        apply_key(spec, "trace." + key, value);
      } else if (section == "metrics") {
        apply_key(spec, "metrics." + key, value);
      } else if (section == "sweep") {
        const std::vector<std::string> values = split_list(value);
        if (values.empty()) {
          throw SpecError("sweep axis '" + key + "' has no values");
        }
        spec.sweep.emplace_back(key, values);
      } else {  // quick
        spec.quick.emplace_back(key, value);
      }
    } catch (const SpecError& e) {
      throw SpecError(origin + ":" + std::to_string(lineno) + ": " + e.what());
    }
  }
  return spec;
}

ScenarioSpec parse_scenario_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw SpecError("cannot open scenario file '" + path + "'");
  std::ostringstream body;
  body << f.rdbuf();
  ScenarioSpec spec = parse_scenario_text(body.str(), path);
  if (spec.name == "unnamed") {
    // Default the name to the file stem.
    std::string stem = path;
    if (const std::size_t slash = stem.find_last_of('/'); slash != std::string::npos) {
      stem = stem.substr(slash + 1);
    }
    if (const std::size_t dot = stem.find_last_of('.'); dot != std::string::npos) {
      stem = stem.substr(0, dot);
    }
    spec.name = stem;
  }
  return spec;
}

std::string to_scenario_text(const ScenarioSpec& spec) {
  std::ostringstream out;
  char buf[64];
  auto num = [&buf](double v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  out << "[scenario]\n";
  out << "name = " << spec.name << "\n";
  if (!spec.notes.empty()) out << "notes = " << spec.notes << "\n";
  out << "variant = " << spec.variant.name << "\n";
  out << "nranks = " << spec.nranks << "\n";
  if (spec.el_shards_set) out << "el_shards = " << spec.el_shards << "\n";
  if (spec.el_standby != 0) out << "el_standby = " << spec.el_standby << "\n";
  out << "seed = " << spec.seed << "\n";
  if (spec.ckpt_policy != ckpt::Policy::kNone || spec.ckpt_interval != 0) {
    out << "ckpt_policy = " << ckpt::policy_name(spec.ckpt_policy) << "\n";
    out << "ckpt_interval = " << spec.ckpt_interval << "ns\n";
  }
  out << "detection_delay = " << spec.detection_delay << "ns\n";
  out << "max_sim_time = " << spec.max_sim_time << "ns\n";
  if (spec.compare_reference) out << "compare_reference = true\n";
  // Protocol-family knobs: emitted only when they depart from the defaults
  // (same contract as [trace] / [cost] below), so existing scenarios
  // round-trip byte-identically.
  const ScenarioSpec sdef{};
  if (spec.replica_sync_interval != sdef.replica_sync_interval) {
    out << "replica.sync_interval = " << spec.replica_sync_interval << "\n";
  }
  if (spec.ulfm_repair_cost != sdef.ulfm_repair_cost) {
    out << "ulfm.repair_cost = " << spec.ulfm_repair_cost << "ns\n";
  }
  if (spec.runner_parallelism != sdef.runner_parallelism) {
    out << "runner.parallelism = " << spec.runner_parallelism << "\n";
  }
  if (spec.payload_at_sender) out << "payload_at_sender = true\n";
  if (spec.faults.faults_per_minute > 0) {
    out << "faults_per_minute = " << num(spec.faults.faults_per_minute) << "\n";
  }
  for (const runtime::FaultSpec& f : spec.faults.faults) {
    out << "fault = " << f.at << "ns:" << f.rank << "\n";
  }
  if (spec.faults.midrun_rank >= 0) {
    out << "midrun_fault_rank = " << spec.faults.midrun_rank << "\n";
    out << "midrun_fault_frac = " << num(spec.faults.midrun_frac) << "\n";
  }
  out << "workload = " << spec.workload.name << "\n";
  for (const auto& [k, v] : spec.workload.params) {
    out << "workload." << k << " = " << v << "\n";
  }
  // The [trace] section is emitted only when tracing departs from the
  // all-defaults (disabled) config — same contract as [cost] below.
  const trace::Config tdef{};
  if (spec.trace.enabled || spec.trace.capacity != tdef.capacity ||
      !spec.trace_dir.empty()) {
    out << "\n[trace]\n";
    out << "enabled = " << (spec.trace.enabled ? "true" : "false") << "\n";
    if (spec.trace.capacity != tdef.capacity) {
      out << "capacity = " << spec.trace.capacity << "\n";
    }
    if (!spec.trace_dir.empty()) out << "dir = " << spec.trace_dir << "\n";
  }
  // The [metrics] section, same only-when-non-default contract.
  const metrics::Config mdef{};
  if (spec.metrics.enabled ||
      spec.metrics.sample_interval != mdef.sample_interval ||
      !spec.metrics_dir.empty()) {
    out << "\n[metrics]\n";
    out << "enabled = " << (spec.metrics.enabled ? "true" : "false") << "\n";
    if (spec.metrics.sample_interval != mdef.sample_interval) {
      out << "sample_interval = " << spec.metrics.sample_interval << "ns\n";
    }
    if (!spec.metrics_dir.empty()) out << "dir = " << spec.metrics_dir << "\n";
  }
  // The [cost] section is emitted only when a supported knob differs from
  // the calibrated default.
  const net::CostModel def{};
  std::ostringstream cost_body;
  const net::CostModel& c = spec.cost;
  if (c.bandwidth_bps != def.bandwidth_bps) {
    cost_body << "bandwidth_mbps = " << num(c.bandwidth_bps / 1e6) << "\n";
  }
  if (c.wire_latency != def.wire_latency) {
    cost_body << "wire_latency = " << c.wire_latency << "ns\n";
  }
  if (c.el_service != def.el_service) {
    cost_body << "el_service = " << c.el_service << "ns\n";
  }
  if (c.el_ack_build != def.el_ack_build) {
    cost_body << "el_ack_build = " << c.el_ack_build << "ns\n";
  }
  if (c.mlog_send_fixed != def.mlog_send_fixed) {
    cost_body << "mlog_send_fixed = " << c.mlog_send_fixed << "ns\n";
  }
  if (c.mlog_recv_fixed != def.mlog_recv_fixed) {
    cost_body << "mlog_recv_fixed = " << c.mlog_recv_fixed << "ns\n";
  }
  if (c.eager_threshold != def.eager_threshold) {
    cost_body << "eager_threshold = " << c.eager_threshold << "\n";
  }
  if (c.node_gflops != def.node_gflops) {
    cost_body << "node_gflops = " << num(c.node_gflops) << "\n";
  }
  if (c.ckpt_disk_bps != def.ckpt_disk_bps) {
    cost_body << "ckpt_disk_mbps = " << num(c.ckpt_disk_bps / 8 / 1e6) << "\n";
  }
  if (c.slog_ns_per_byte != def.slog_ns_per_byte) {
    cost_body << "slog_ns_per_byte = " << num(c.slog_ns_per_byte) << "\n";
  }
  if (!cost_body.str().empty()) {
    out << "\n[cost]\n" << cost_body.str();
  }
  // The [faults] campaign section: one line per injection plus any
  // non-default engine knobs (same keys apply_fault_key parses back).
  const fault::Campaign& camp = spec.faults.campaign;
  const fault::Campaign defc{};
  std::ostringstream fb;
  for (const fault::Injection& inj : camp.injections) {
    switch (inj.target) {
      case fault::Target::kRank:
        if (inj.trigger == fault::Trigger::kRate) {
          fb << "rank_rate = " << num(inj.rate_per_minute) << "\n";
        } else if (inj.trigger == fault::Trigger::kOnCheckpoint) {
          fb << "crash_rank = ckpt@" << inj.nth << ":" << inj.index << "\n";
        } else {
          fb << "crash_rank = " << inj.at << "ns:" << inj.index << "\n";
        }
        break;
      case fault::Target::kElShard:
        if (inj.action == fault::Action::kOutage) {
          fb << "el_outage = " << inj.at << "ns:" << inj.index << ":"
             << inj.duration << "ns\n";
        } else if (inj.trigger == fault::Trigger::kOnElStored) {
          fb << "crash_el = stored@" << inj.nth << ":" << inj.index << "\n";
        } else {
          fb << "crash_el = " << inj.at << "ns:" << inj.index << "\n";
        }
        break;
      case fault::Target::kDaemon:
        if (inj.trigger == fault::Trigger::kRate) {
          fb << "daemon_rate = " << num(inj.rate_per_minute) << "\n";
        } else if (inj.duration > 0) {
          fb << "crash_daemon = " << inj.at << "ns:" << inj.index << ":"
             << inj.duration << "ns\n";
        } else {
          fb << "crash_daemon = " << inj.at << "ns:" << inj.index << "\n";
        }
        break;
      case fault::Target::kFabric:
        if (inj.cuts_services()) {
          fb << "partition_services = " << inj.at << "ns:"
             << format_service_group(inj.group_a, inj.services_a) << "|"
             << format_service_group(inj.group_b, inj.services_b) << ":"
             << inj.duration << "ns:" << inj.magnitude << "ns\n";
        } else {
          fb << "partition = " << inj.at << "ns:"
             << format_rank_group(inj.group_a) << "|"
             << format_rank_group(inj.group_b) << ":" << inj.duration << "ns:"
             << inj.magnitude << "ns\n";
        }
        break;
      case fault::Target::kCkptServer:
        fb << "ckpt_outage = " << inj.at << "ns:" << inj.duration << "ns\n";
        break;
      case fault::Target::kLink:
        if (inj.action == fault::Action::kDropWindow) {
          fb << "link_drop = " << inj.at << "ns:" << inj.index << ":"
             << inj.duration << "ns:" << inj.magnitude << "ns\n";
        } else {
          fb << "link_latency = " << inj.at << "ns:" << inj.index << ":"
             << inj.magnitude << "ns:" << inj.duration << "ns\n";
        }
        break;
    }
  }
  if (camp.el_failover != defc.el_failover) {
    fb << "el_failover = " << fault::el_failover_name(camp.el_failover) << "\n";
  }
  if (camp.el_failover_delay != defc.el_failover_delay) {
    fb << "el_failover_delay = " << camp.el_failover_delay << "ns\n";
  }
  if (camp.detection_delay != defc.detection_delay) {
    fb << "detection_delay = " << camp.detection_delay << "ns\n";
  }
  if (camp.daemon_restart_delay != defc.daemon_restart_delay) {
    fb << "daemon_restart_delay = " << camp.daemon_restart_delay << "ns\n";
  }
  if (camp.service_retry != defc.service_retry) {
    fb << "service_retry = " << camp.service_retry << "ns\n";
  }
  if (camp.seed_salt != defc.seed_salt) {
    fb << "seed_salt = " << camp.seed_salt << "\n";
  }
  if (!fb.str().empty()) {
    out << "\n[faults]\n" << fb.str();
  }
  if (!spec.sweep.empty()) {
    out << "\n[sweep]\n";
    for (const auto& [axis, values] : spec.sweep) {
      out << axis << " = ";
      for (std::size_t i = 0; i < values.size(); ++i) {
        out << (i ? ", " : "") << values[i];
      }
      out << "\n";
    }
  }
  if (!spec.quick.empty()) {
    out << "\n[quick]\n";
    for (const auto& [k, v] : spec.quick) out << k << " = " << v << "\n";
  }
  return out.str();
}

fault::Campaign FaultPlan::lowered() const {
  fault::Campaign c = campaign;
  std::vector<fault::Injection> crashes;
  crashes.reserve(faults.size());
  for (const runtime::FaultSpec& f : faults) {
    crashes.push_back(fault::rank_crash_at(f.at, f.rank));
  }
  c.injections.insert(c.injections.begin(), crashes.begin(), crashes.end());
  if (faults_per_minute > 0) {
    c.injections.push_back(fault::rank_crash_rate(faults_per_minute));
  }
  return c;
}

void validate(const ScenarioSpec& spec) {
  auto fail = [&spec](const std::string& what) {
    throw SpecError("scenario '" + spec.name + "': " + what);
  };
  if (spec.nranks <= 0) {
    fail("nranks must be positive (got " + std::to_string(spec.nranks) + ")");
  }
  if (spec.nranks > 4096) {
    fail("nranks " + std::to_string(spec.nranks) + " exceeds the 4096 limit");
  }
  if (spec.el_shards < 1) {
    fail("el_shards must be >= 1 (got " + std::to_string(spec.el_shards) + ")");
  }
  if (spec.el_shards > spec.nranks) {
    fail("el_shards (" + std::to_string(spec.el_shards) +
         ") cannot exceed nranks (" + std::to_string(spec.nranks) + ")");
  }
  if (spec.el_shards_set && spec.el_shards > 1 && !spec.variant.event_logger) {
    // Mirrors the Cluster-level check: one shard means no sharding, so an
    // explicit el_shards = 1 stays legal without an event logger.
    fail("el_shards = " + std::to_string(spec.el_shards) + " but variant '" +
         spec.variant.name +
         "' disables the event logger — sharding needs event_logger = true");
  }
  if (spec.el_standby < 0 || spec.el_standby > 64) {
    fail("el_standby must be in [0, 64] (got " +
         std::to_string(spec.el_standby) + ")");
  }
  if (spec.el_standby > 0 && !spec.variant.event_logger) {
    fail("el_standby = " + std::to_string(spec.el_standby) + " but variant '" +
         spec.variant.name + "' disables the event logger");
  }
  if (!protocol_entry(spec.variant.protocol).fault_tolerant &&
      spec.faults.any()) {
    fail(spec.variant.label + " is not fault tolerant — remove the fault plan");
  }
  if (spec.faults.midrun_rank >= spec.nranks) {
    fail("midrun fault names rank " + std::to_string(spec.faults.midrun_rank) +
         " but only ranks 0.." + std::to_string(spec.nranks - 1) + " exist");
  }
  if (spec.faults.midrun_frac <= 0 || spec.faults.midrun_frac >= 1) {
    fail("midrun_fault_frac must be in (0, 1)");
  }
  if (spec.faults.faults_per_minute < 0) {
    fail("faults_per_minute must be >= 0");
  }
  // Campaign sanity through the shared rule set (fault/campaign.hpp), on
  // the lowered plan so every crash spelling obeys the same rules —
  // scenario files must fail with a reportable SpecError, not an abort.
  fault::validate_campaign(spec.faults.lowered(), spec.nranks,
                           spec.el_shards + spec.el_standby,
                           spec.variant.event_logger, fail);
  if (spec.ckpt_interval < 0) fail("ckpt_interval must be >= 0");
  if (spec.replica_sync_interval < 0) {
    fail("replica.sync_interval must be >= 0 (got " +
         std::to_string(spec.replica_sync_interval) + ")");
  }
  if (spec.ulfm_repair_cost < 0) fail("ulfm.repair_cost must be >= 0");
  if (spec.runner_parallelism < 1 || spec.runner_parallelism > 1024) {
    fail("runner.parallelism must be in [1, 1024] (got " +
         std::to_string(spec.runner_parallelism) + ")");
  }
  if (spec.payload_at_sender &&
      spec.variant.protocol != runtime::ProtocolKind::kCausal) {
    fail("payload_at_sender is a causal-logging knob but variant '" +
         spec.variant.name + "' is not causal");
  }
  if (spec.trace.capacity < 16 || spec.trace.capacity > (1u << 22)) {
    fail("trace.capacity must be in [16, 4194304] (got " +
         std::to_string(spec.trace.capacity) + ")");
  }
  if (spec.metrics.sample_interval <= 0) {
    fail("metrics.sample_interval must be > 0 (got " +
         std::to_string(spec.metrics.sample_interval) + "ns)");
  }
  const WorkloadEntry& wl = workload_registry().at(spec.workload.name);
  for (const auto& [param, value] : spec.workload.params) {
    bool known = false;
    for (const char* k : wl.params) known = known || param == k;
    if (!known) {
      std::string msg = "workload '" + spec.workload.name +
                        "' has no parameter '" + param + "' (parameters: ";
      for (std::size_t i = 0; i < wl.params.size(); ++i) {
        if (i) msg += ", ";
        msg += wl.params[i];
      }
      fail(msg + ")");
    }
  }
}

ScenarioBuilder& ScenarioBuilder::wparam(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return wparam(key, std::string(buf));
}

ScenarioBuilder& ScenarioBuilder::ring(int laps, std::uint64_t token_bytes) {
  return workload("ring")
      .wparam("laps", laps)
      .wparam("bytes", token_bytes);
}

ScenarioBuilder& ScenarioBuilder::random_any(int iterations,
                                             std::uint64_t wseed,
                                             std::uint64_t bytes) {
  return workload("random_any")
      .wparam("iters", iterations)
      .wparam("seed", wseed)
      .wparam("bytes", bytes);
}

ScenarioBuilder& ScenarioBuilder::random_then_ring(int rand_iters,
                                                   int ring_laps,
                                                   std::uint64_t wseed,
                                                   std::uint64_t bytes) {
  return workload("random_then_ring")
      .wparam("rand_iters", rand_iters)
      .wparam("ring_laps", ring_laps)
      .wparam("seed", wseed)
      .wparam("bytes", bytes);
}

ScenarioBuilder& ScenarioBuilder::pingpong(
    const std::vector<std::uint64_t>& sizes, int reps) {
  std::string csv;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (i) csv += ",";
    csv += std::to_string(sizes[i]);
  }
  return workload("pingpong").wparam("sizes", csv).wparam("reps", reps);
}

ScenarioBuilder& ScenarioBuilder::nas(workloads::NasKernel kernel,
                                      workloads::NasClass klass, double scale) {
  const char* kname = "cg";
  switch (kernel) {
    case workloads::NasKernel::kBT: kname = "bt"; break;
    case workloads::NasKernel::kCG: kname = "cg"; break;
    case workloads::NasKernel::kLU: kname = "lu"; break;
    case workloads::NasKernel::kFT: kname = "ft"; break;
    case workloads::NasKernel::kMG: kname = "mg"; break;
    case workloads::NasKernel::kSP: kname = "sp"; break;
  }
  return workload("nas")
      .wparam("kernel", std::string(kname))
      .wparam("class", std::string(1, workloads::nas_class_letter(klass)))
      .wparam("scale", scale);
}

}  // namespace mpiv::scenario
