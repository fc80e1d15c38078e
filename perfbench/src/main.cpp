// perfbench — the repository benchmark.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--toy]
//
// Workloads: vcausal_scale96, lu16_logon, lu16_pessimistic_recovery (see
// perfbench/README.md). Every workload run executes in its own child
// process (this binary re-executed with --child), serially.
//
// --trace 0 repeats untraced runs for S seconds and reports the end-to-end
// metrics (medians): run_s, setup_s, peak_rss_mb, sim_events_per_s,
// pass_ratio. --trace 1 makes one untraced run (exact per-layer counts) and
// one traced run (spans, engine slice sampler, layer probes) and reports
// the per-layer metrics.
//
// Every run passes the correctness gate or counts as failed: NAS checksums
// equal the p4 twin's, the recovery workload is recovered_exact, the
// scale workload completes, exact counts repeat bit for bit across runs
// and between the traced and untraced passes. The last stdout line is one
// JSON object {correct, attempted, failed, metrics}; the exit status is 0
// only when every run passed.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using KeyValues = std::map<std::string, std::string>;

/// A child may not outlive the benchmark's own 180 s limit.
constexpr unsigned kChildAlarmSeconds = 170;
/// Upper bound on timed children, whatever --seconds says.
constexpr int kMaxTimedRuns = 40;

struct Metric {
  const char* name;
  const char* unit;
};

/// Per-layer metrics. "count" entries come from the untraced run's
/// ClusterReport (exact); the rest from the traced run.
struct LayerMetric {
  const char* name;
  const char* unit;
  bool exact;
};

constexpr LayerMetric kPerLayer[] = {
    {"sim.events", "count", true},
    {"sim.makespan_s", "sim_s", true},
    {"net.wire_bytes", "bytes", true},
    {"net.app_msgs", "count", true},
    {"mpi.replayed_receptions", "count", true},
    {"causal.pb_events", "count", true},
    {"causal.pb_bytes", "bytes", true},
    {"causal.pb_pct", "%", true},
    {"causal.pb_peak_msg_events", "count", true},
    {"causal.send_cpu_sim_s", "sim_s", true},
    {"causal.recv_cpu_sim_s", "sim_s", true},
    {"causal.event_store_peak", "count", true},
    {"causal.graph_peak_nodes", "count", true},
    {"causal.sender_log_peak_bytes", "bytes", true},
    {"elog.events_stored", "count", true},
    {"elog.acks_sent", "count", true},
    {"elog.peak_queue", "count", true},
    {"elog.ack_p50_us", "sim_us", true},
    {"elog.ack_p99_us", "sim_us", true},
    {"ckpt.images", "count", true},
    {"fault.recoveries", "count", true},
    {"fault.image_ms", "sim_ms", true},
    {"fault.collect_ms", "sim_ms", true},
    {"fault.replay_ms", "sim_ms", true},
    {"fault.replay_events", "count", true},
    {"workloads.mops", "Mop/s", true},
    {"scenario.parse_s", "s", false},
    {"scenario.lower_s", "s", false},
    {"runtime.construct_s", "s", false},
    {"runtime.run_s", "s", false},
    {"scenario.report_s", "s", false},
    {"sim.host_ns_per_event.p50", "ns", false},
    {"sim.host_ns_per_event.p99", "ns", false},
    {"sim.slices", "count", false},
    {"sim.queue_peak", "count", false},
    {"sim.dispatch_ns", "ns", false},
    {"causal.build_us.p50", "us", false},
    {"causal.build_us.p99", "us", false},
    {"causal.absorb_us.p50", "us", false},
    {"causal.absorb_us.p99", "us", false},
    {"causal.probe_calls", "count", false},
    {"causal.wire.serialize_ns_per_event", "ns", false},
    {"causal.wire.parse_ns_per_event", "ns", false},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--toy]\n"
               "workloads:",
               why);
  for (const std::string& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// Median (mean of the middle two for an even count); NaN when empty.
double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

std::string trim(const std::string& s) {
  const std::size_t a = s.find_first_not_of(" \t\r\n");
  if (a == std::string::npos) return "";
  return s.substr(a, s.find_last_not_of(" \t\r\n") - a + 1);
}

// --- environment guard -----------------------------------------------------

struct Environment {
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  unsigned nproc = 0;
};

/// Reads this binary's build tree and refuses to time a non-Release or
/// sanitizer build. Exits with status 2 on refusal.
Environment guard_environment() {
  const std::string path = std::string(PERFBENCH_BUILD_DIR) + "/CMakeCache.txt";
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::map<std::string, std::string> cache;
  for (std::string line; std::getline(f, line);) {
    const std::size_t colon = line.find(':');
    const std::size_t eq = line.find('=');
    if (line.empty() || line[0] == '#' || line[0] == '/' ||
        colon == std::string::npos || eq == std::string::npos || colon > eq) {
      continue;
    }
    cache[line.substr(0, colon)] = trim(line.substr(eq + 1));
  }
  Environment env;
  env.compiler = cache["CMAKE_CXX_COMPILER"] + " " + __VERSION__;
  env.build_type = cache["CMAKE_BUILD_TYPE"];
  env.cxx_flags = trim(cache["CMAKE_CXX_FLAGS"] + " " + cache["CMAKE_CXX_FLAGS_RELEASE"]);
  env.nproc = std::thread::hardware_concurrency();
  const std::string sanitize = cache["MPIV_SANITIZE"];
  const bool sanitized = sanitize == "ON" || sanitize == "TRUE" || sanitize == "1" ||
                         env.cxx_flags.find("-fsanitize") != std::string::npos ||
                         cache["CMAKE_EXE_LINKER_FLAGS"].find("-fsanitize") !=
                             std::string::npos;
  if (env.build_type != "Release" || sanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to time build tree %s (CMAKE_BUILD_TYPE=%s, "
                 "sanitizer %s); configure it with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_DIR, env.build_type.c_str(), sanitized ? "on" : "off");
    std::exit(2);
  }
  return env;
}

// --- children --------------------------------------------------------------

struct Child {
  bool exited_ok = false;
  std::string status;
  KeyValues kv;
  double maxrss_mb = 0;
};

std::string self_exe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
}

/// Runs this binary as `--child kind` and collects its `key value` lines
/// and peak RSS. Waits for the child to end.
Child spawn_child(const std::string& kind, const Options& o) {
  Child c;
  std::vector<std::string> args = {self_exe(), "--child", kind, "--workload",
                                   o.workload, "--seed", std::to_string(o.seed)};
  if (o.toy) args.emplace_back("--toy");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) {
    c.status = "pipe failed";
    return c;
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    c.status = std::string("spawn failed: ") + std::strerror(rc);
    return c;
  }
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  c.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  c.exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  c.status = WIFEXITED(status) ? "exit " + std::to_string(WEXITSTATUS(status))
                               : "signal " + std::to_string(WTERMSIG(status));
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    const std::size_t sp = line.find(' ');
    if (sp != std::string::npos) c.kv[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return c;
}

double num(const KeyValues& kv, const std::string& key) {
  const auto it = kv.find(key);
  return it == kv.end() ? std::nan("") : std::strtod(it->second.c_str(), nullptr);
}

std::string str(const KeyValues& kv, const std::string& key) {
  const auto it = kv.find(key);
  return it == kv.end() ? "" : it->second;
}

/// Keys whose values must repeat bit for bit: exact counts and outputs.
bool deterministic_key(const std::string& key) {
  return key.rfind("count.", 0) == 0 || key == "checksums" ||
         key == "reference_checksums" || key == "events" || key == "outcome" ||
         key == "completed";
}

/// Empty when `c` met the workload's expected outcome, else why not.
/// `twin` holds the p4 twin's checksums (LU workloads); `base` is an earlier
/// run whose deterministic outputs `c` must reproduce (null for the first).
std::string gate(const Options& o, const Child& c, const std::string& twin,
                 const Child* base) {
  if (!c.exited_ok) return "child " + c.status;
  if (str(c.kv, "completed") != "1") return "run did not complete";
  const std::string outcome = str(c.kv, "outcome");
  if (o.workload == "vcausal_scale96" && outcome != "completed") {
    return "outcome " + outcome + ", expected completed";
  }
  if (o.workload == "lu16_logon" && str(c.kv, "checksums") != twin) {
    return "NAS checksums differ from the p4 twin";
  }
  if (o.workload == "lu16_pessimistic_recovery") {
    if (outcome != "recovered_exact") {
      return "outcome " + outcome + ", expected recovered_exact";
    }
    if (str(c.kv, "reference_checksums") != twin) {
      return "reference NAS checksums differ from the p4 twin";
    }
  }
  if (base != nullptr) {
    for (const auto& [key, value] : base->kv) {
      if (deterministic_key(key) && str(c.kv, key) != value) {
        return key + " differs between runs: " + value + " vs " + str(c.kv, key);
      }
    }
  }
  return "";
}

// --- reporting -------------------------------------------------------------

struct Report {
  int attempted = 0;
  int failed = 0;
  std::vector<std::pair<Metric, double>> metrics;
  std::vector<std::string> notes;  // extra human-readable lines

  void add(const char* name, const char* unit, double v) {
    metrics.push_back({Metric{name, unit}, v});
  }
  void record(const std::string& what, const std::string& why) {
    ++attempted;
    if (!why.empty()) {
      ++failed;
      std::printf("FAIL %s: %s\n", what.c_str(), why.c_str());
    }
  }
  bool correct() const {
    if (failed != 0 || attempted == 0) return false;
    for (const auto& m : metrics) {
      if (!std::isfinite(m.second)) return false;
    }
    return true;
  }

  void print(const Environment& env, const Options& o) const {
    std::printf("# perfbench workload=%s seed=%llu trace=%d toy=%d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.trace ? 1 : 0, o.toy ? 1 : 0);
    std::printf("# env compiler=\"%s\" build_type=%s cxx_flags=\"%s\" nproc=%u\n",
                env.compiler.c_str(), env.build_type.c_str(), env.cxx_flags.c_str(),
                env.nproc);
    // pass_ratio is the bounded form; fail_ratio is printed alongside.
    if (std::none_of(metrics.begin(), metrics.end(),
                     [](const auto& m) { return std::strcmp(m.first.name, "fail_ratio") == 0; })) {
      std::printf("  %-40s %20.10g %s\n", "fail_ratio",
                  attempted > 0 ? static_cast<double>(failed) / attempted : 1.0, "ratio");
    }
    for (const auto& [m, v] : metrics) {
      std::printf("  %-40s %20.10g %s\n", m.name, v, m.unit);
    }
    for (const std::string& n : notes) std::printf("%s\n", n.c_str());
    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [m, v] : metrics) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", m.name, std::isfinite(v) ? v : 0.0, m.unit);
      json += buf;
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }
};

/// The p4 twin's NAS checksums (LU workloads only; "" otherwise).
std::string twin_checksums(const Options& o, Report& rep) {
  if (o.workload == "vcausal_scale96") return "";
  const Child t = spawn_child("twin", o);
  if (!t.exited_ok || str(t.kv, "completed") != "1") {
    rep.record("p4 twin", "twin run failed (" + t.status + ")");
    return "<no twin>";
  }
  return str(t.kv, "checksums");
}

void run_timed(const Options& o, Report& rep) {
  const std::string twin = twin_checksums(o, rep);
  const Clock::time_point start = Clock::now();
  std::vector<Child> runs;
  std::vector<double> run_s;
  std::vector<double> setup_s;
  std::vector<double> rss;
  std::vector<double> events;
  int passed = 0;
  // Start another run only while it is expected to end within --seconds
  // (judged by the previous run's length); the first run always starts.
  double last_s = 0;
  do {
    const Clock::time_point t0 = Clock::now();
    runs.push_back(spawn_child("timed", o));
    last_s = std::chrono::duration<double>(Clock::now() - t0).count();
    const Child& c = runs.back();
    const std::string why = gate(o, c, twin, runs.size() > 1 ? &runs.front() : nullptr);
    rep.record("run " + std::to_string(runs.size()), why);
    if (!why.empty()) continue;
    ++passed;
    run_s.push_back(num(c.kv, "run_s"));
    setup_s.push_back(num(c.kv, "setup_s"));
    rss.push_back(c.maxrss_mb);
    events.push_back(num(c.kv, "events"));
  } while (std::chrono::duration<double>(Clock::now() - start).count() + last_s <=
               o.seconds &&
           static_cast<int>(runs.size()) < kMaxTimedRuns);
  rep.add("run_s", "s", median(run_s));
  rep.add("setup_s", "s", median(setup_s));
  rep.add("peak_rss_mb", "MB", median(rss));
  rep.add("sim_events_per_s", "events/s", median(events) / median(run_s));
  char note[128];
  std::snprintf(note, sizeof note, "  %-40s %20zu runs", "run_s.samples", run_s.size());
  rep.notes.emplace_back(note);
  rep.add("pass_ratio", "ratio",
          static_cast<double>(passed) / static_cast<double>(runs.size()));
}

void run_traced(const Options& o, Report& rep) {
  const std::string twin = twin_checksums(o, rep);
  const Child plain = spawn_child("timed", o);
  rep.record("untraced run", gate(o, plain, twin, nullptr));
  const Child traced = spawn_child("traced", o);
  // Schedule neutrality: the traced run must reproduce every exact count
  // and checksum of the untraced one.
  rep.record("traced run", gate(o, traced, twin, &plain));
  for (const LayerMetric& m : kPerLayer) {
    const std::string key = (m.exact ? "count." : "trace.") + std::string(m.name);
    rep.add(m.name, m.unit, num(m.exact ? plain.kv : traced.kv, key));
  }
  rep.add("trace.overhead_ratio", "ratio",
          num(traced.kv, "trace.runtime.run_s") / num(plain.kv, "run_s"));
  rep.add("fail_ratio", "ratio",
          static_cast<double>(rep.failed) / static_cast<double>(rep.attempted));
}

Options parse_args(int argc, char** argv, std::string* child_kind) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      o.trace = t == "1";
    } else if (a == "--toy") {
      o.toy = true;
    } else if (a == "--child") {
      *child_kind = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : workload_names()) known = known || w == o.workload;
  if (!known) usage(("unknown workload '" + o.workload + "'").c_str());
  if (!(o.seconds > 0) || o.seconds > 120) usage("--seconds must be in (0, 120]");
  return o;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string child_kind;
  const Options o = parse_args(argc, argv, &child_kind);
  if (!child_kind.empty()) {
    alarm(kChildAlarmSeconds);
    try {
      return run_child(child_kind, o);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench child: %s\n", e.what());
      return 1;
    }
  }
  const Environment env = guard_environment();
  Report rep;
  if (o.trace) {
    run_traced(o, rep);
  } else {
    run_timed(o, rep);
  }
  rep.print(env, o);
  return rep.correct() ? 0 : 1;
}
