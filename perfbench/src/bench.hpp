// Shared declarations of the perfbench binary.
//
// The parent process (main.cpp) guards the build environment, spawns one
// child process per workload run, gates every child's outputs and prints
// the metrics. A child (child.cpp) runs one workload through the public
// scenario/runtime API and reports `key value` lines on its stdout; the
// traced child also runs the layer probes (probes.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "causal/strategy.hpp"

namespace perfbench {

/// The benchmark's workloads, in listing order.
inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "vcausal_scale96", "lu16_logon", "lu16_pessimistic_recovery"};
  return names;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Toy sizes (8 ranks, small LU fraction) for the self-test.
  bool toy = false;
};

/// What a child runs: `timed` (untraced, repeated set-up), `traced`
/// (spans + engine sampler + layer probes) or `twin` (the p4 run whose NAS
/// checksums gate the LU workloads).
int run_child(const std::string& kind, const Options& opt);

/// Inputs of the layer probes, all taken from one workload's exact counts.
struct ProbeInputs {
  int nranks = 1;
  /// False for non-causal protocols: the causal probes then run the
  /// Vcausal strategy at its smallest size (one unstable event per creator,
  /// one event per piggyback) so every metric is still measured.
  bool causal = false;
  mpiv::causal::StrategyKind strategy = mpiv::causal::StrategyKind::kVcausal;
  std::uint64_t unstable = 0;      // causal.event_store_peak
  std::uint64_t mean_pb_events = 0;  // causal.pb_events / net.app_msgs
  std::uint64_t queue_peak = 0;    // sim.queue_peak
  std::uint64_t seed = 1;
};

struct ProbeResults {
  double build_us_p50 = 0;
  double build_us_p99 = 0;
  double absorb_us_p50 = 0;
  double absorb_us_p99 = 0;
  std::uint64_t calls = 0;
  double serialize_ns_per_event = 0;
  double parse_ns_per_event = 0;
  double dispatch_ns = 0;
};

ProbeResults run_probes(const ProbeInputs& in);

/// p-th percentile (0..100, nearest rank) of `v`; sorts it. 0 when empty.
double percentile(std::vector<double>& v, double p);

}  // namespace perfbench
