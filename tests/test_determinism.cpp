// Determinism-regression fingerprints for the hot-path storage/engine work
// — now driven through the scenario layer.
//
// Runs one small mixed workload (wildcard traffic, then a ring) under every
// causal variant with and without the Event Logger and asserts that the
// simulation fingerprint — events executed, wire bytes, piggyback bytes —
// is byte-identical to golden values recorded before the sequence-indexed
// storage and engine-lane rewrites. Any storage or scheduling change that
// alters *semantics* (rather than host-side speed) moves at least one of
// these counters; a refactor that keeps them is provably behaviour-
// preserving for everything the paper measures. Because the runs are built
// from ScenarioSpecs, the goldens also pin the spec -> ClusterConfig
// lowering: if the scenario layer lowered anything differently from the
// hand-built configs these values were recorded with, every row would move.
#include <gtest/gtest.h>

#include "causal/reference_strategy.hpp"
#include "scenario/runner.hpp"

namespace mpiv {
namespace {

struct Fingerprint {
  std::uint64_t events_executed = 0;  // sim::Engine events (scheduling trace)
  std::uint64_t wire_bytes = 0;       // every byte on the fabric
  std::uint64_t pb_bytes = 0;         // causal piggyback bytes (Fig. 7 input)
  std::uint64_t checksum = 0;         // order-sensitive app checksum
};

Fingerprint run_variant(const char* variant, bool ckpt, bool traced = false,
                        bool metered = false) {
  scenario::ScenarioBuilder b("determinism");
  b.variant(variant).nranks(4).seed(7);
  if (traced) b.trace();
  if (metered) b.metrics().metrics_sample_interval(100 * sim::kMicrosecond);
  if (ckpt) {
    // Round-robin checkpoints exercise the GC paths: sender-log pruning,
    // Event Logger pruning, and stable-clock advances on the stores.
    b.checkpoint(ckpt::Policy::kRoundRobin, 5 * sim::kMillisecond);
    b.random_any(/*iterations=*/24, /*wseed=*/7, /*bytes=*/2048);
  } else {
    b.random_then_ring(/*rand_iters=*/6, /*ring_laps=*/4, /*wseed=*/7,
                       /*bytes=*/2048);
  }
  const scenario::RunResult r = scenario::run_spec(b.build());
  EXPECT_TRUE(r.completed);
  Fingerprint fp;
  fp.events_executed = r.events_executed;
  fp.wire_bytes = r.wire_bytes;
  fp.pb_bytes = r.report.totals().pb_bytes_sent;
  fp.checksum = r.checksum_digest();
  return fp;
}

struct Golden {
  const char* variant;
  bool ckpt;
  Fingerprint fp;
};

// Recorded from the pre-refactor tree (std::map storage, std::function
// engine, hand-built ClusterConfigs). The scenario lowering must
// reproduce these exactly.
const Golden kGolden[] = {
    {"vcausal:el", false, {1431ull, 113312ull, 5016ull, 0xd2b99efda9bae7f3ull}},
    {"vcausal:noel", false, {730ull, 98120ull, 8832ull, 0xa1c6926540643335ull}},
    {"manetho:el", false, {1431ull, 113312ull, 5016ull, 0xd2b99efda9bae7f3ull}},
    {"manetho:noel", false, {730ull, 97798ull, 8510ull, 0xa1c6926540643335ull}},
    {"logon:el", false, {1431ull, 113560ull, 5264ull, 0xd2b99efda9bae7f3ull}},
    {"logon:noel", false, {730ull, 99616ull, 10328ull, 0xa1c6926540643335ull}},
    {"vcausal:el", true, {6818ull, 4784224ull, 11968ull, 0x85929bbaddbf9432ull}},
    {"manetho:el", true, {6819ull, 4784224ull, 11968ull, 0x85929bbaddbf9432ull}},
    {"logon:el", true, {6819ull, 4784832ull, 12576ull, 0x85929bbaddbf9432ull}},
};

TEST(Determinism, FingerprintMatchesGolden) {
  for (const Golden& g : kGolden) {
    const Fingerprint fp = run_variant(g.variant, g.ckpt);
    SCOPED_TRACE(testing::Message()
                 << g.variant << (g.ckpt ? " +ckpt" : ""));
    if (g.fp.events_executed == 0) {
      // Recording mode: goldens not yet baked in — print what to record.
      std::printf("GOLDEN {\"%s\", %s, {%lluull, %lluull, %lluull, 0x%llxull}},\n",
                  g.variant, g.ckpt ? "true" : "false",
                  static_cast<unsigned long long>(fp.events_executed),
                  static_cast<unsigned long long>(fp.wire_bytes),
                  static_cast<unsigned long long>(fp.pb_bytes),
                  static_cast<unsigned long long>(fp.checksum));
      ADD_FAILURE() << "golden values not recorded yet";
      continue;
    }
    EXPECT_EQ(fp.events_executed, g.fp.events_executed);
    EXPECT_EQ(fp.wire_bytes, g.fp.wire_bytes);
    EXPECT_EQ(fp.pb_bytes, g.fp.pb_bytes);
    EXPECT_EQ(fp.checksum, g.fp.checksum);
  }
}

// Trace capture must be schedule-neutral: a lane write is a struct copy
// stamped with the engine clock, never an event or an allocation the
// engine can observe. Every golden row must therefore be byte-identical
// with tracing on — if enabling lanes moves any counter, capture leaked
// into the simulation.
TEST(Determinism, TraceCaptureDoesNotPerturbTheGoldens) {
  for (const Golden& g : kGolden) {
    const Fingerprint fp = run_variant(g.variant, g.ckpt, /*traced=*/true);
    SCOPED_TRACE(testing::Message()
                 << g.variant << (g.ckpt ? " +ckpt" : "") << " +trace");
    EXPECT_EQ(fp.events_executed, g.fp.events_executed);
    EXPECT_EQ(fp.wire_bytes, g.fp.wire_bytes);
    EXPECT_EQ(fp.pb_bytes, g.fp.pb_bytes);
    EXPECT_EQ(fp.checksum, g.fp.checksum);
  }
}

// Metrics capture rides the engine's observation side-channel: instruments
// are plain accumulation and the gauge sampler fires between events without
// scheduling anything. Every golden row must therefore be byte-identical
// with metrics on — if arming the sampler moves any counter, the metrics
// layer leaked into the simulation.
TEST(Determinism, MetricsCaptureDoesNotPerturbTheGoldens) {
  for (const Golden& g : kGolden) {
    const Fingerprint fp =
        run_variant(g.variant, g.ckpt, /*traced=*/false, /*metered=*/true);
    SCOPED_TRACE(testing::Message()
                 << g.variant << (g.ckpt ? " +ckpt" : "") << " +metrics");
    EXPECT_EQ(fp.events_executed, g.fp.events_executed);
    EXPECT_EQ(fp.wire_bytes, g.fp.wire_bytes);
    EXPECT_EQ(fp.pb_bytes, g.fp.pb_bytes);
    EXPECT_EQ(fp.checksum, g.fp.checksum);
  }
}

// Turns the reference checks on for one test (causal/reference_strategy.hpp):
// every EventStore built meanwhile mirrors a ColumnarStore, and each
// Vcausal/Manetho piggyback is checked against the real factored codec.
struct ReferenceChecksOn {
  ReferenceChecksOn() {
    causal::reference_checks() = {};
    causal::reference_checks().on = true;
  }
  ~ReferenceChecksOn() { causal::reference_checks().on = false; }
};

// Differential run of every determinism config against the reference store
// and codec, with a per-rank twin: for every Vcausal/Manetho message the
// computed size equals the serialized size and the host form's events are
// the serialized ones (checked by the sender), and after the absorb the
// receiver's store and twin hold identical sets (checked by the receiver;
// LogOn's absorbs and every restore are compared too). A failed check dies,
// so the goldens here double as "the checks changed nothing".
TEST(Determinism, PiggybacksMatchTheReferenceStore) {
  const ReferenceChecksOn on;
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(testing::Message() << g.variant << (g.ckpt ? " +ckpt" : ""));
    const std::uint64_t builds = causal::reference_checks().builds;
    const std::uint64_t stores = causal::reference_checks().stores;
    const Fingerprint fp = run_variant(g.variant, g.ckpt);
    EXPECT_EQ(fp.wire_bytes, g.fp.wire_bytes);
    EXPECT_EQ(fp.pb_bytes, g.fp.pb_bytes);
    EXPECT_EQ(fp.checksum, g.fp.checksum);
    EXPECT_GT(causal::reference_checks().stores, stores);
    if (std::string(g.variant).rfind("logon", 0) != 0) {
      EXPECT_GT(causal::reference_checks().builds, builds);
    }
  }
  const causal::ReferenceChecks& rc = causal::reference_checks();
  EXPECT_EQ(rc.builds, rc.absorbs);  // fault-free: every piggyback arrives
  EXPECT_GT(rc.events, 0u);
}

// A random_any mid-run crash under the reference checks: the victim's
// store is restored from its image (re-adding its records to the table),
// learns the survivors' determinants (without EL) and re-creates events
// past its recovered prefix, and every store must still match its twin
// through recovery and the rest of the run. (Wildcard matching makes the
// recovered run differ from the reference pass, so it is not exact.) In
// the last two cases the victim re-creates its newest event as another
// reception, which nobody else held: the table takes the new value.
TEST(Determinism, MidRunCrashMatchesTheReferenceStore) {
  struct Case {
    const char* variant;
    std::uint64_t seed;
    int rank;
    double frac;
    std::uint64_t overwrites;
  };
  for (const Case& c : {Case{"vcausal:el", 7, 1, 0.5, 0}, Case{"manetho:noel", 7, 1, 0.5, 0},
                        Case{"manetho:noel", 1, 1, 0.7, 1},
                        Case{"vcausal:noel", 6, 0, 0.4, 1}}) {
    SCOPED_TRACE(testing::Message() << c.variant << " seed " << c.seed);
    const ReferenceChecksOn on;
    scenario::ScenarioBuilder b("reference-crash");
    b.variant(c.variant).nranks(4).seed(c.seed);
    b.checkpoint(ckpt::Policy::kRoundRobin, 5 * sim::kMillisecond);
    b.random_any(/*iterations=*/24, /*wseed=*/c.seed, /*bytes=*/2048);
    b.midrun_fault(c.rank, c.frac);
    const scenario::RunResult r = scenario::run_spec(b.build());
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.report.fault_counts.rank_crashes, 1u);
    EXPECT_EQ(r.report.recoveries.size(), 1u);
    const causal::ReferenceChecks& rc = causal::reference_checks();
    EXPECT_GT(rc.builds, 0u);
    EXPECT_EQ(rc.overwrites, c.overwrites);
    EXPECT_EQ(rc.own_copies, 0u);
  }
}

// Two crashes under the reference checks: rank 1 crashes and re-creates
// its newest event as another reception, then rank 0 crashes, restores
// its image and recovers. Every store must match its twin throughout. The
// fault engine holds rank 0's crash until rank 1 has recovered, so crashes
// never overlap in a run; EventStoreTest.RecreatedValuesStayPerHolder
// covers the overlapping case store by store.
TEST(Determinism, TwoCrashesMatchTheReferenceStore) {
  for (const char* variant : {"vcausal:noel", "manetho:noel"}) {
    SCOPED_TRACE(variant);
    const ReferenceChecksOn on;
    scenario::ScenarioBuilder b("reference-two-crashes");
    b.variant(variant).nranks(4).seed(1);
    b.checkpoint(ckpt::Policy::kRoundRobin, 5 * sim::kMillisecond);
    b.random_any(/*iterations=*/24, /*wseed=*/1, /*bytes=*/2048);
    b.fault_at(392 * sim::kMillisecond, 1);
    b.fault_at(393 * sim::kMillisecond, 0);
    const scenario::RunResult r = scenario::run_spec(b.build());
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.report.fault_counts.rank_crashes, 2u);
    ASSERT_EQ(r.report.recoveries.size(), 2u);
    EXPECT_LE(r.report.recoveries[0].replay_done_at, r.report.recoveries[1].fault_at);
    const causal::ReferenceChecks& rc = causal::reference_checks();
    EXPECT_GT(rc.absorbs, 0u);
    EXPECT_GT(rc.stores, 0u);
    EXPECT_EQ(rc.overwrites, 1u);
    EXPECT_EQ(rc.own_copies, 0u);
  }
}

// The run is a pure function of the config: two identical runs in one
// process must produce identical fingerprints (catches hidden global state
// or address-dependent ordering in the storage containers).
TEST(Determinism, RepeatRunIsIdentical) {
  const Fingerprint a = run_variant("manetho:el", true);
  const Fingerprint b = run_variant("manetho:el", true);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.pb_bytes, b.pb_bytes);
  EXPECT_EQ(a.checksum, b.checksum);
}

// A scenario spec that parses from text lowers to the exact same run as
// the equivalent builder spec (the file format is a faithful face of the
// API, not an approximation).
TEST(Determinism, ParsedScenarioMatchesBuilderScenario) {
  const char* text =
      "[scenario]\n"
      "name = determinism\n"
      "variant = manetho:el\n"
      "nranks = 4\n"
      "seed = 7\n"
      "ckpt_policy = round-robin\n"
      "ckpt_interval = 5ms\n"
      "workload = random_any\n"
      "workload.iters = 24\n"
      "workload.seed = 7\n"
      "workload.bytes = 2048\n";
  const scenario::RunResult r =
      scenario::run_spec(scenario::parse_scenario_text(text));
  const Fingerprint direct = run_variant("manetho:el", true);
  EXPECT_EQ(r.events_executed, direct.events_executed);
  EXPECT_EQ(r.wire_bytes, direct.wire_bytes);
  EXPECT_EQ(r.report.totals().pb_bytes_sent, direct.pb_bytes);
  EXPECT_EQ(r.checksum_digest(), direct.checksum);
}

}  // namespace
}  // namespace mpiv
