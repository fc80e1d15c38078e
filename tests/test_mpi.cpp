// Unit tests for the MPI layer: matching semantics (FIFO, tags, wildcard),
// arrival dedup, collectives correctness across sizes/roots (property
// sweeps), and collective determinism.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "mpi/collectives.hpp"
#include "mpi/matching.hpp"
#include "runtime/cluster.hpp"
#include "util/rng.hpp"
#include "workloads/apps.hpp"

namespace mpiv {
namespace {

using mpi::ArrivalDedup;

TEST(ArrivalDedupTest, InOrderAccepts) {
  ArrivalDedup d;
  for (std::uint64_t s = 1; s <= 10; ++s) EXPECT_TRUE(d.accept(s));
  EXPECT_EQ(d.watermark(), 10u);
}

TEST(ArrivalDedupTest, DuplicatesDrop) {
  ArrivalDedup d;
  EXPECT_TRUE(d.accept(1));
  EXPECT_FALSE(d.accept(1));
  EXPECT_TRUE(d.accept(2));
  EXPECT_FALSE(d.accept(1));
  EXPECT_FALSE(d.accept(2));
}

TEST(ArrivalDedupTest, OutOfOrderTolerated) {
  // Rendezvous can reorder a large message behind later eager ones.
  ArrivalDedup d;
  EXPECT_TRUE(d.accept(2));
  EXPECT_EQ(d.watermark(), 0u);
  EXPECT_TRUE(d.accept(1));
  EXPECT_EQ(d.watermark(), 2u);  // hole filled, watermark advances
  EXPECT_FALSE(d.accept(2));
  EXPECT_TRUE(d.accept(4));
  EXPECT_FALSE(d.accept(4));
  EXPECT_TRUE(d.accept(3));
  EXPECT_EQ(d.watermark(), 4u);
}

TEST(ArrivalDedupTest, MatchesASetOfEverythingAccepted) {
  // Mostly in-order streams (the fast path) with duplicates, gaps and late
  // fills: accept() answers "not seen before", and serialize() writes the
  // watermark plus the accepted seqs above it, as with every seq in a set.
  util::Rng rng(41);
  for (int trial = 0; trial < 50; ++trial) {
    ArrivalDedup d;
    std::set<std::uint64_t> seen;
    std::uint64_t next = 1;
    for (int i = 0; i < 400; ++i) {
      std::uint64_t ssn = next;
      switch (rng.next_below(8)) {
        case 0: ssn = 1 + rng.next_below(next + 3); break;  // dup, fill or gap
        case 1: ssn = next + 1 + rng.next_below(4); break;  // ahead of a hole
        default: ++next; break;                              // in order
      }
      ASSERT_EQ(d.accept(ssn), seen.insert(ssn).second) << "ssn " << ssn;
      std::uint64_t mark = 0;
      while (seen.count(mark + 1) != 0) ++mark;
      ASSERT_EQ(d.watermark(), mark);
      util::Buffer got, want;
      d.serialize(got);
      want.put_u64(mark);
      want.put_u32(static_cast<std::uint32_t>(
          std::distance(seen.upper_bound(mark), seen.end())));
      for (auto it = seen.upper_bound(mark); it != seen.end(); ++it) want.put_u64(*it);
      ASSERT_EQ(got, want);
    }
  }
}

TEST(ArrivalDedupTest, SerializeRoundTrip) {
  ArrivalDedup d;
  d.accept(1);
  d.accept(2);
  d.accept(5);
  util::Buffer b;
  d.serialize(b);
  ArrivalDedup e;
  e.restore(b);
  EXPECT_EQ(e.watermark(), 2u);
  EXPECT_FALSE(e.accept(5));
  EXPECT_TRUE(e.accept(3));
  EXPECT_TRUE(e.accept(4));
  EXPECT_EQ(e.watermark(), 5u);
}

// --- matching semantics through the full runtime -----------------------------

// Runs a 2-rank app where rank 0 sends tagged messages and rank 1 receives
// them in a chosen order; returns rank 1's observations.
struct TagProbe {
  std::vector<int> tags_received;
  std::vector<std::uint64_t> checks;
};

TEST(Matching, TagSelectionPullsFromUnexpectedQueue) {
  runtime::ClusterConfig cfg;
  cfg.nranks = 2;
  auto probe = std::make_shared<TagProbe>();
  runtime::Cluster cluster(cfg);
  auto app = [probe](mpi::Comm& c) -> sim::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, /*tag=*/10, 64, 100);
      co_await c.send(1, /*tag=*/20, 64, 200);
      co_await c.send(1, /*tag=*/30, 64, 300);
    } else {
      // Receive in reverse tag order: matching must pick by tag, not FIFO.
      for (const int tag : {30, 20, 10}) {
        const mpi::RecvResult r = co_await c.recv(0, tag);
        probe->tags_received.push_back(r.tag);
        probe->checks.push_back(r.check);
      }
    }
  };
  runtime::ClusterReport rep = cluster.run(app);
  ASSERT_TRUE(rep.completed);
  EXPECT_EQ(probe->tags_received, (std::vector<int>{30, 20, 10}));
  EXPECT_EQ(probe->checks, (std::vector<std::uint64_t>{300, 200, 100}));
}

TEST(Matching, SameTagIsFifoPerSender) {
  runtime::ClusterConfig cfg;
  cfg.nranks = 2;
  auto probe = std::make_shared<TagProbe>();
  runtime::Cluster cluster(cfg);
  auto app = [probe](mpi::Comm& c) -> sim::Task<void> {
    if (c.rank() == 0) {
      for (int i = 0; i < 5; ++i) co_await c.send(1, 7, 64, static_cast<std::uint64_t>(i));
    } else {
      for (int i = 0; i < 5; ++i) {
        const mpi::RecvResult r = co_await c.recv(0, 7);
        probe->checks.push_back(r.check);
      }
    }
  };
  ASSERT_TRUE(cluster.run(app).completed);
  EXPECT_EQ(probe->checks, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Matching, WildcardReceivesFromAnySource) {
  runtime::ClusterConfig cfg;
  cfg.nranks = 4;
  auto probe = std::make_shared<TagProbe>();
  runtime::Cluster cluster(cfg);
  auto app = [probe](mpi::Comm& c) -> sim::Task<void> {
    if (c.rank() == 0) {
      std::uint64_t sum = 0;
      for (int i = 0; i < 3; ++i) {
        const mpi::RecvResult r = co_await c.recv(mpi::kAnySource, 5);
        sum += r.check;
      }
      probe->checks.push_back(sum);
    } else {
      co_await c.send(0, 5, 64, static_cast<std::uint64_t>(c.rank()));
    }
  };
  ASSERT_TRUE(cluster.run(app).completed);
  ASSERT_EQ(probe->checks.size(), 1u);
  EXPECT_EQ(probe->checks[0], 1u + 2u + 3u);
}

// --- collectives ---------------------------------------------------------------

class CollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, AllreduceComputesGlobalSum) {
  const int n = GetParam();
  runtime::ClusterConfig cfg;
  cfg.nranks = n;
  auto sums = std::make_shared<std::vector<std::uint64_t>>(n, 0);
  runtime::Cluster cluster(cfg);
  auto app = [sums](mpi::Comm& c) -> sim::Task<void> {
    const std::uint64_t contrib = static_cast<std::uint64_t>(c.rank() + 1) * 11;
    (*sums)[static_cast<std::size_t>(c.rank())] =
        co_await mpi::allreduce(c, 8, contrib);
  };
  ASSERT_TRUE(cluster.run(app).completed);
  const std::uint64_t expect = 11ull * n * (n + 1) / 2;
  for (const std::uint64_t s : *sums) EXPECT_EQ(s, expect);
}

TEST_P(CollectiveSizes, BcastDeliversRootValueFromEveryRoot) {
  const int n = GetParam();
  for (int root = 0; root < n; root += std::max(1, n / 3)) {
    runtime::ClusterConfig cfg;
    cfg.nranks = n;
    auto got = std::make_shared<std::vector<std::uint64_t>>(n, 0);
    runtime::Cluster cluster(cfg);
    auto app = [got, root](mpi::Comm& c) -> sim::Task<void> {
      const std::uint64_t value = c.rank() == root ? 0xBEEF : 0;
      (*got)[static_cast<std::size_t>(c.rank())] =
          co_await mpi::bcast(c, root, 256, value);
    };
    ASSERT_TRUE(cluster.run(app).completed);
    for (const std::uint64_t v : *got) EXPECT_EQ(v, 0xBEEFu) << "root " << root;
  }
}

TEST_P(CollectiveSizes, ReduceOnlyRootGetsTotal) {
  const int n = GetParam();
  runtime::ClusterConfig cfg;
  cfg.nranks = n;
  auto got = std::make_shared<std::vector<std::uint64_t>>(n, 0);
  runtime::Cluster cluster(cfg);
  auto app = [got](mpi::Comm& c) -> sim::Task<void> {
    (*got)[static_cast<std::size_t>(c.rank())] =
        co_await mpi::reduce(c, 0, 8, static_cast<std::uint64_t>(c.rank() + 1));
  };
  ASSERT_TRUE(cluster.run(app).completed);
  EXPECT_EQ((*got)[0], static_cast<std::uint64_t>(n) * (n + 1) / 2);
  for (int r = 1; r < n; ++r) EXPECT_EQ((*got)[static_cast<std::size_t>(r)], 0u);
}

TEST_P(CollectiveSizes, AlltoallAndAllgatherSumAllContributions) {
  const int n = GetParam();
  runtime::ClusterConfig cfg;
  cfg.nranks = n;
  auto a2a = std::make_shared<std::vector<std::uint64_t>>(n, 0);
  auto ag = std::make_shared<std::vector<std::uint64_t>>(n, 0);
  runtime::Cluster cluster(cfg);
  auto app = [a2a, ag](mpi::Comm& c) -> sim::Task<void> {
    const std::uint64_t contrib = static_cast<std::uint64_t>(c.rank() + 1);
    (*a2a)[static_cast<std::size_t>(c.rank())] = co_await mpi::alltoall(c, 64, contrib);
    (*ag)[static_cast<std::size_t>(c.rank())] = co_await mpi::allgather(c, 64, contrib);
  };
  ASSERT_TRUE(cluster.run(app).completed);
  const std::uint64_t expect = static_cast<std::uint64_t>(n) * (n + 1) / 2;
  for (const std::uint64_t v : *a2a) EXPECT_EQ(v, expect);
  for (const std::uint64_t v : *ag) EXPECT_EQ(v, expect);
}

TEST_P(CollectiveSizes, BarrierSynchronizes) {
  const int n = GetParam();
  runtime::ClusterConfig cfg;
  cfg.nranks = n;
  auto after = std::make_shared<std::vector<sim::Time>>(n, 0);
  auto slowest = std::make_shared<sim::Time>(0);
  runtime::Cluster cluster(cfg);
  auto app = [after, slowest](mpi::Comm& c) -> sim::Task<void> {
    // Rank r computes r ms before the barrier.
    const sim::Time work = static_cast<sim::Time>(c.rank()) * sim::kMillisecond;
    co_await c.compute(work);
    if (work > *slowest) *slowest = work;
    co_await mpi::barrier(c);
    (*after)[static_cast<std::size_t>(c.rank())] = c.now();
  };
  ASSERT_TRUE(cluster.run(app).completed);
  for (const sim::Time t : *after) EXPECT_GE(t, *slowest);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16));

TEST(Collectives, BackToBackInstancesDoNotCrossMatch) {
  runtime::ClusterConfig cfg;
  cfg.nranks = 4;
  auto ok = std::make_shared<bool>(true);
  runtime::Cluster cluster(cfg);
  auto app = [ok](mpi::Comm& c) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      const std::uint64_t sum =
          co_await mpi::allreduce(c, 8, static_cast<std::uint64_t>(i));
      if (sum != static_cast<std::uint64_t>(i) * 4) *ok = false;
    }
  };
  ASSERT_TRUE(cluster.run(app).completed);
  EXPECT_TRUE(*ok);
}

}  // namespace
}  // namespace mpiv
