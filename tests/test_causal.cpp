// Unit and property tests for the causal-logging core: determinant wire
// formats, the event store, the antecedence graph (including the paper's
// Fig. 3 scenario), the sender log, and the strategy invariants —
// no-event-sent-twice, graph-pruning soundness (Manetho/LogOn piggyback a
// subset of Vcausal's), and LogOn's partial-order emission. The streamed
// factored path and LogOn's in-place plain path are checked against their
// references (causal/reference_strategy.hpp) message by message, LogOn's
// order also against the map-based causal_order case by case, the interval
// EventStore over its determinant table against ColumnarStore (the per-rank
// copy store it replaced) operation by operation, and the byte parsers
// (block reader, LogOn's plain reader, Determinant::deserialize,
// EventStore::restore) are fuzzed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <set>
#include <type_traits>

#include "causal/antecedence_graph.hpp"
#include "causal/event_store.hpp"
#include "causal/logon_strategy.hpp"
#include "causal/manetho_strategy.hpp"
#include "causal/columnar_store.hpp"
#include "causal/det_table.hpp"
#include "causal/reference_strategy.hpp"
#include "causal/sender_log.hpp"
#include "causal/vcausal_strategy.hpp"
#include "causal/wire.hpp"
#include "util/rng.hpp"

namespace mpiv::causal {
namespace {

ftapi::Determinant det(std::uint32_t creator, std::uint64_t seq,
                       std::uint32_t src, std::uint64_t ssn, int tag = 0) {
  ftapi::Determinant d;
  d.creator = creator;
  d.seq = seq;
  d.src = src;
  d.ssn = ssn;
  d.tag = tag;
  return d;
}

// --- wire formats -------------------------------------------------------------

TEST(Wire, FactoredRoundTrip) {
  std::vector<ftapi::Determinant> events;
  for (std::uint64_t s = 5; s < 9; ++s) events.push_back(det(2, s, 1, s + 10, 3));
  for (std::uint64_t s = 1; s < 3; ++s) events.push_back(det(4, s, 0, s, 9));
  util::Buffer b;
  wire::factored_serialize(events, b);
  const auto parsed = wire::factored_parse(b);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) EXPECT_EQ(parsed[i], events[i]);
}

TEST(Wire, PlainRoundTripPreservesOrder) {
  std::vector<ftapi::Determinant> events = {det(3, 7, 1, 2), det(1, 1, 3, 9),
                                            det(3, 8, 0, 5)};
  util::Buffer b;
  wire::plain_serialize(events, b);
  const auto parsed = wire::plain_parse(b);
  ASSERT_EQ(parsed.size(), 3u);
  for (std::size_t i = 0; i < events.size(); ++i) EXPECT_EQ(parsed[i], events[i]);
}

TEST(Wire, FactoredSmallerForRuns) {
  // 100 consecutive events of one creator: one block header amortized.
  std::vector<ftapi::Determinant> events;
  for (std::uint64_t s = 1; s <= 100; ++s) events.push_back(det(2, s, 1, s));
  util::Buffer fact, plain;
  wire::factored_serialize(events, fact);
  wire::plain_serialize(events, plain);
  EXPECT_LT(fact.size(), plain.size());
}

TEST(Wire, PlainSmallerForSingleEvents) {
  // The paper's LU/4 case: one event per piggyback — the factored block
  // header exceeds the per-event format.
  std::vector<ftapi::Determinant> one = {det(2, 1, 1, 1)};
  util::Buffer fact, plain;
  wire::factored_serialize(one, fact);
  wire::plain_serialize(one, plain);
  EXPECT_GT(fact.size(), plain.size());
}

TEST(Wire, FactoredSplitsNonContiguousRuns) {
  std::vector<ftapi::Determinant> events = {det(2, 1, 1, 1), det(2, 3, 1, 3)};
  util::Buffer b;
  wire::factored_serialize(events, b);
  const auto parsed = wire::factored_parse(b);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].seq, 1u);
  EXPECT_EQ(parsed[1].seq, 3u);
}

// The block reader, skipping the first `skip` events of every block and
// decoding the rest one record at a time.
std::vector<ftapi::Determinant> read_skipping(util::Buffer in, std::uint32_t skip) {
  wire::FactoredReader reader(in);
  std::vector<ftapi::Determinant> out;
  while (reader.next_block()) {
    const wire::FactoredReader::Block& b = reader.block();
    reader.skip(std::min(skip, b.count));
    for (std::uint32_t k = std::min(skip, b.count); k < b.count; ++k) {
      out.push_back(wire::decode_record(reader.records(1), b.creator, b.first + k));
    }
  }
  return out;
}

// The streaming writer, fed one single-event run per event.
util::Buffer stream(const std::vector<ftapi::Determinant>& events,
                    util::Buffer out = {}, std::uint64_t max_events = 0,
                    std::uint64_t max_blocks = 0) {
  wire::FactoredWriter writer(out, max_events, max_blocks);
  std::uint8_t record[wire::kFactoredPerEvent];
  for (const ftapi::Determinant& d : events) {
    wire::encode_record(record, d);
    writer.put_run(d.creator, d.seq, 1, record);
  }
  writer.finish();
  return out;
}

TEST(Wire, LongRunSplitsIntoU16Blocks) {
  // 70,000 events of one creator: a u16 count would wrap; the run must
  // continue in a second block through both writers.
  std::vector<ftapi::Determinant> events;
  for (std::uint64_t s = 1; s <= 70000; ++s) {
    events.push_back(det(5, s, static_cast<std::uint32_t>(s % 7), s * 3,
                         static_cast<int>(s % 11)));
  }
  util::Buffer ref;
  wire::factored_serialize(events, ref);
  const util::Buffer streamed = stream(events, {}, events.size(), 2);
  EXPECT_EQ(streamed, ref);
  EXPECT_EQ(ref.size(), wire::kFactoredHeader + 2 * wire::kFactoredBlockHeader +
                            events.size() * wire::kFactoredPerEvent);
  EXPECT_EQ(ref.get_u16(), 2u);
  ref.rewind();
  EXPECT_EQ(read_skipping(ref, 0), events);
  EXPECT_EQ(wire::factored_parse(ref), events);
}

TEST(Wire, StreamedWriterAppendsTheReferenceBytes) {
  // Runs with holes over several creators, written after existing bytes
  // and with no room sized up front (the writer has to grow).
  util::Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ftapi::Determinant> events;
    const std::uint64_t runs = 1 + rng.next_below(6);
    for (std::uint64_t r = 0; r < runs; ++r) {
      const auto creator = static_cast<std::uint32_t>(rng.next_below(4));
      const std::uint64_t first = 1 + rng.next_below(50);
      for (std::uint64_t q = 0, len = 1 + rng.next_below(9); q < len; ++q) {
        if (rng.next_below(4) == 0) continue;  // a hole
        events.push_back(det(creator, first + q, 1, rng.next_u64(), 2));
      }
    }
    util::Buffer prefix;
    prefix.put_u32(0xfeedbeef);
    util::Buffer expect = prefix;
    wire::factored_serialize(events, expect);
    EXPECT_EQ(stream(events, prefix), expect);
  }
}

// --- event store ---------------------------------------------------------------

TEST(EventStoreTest, AddAndKnownTracksPrefix) {
  EventStore s(4);
  EXPECT_TRUE(s.add(det(1, 1, 0, 1)));
  EXPECT_TRUE(s.add(det(1, 2, 0, 2)));
  EXPECT_FALSE(s.add(det(1, 2, 0, 2)));  // duplicate
  EXPECT_EQ(s.known(1), 2u);
  EXPECT_EQ(s.known(2), 0u);
}

TEST(EventStoreTest, StablePruningDropsCoveredEvents) {
  EventStore s(4);
  for (std::uint64_t q = 1; q <= 10; ++q) s.add(det(1, q, 0, q));
  s.set_stable({0, 7, 0, 0});
  EXPECT_EQ(s.stable(1), 7u);
  EXPECT_EQ(s.known(1), 10u);
  EXPECT_FALSE(s.holds(1, 7));
  EXPECT_TRUE(s.holds(1, 8));
  ftapi::DeterminantList out;
  s.collect(1, out);
  EXPECT_EQ(out.size(), 3u);
  // A determinant below the stable point is rejected.
  EXPECT_FALSE(s.add(det(1, 5, 0, 5)));
}

TEST(EventStoreTest, GapAboveStableIsAllowed) {
  // A sender only piggybacks its unstable suffix: the receiver may learn
  // (10..12] while 6..10 went straight to the EL.
  EventStore s(4);
  for (std::uint64_t q = 1; q <= 5; ++q) s.add(det(1, q, 0, q));
  EXPECT_TRUE(s.add(det(1, 11, 0, 11)));
  EXPECT_TRUE(s.add(det(1, 12, 0, 12)));
  EXPECT_EQ(s.known(1), 12u);
}

TEST(EventStoreTest, SerializeRestoreRoundTrip) {
  EventStore s(3);
  for (std::uint64_t q = 1; q <= 6; ++q) s.add(det(2, q, 0, q));
  s.set_stable({0, 0, 3});
  util::Buffer b;
  s.serialize(b);
  EventStore t(3);
  t.restore(b);
  EXPECT_EQ(t.known(2), 6u);
  EXPECT_EQ(t.stable(2), 3u);
  EXPECT_EQ(t.held_count(), 3u);
}

TEST(EventStoreTest, HeldThroughStopsAtAGapAboveStable) {
  EventStore s(2);
  for (std::uint64_t q = 1; q <= 5; ++q) s.add(det(1, q, 0, q));
  s.add(det(1, 8, 0, 8));
  EXPECT_EQ(s.held_through(1), 5u);
  EXPECT_EQ(s.known(1), 8u);
  EXPECT_EQ(s.held_through(0), 0u);
}

TEST(EventStoreTest, HeldThroughAdvancesWhenAHoleFills) {
  EventStore s(2);
  for (std::uint64_t q : {1, 2, 5, 6, 4}) s.add(det(1, q, 0, q));
  EXPECT_EQ(s.held_through(1), 2u);
  s.add(det(1, 3, 0, 3));
  EXPECT_EQ(s.held_through(1), 6u);
}

TEST(EventStoreTest, HeldThroughFollowsStablePastAHole) {
  EventStore s(2);
  for (std::uint64_t q : {1, 2, 3, 6, 7, 8}) s.add(det(1, q, 0, q));
  s.set_stable({0, 4});  // 5 is still missing
  EXPECT_EQ(s.held_through(1), 4u);
  s.set_stable({0, 5});  // the hole is now below stable
  EXPECT_EQ(s.held_through(1), 8u);
  s.set_stable({0, 12});  // stable beyond anything held
  EXPECT_EQ(s.held_through(1), 12u);
  EXPECT_FALSE(s.add(det(1, 12, 0, 12)));
}

TEST(EventStoreTest, HeldThroughIsRecomputedOnRestore) {
  EventStore s(2);
  for (std::uint64_t q : {1, 2, 3, 4, 5, 7}) s.add(det(1, q, 0, q));
  s.set_stable({0, 2});
  util::Buffer b;
  s.serialize(b);
  EventStore t(2);
  for (std::uint64_t q = 1; q <= 20; ++q) t.add(det(1, q, 0, q));
  t.restore(b);
  EXPECT_EQ(t.held_through(1), 5u);
  EXPECT_TRUE(t.add(det(1, 6, 0, 6)));
  EXPECT_EQ(t.held_through(1), 7u);
}

TEST(EventStoreTest, HeldThroughResets) {
  EventStore s(2);
  for (std::uint64_t q = 1; q <= 4; ++q) s.add(det(1, q, 0, q));
  s.set_stable({0, 2});
  s.reset();
  EXPECT_EQ(s.held_through(1), 0u);
  s.add(det(1, 2, 0, 2));
  EXPECT_EQ(s.held_through(1), 0u);
  s.add(det(1, 1, 0, 1));
  EXPECT_EQ(s.held_through(1), 2u);
}

// --- event store vs the columnar reference ----------------------------------------

template <class Store>
std::vector<ftapi::Determinant> collect_all(const Store& s) {
  std::vector<ftapi::Determinant> out;
  for (int c = 0; c < s.nranks(); ++c) s.collect(static_cast<std::uint32_t>(c), out);
  return out;
}

template <class Store>
std::vector<ftapi::Determinant> range_of(const Store& s, std::uint32_t c,
                                         std::uint64_t lo, std::uint64_t hi) {
  std::vector<ftapi::Determinant> out;
  s.for_range(c, lo, hi, [&out](const ftapi::Determinant& d) { out.push_back(d); });
  return out;
}

// Determinant::operator== leaves the cross edge out; these compare it too.
void expect_same_dets(const std::vector<ftapi::Determinant>& a,
                      const std::vector<ftapi::Determinant>& b) {
  ASSERT_EQ(a, b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].dep_creator, b[i].dep_creator) << "event " << i;
    ASSERT_EQ(a[i].dep_seq, b[i].dep_seq) << "event " << i;
  }
}

// The run API, decoded, is for_range; runs are maximal, so two runs with
// adjacent seqs are split at the end of the table's ring (their records are
// not adjacent). Returns how many such wrap splits it saw.
std::uint64_t expect_runs_match_range(const EventStore& s, std::uint32_t c,
                                      std::uint64_t lo, std::uint64_t hi) {
  std::vector<ftapi::Determinant> decoded;
  std::uint64_t wraps = 0;
  EventStore::Run prev;
  s.for_runs(c, lo, hi, [&](const EventStore::Run& r) {
    EXPECT_GT(r.count, 0u);
    if (prev.count > 0 && prev.first + prev.count == r.first) {
      EXPECT_NE(prev.records + prev.count * wire::kFactoredPerEvent, r.records)
          << "run at " << r.first << " is not maximal";
      ++wraps;
    }
    for (std::size_t k = 0; k < r.count; ++k) {
      ftapi::Determinant d = wire::decode_record(
          r.records + k * wire::kFactoredPerEvent, c, r.first + k);
      d.set_dep_word(r.deps[k]);
      decoded.push_back(d);
    }
    prev = r;
  });
  expect_same_dets(decoded, range_of(s, c, lo, hi));
  return wraps;
}

// Everything observable about the two stores is equal.
void expect_same_stores(const EventStore& fast, const ColumnarStore& ref,
                        util::Rng& rng, std::uint64_t* wraps = nullptr) {
  ASSERT_EQ(fast.held_count(), ref.held_count());
  ASSERT_EQ(fast.known_vector(), ref.known_vector());
  ASSERT_EQ(fast.stable_vector(), ref.stable_vector());
  for (int c = 0; c < fast.nranks(); ++c) {
    const auto creator = static_cast<std::uint32_t>(c);
    ASSERT_EQ(fast.held_through(creator), ref.held_through(creator)) << "creator " << c;
    const std::uint64_t top = fast.known(creator) + 2;
    const std::uint64_t lo = rng.next_below(top + 1);
    const std::uint64_t hi = lo + rng.next_below(top + 1);
    expect_same_dets(range_of(fast, creator, lo, hi), range_of(ref, creator, lo, hi));
    const std::uint64_t w = expect_runs_match_range(fast, creator, 0, top);
    if (wraps) *wraps += w;
    expect_runs_match_range(fast, creator, lo, hi);
    for (int probe = 0; probe < 4; ++probe) {
      const std::uint64_t q = rng.next_below(top + 1);
      ASSERT_EQ(fast.holds(creator, q), ref.holds(creator, q)) << c << " " << q;
    }
  }
  expect_same_dets(collect_all(fast), collect_all(ref));
  util::Buffer fb, rb;
  fast.serialize(fb);
  ref.serialize(rb);
  ASSERT_EQ(fb, rb);
}

TEST(EventStoreTest, EdgesArePerHolder) {
  // One table, three holders of creator 1's events 1..3. B learns event 2
  // without its edge (as from a recovery response); a piggyback from B
  // passes that edge on to C, and stability drops it again.
  DetTable table(3);
  EventStore a(3, table), b(3, table), c(3, table);
  std::vector<ftapi::Determinant> events;
  for (std::uint64_t q = 1; q <= 3; ++q) {
    ftapi::Determinant d = det(1, q, 2, q);
    d.dep_creator = 2;
    d.dep_seq = 10 + q;
    events.push_back(d);
    a.add(d);
  }
  ftapi::Determinant bare = events[1];
  bare.dep_creator = UINT32_MAX;
  bare.dep_seq = 0;
  for (const ftapi::Determinant& d : {events[0], bare, events[2]}) {
    ASSERT_TRUE(b.add(d));
  }
  EXPECT_EQ(a.get(1, 2).dep_word(), events[1].dep_word());
  EXPECT_EQ(b.get(1, 2).dep_word(), ftapi::Determinant::kNoDep);
  std::vector<std::uint64_t> deps;
  b.for_runs(1, 0, 3, [&deps](const EventStore::Run& r) {
    deps.insert(deps.end(), r.deps, r.deps + r.count);
  });
  EXPECT_EQ(deps, (std::vector<std::uint64_t>{11, ftapi::Determinant::kNoDep, 13}));

  net::CostModel cost;
  VcausalStrategy from, to;
  from.attach(&b, &cost, /*rank=*/0, 3);
  to.attach(&c, &cost, /*rank=*/2, 3);
  util::Buffer pb;
  Strategy::DepShadow shadow;
  EXPECT_EQ(from.build(2, pb, shadow).events, 3u);
  to.absorb(0, pb, shadow);
  expect_same_dets(range_of(c, 1, 0, 3), range_of(b, 1, 0, 3));
  util::Buffer bi, ci;
  b.serialize(bi);
  c.serialize(ci);
  EXPECT_EQ(bi, ci);

  c.set_stable({0, 2, 0});
  EXPECT_EQ(c.get(1, 3).dep_word(), events[2].dep_word());
  c.add(bare);  // at or below stable: a no-op
  EXPECT_FALSE(c.holds(1, 2));
}

// Overlapping crashes in miniature. R's image holds creator 1's event 2;
// R and the creator crash, and while R is down the creator re-creates
// event 2 as another reception. No store reads the old value, so the
// table takes the new one. R's restore then re-adds the old value: the
// table must not change under the creator, and R must keep reading (and
// passing on) the value it learned, as if every rank kept its own store.
TEST(EventStoreTest, RecreatedValuesStayPerHolder) {
  struct CountOverwrites {
    CountOverwrites() {
      reference_checks() = {};
      reference_checks().on = true;
    }
    ~CountOverwrites() { reference_checks().on = false; }
  } const counting;
  DetTable table(3);
  EventStore creator(3, table), r(3, table), c(3, table);
  const ftapi::Determinant one = det(1, 1, 0, 1), old = det(1, 2, 0, 2);
  for (EventStore* s : {&creator, &r}) {
    s->add(one);
    s->add(old);
  }
  util::Buffer image;
  r.serialize(image);
  r.reset();
  creator.reset();
  creator.add(one);
  const ftapi::Determinant recreated = det(1, 2, 2, 9, 4);
  ASSERT_TRUE(creator.add(recreated));
  EXPECT_EQ(reference_checks().overwrites, 1u);
  EXPECT_EQ(reference_checks().own_copies, 0u);
  r.restore(image);
  EXPECT_EQ(reference_checks().own_copies, 1u);
  EXPECT_EQ(creator.get(1, 2), recreated);
  EXPECT_EQ(r.get(1, 2), old);
  util::Buffer before;
  r.serialize(before);
  image.rewind();
  EXPECT_EQ(before, image);

  // R's piggyback carries its own copy; the creator's carries the table's.
  net::CostModel cost;
  VcausalStrategy from_r, to_c;
  from_r.attach(&r, &cost, /*rank=*/0, 3);
  to_c.attach(&c, &cost, /*rank=*/2, 3);
  util::Buffer pb;
  Strategy::DepShadow shadow;
  EXPECT_EQ(from_r.build(2, pb, shadow).events, 2u);
  to_c.absorb(0, pb, shadow);
  EXPECT_EQ(c.get(1, 2), old);
  EventStore d(3, table);
  VcausalStrategy from_creator, to_d;
  from_creator.attach(&creator, &cost, /*rank=*/1, 3);
  to_d.attach(&d, &cost, /*rank=*/0, 3);
  util::Buffer pb2;
  Strategy::DepShadow shadow2;
  EXPECT_EQ(from_creator.build(0, pb2, shadow2).events, 2u);
  to_d.absorb(1, pb2, shadow2);
  EXPECT_EQ(d.get(1, 2), recreated);
  EXPECT_EQ(reference_checks().own_copies, 1u);
}

// A determinant of `creator` at `seq` with a random src and, half the
// time, a cross edge on that src (the only edge CausalProtocol creates).

ftapi::Determinant random_det(util::Rng& rng, std::uint32_t creator,
                              std::uint64_t seq, int nranks) {
  ftapi::Determinant d =
      det(creator, seq, static_cast<std::uint32_t>(rng.next_below(nranks)),
          rng.next_u64(), static_cast<int>(rng.next_u64()));
  if (rng.next_below(2) == 0) {
    d.dep_creator = d.src;
    d.dep_seq = rng.next_below(1000);
  }
  return d;
}

// Seeded operation sequences over both stores: adds in order, out of order
// (holes above stable), duplicated and at or below stable; whole runs
// absorbed from another store's table (added one at a time to the
// reference), above or overlapping what is held; set_stable through holes
// and past everything held; serialize -> restore into a store with other
// contents; reset. Stability trails the adds, so the table's rings wrap,
// prune and grow while wrapped.
void run_store_differential(std::uint64_t seed) {
  constexpr int kRanks = 3;
  constexpr int kSteps = 4000;
  util::Rng rng(seed);
  EventStore fast(kRanks);
  ColumnarStore ref(kRanks);
  std::uint64_t wraps = 0, holes = 0, above = 0, overlapped = 0;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(step);
    const auto c = static_cast<std::uint32_t>(rng.next_below(kRanks));
    const std::uint64_t known = fast.known(c);
    const std::uint64_t stable = fast.stable(c);
    const std::uint64_t op = rng.next_below(100);
    if (op < 40) {  // in order
      const ftapi::Determinant d = random_det(rng, c, known + 1, kRanks);
      ASSERT_EQ(fast.add(d), ref.add(d));
    } else if (op < 52) {  // out of order: leaves a hole
      const ftapi::Determinant d =
          random_det(rng, c, known + 2 + rng.next_below(40), kRanks);
      ASSERT_EQ(fast.add(d), ref.add(d));
    } else if (op < 62) {  // duplicate, fills a hole, or at/below stable
      const ftapi::Determinant d =
          random_det(rng, c, 1 + rng.next_below(known + 1), kRanks);
      ASSERT_EQ(fast.add(d), ref.add(d));
    } else if (op < 77) {  // a run, above or overlapping what is held
      const std::uint64_t n = 1 + rng.next_below(rng.next_below(8) == 0 ? 300 : 30);
      const std::uint64_t floor = std::max(known, stable);
      const std::uint64_t first = rng.next_below(3) == 0
                                      ? stable + 1 + rng.next_below(floor + 1 - stable)
                                      : floor + 1 + rng.next_below(5);
      // The sender's copy: the same values where the receiver holds them.
      EventStore src(kRanks);
      std::vector<ftapi::Determinant> run;
      for (std::uint64_t k = 0; k < n; ++k) {
        ftapi::Determinant d = random_det(rng, c, first + k, kRanks);
        fast.for_range(c, d.seq - 1, d.seq,
                       [&d](const ftapi::Determinant& held) { d = held; });
        run.push_back(d);
        src.add(d);
      }
      std::uint64_t fresh = 0;
      fast.absorb_run(src.table(), c, first, n,
                      [&fresh](std::uint64_t, std::uint64_t k) { fresh += k; });
      std::uint64_t added = 0;
      for (const ftapi::Determinant& d : run) added += ref.add(d) ? 1 : 0;
      ASSERT_EQ(fresh, added);
      ++(first > floor ? above : overlapped);
    } else if (op < 93) {  // stability: through holes, sometimes past known
      std::vector<std::uint64_t> st = fast.stable_vector();
      for (int k = 0; k < kRanks; ++k) {
        const auto at = static_cast<std::size_t>(k);
        const std::uint64_t top = fast.known(static_cast<std::uint32_t>(k)) + 4;
        if (rng.next_below(2) == 0 || st[at] >= top) continue;
        st[at] += 1 + rng.next_below(top - st[at]);
      }
      fast.set_stable(st);
      ref.set_stable(st);
    } else if (op < 99) {  // a checkpoint image, restored over other contents
      util::Buffer fi, ri;
      fast.serialize(fi);
      ref.serialize(ri);
      EventStore other(kRanks);
      for (std::uint64_t q = 1; q <= 300; ++q) other.add(random_det(rng, c, q, kRanks));
      other.restore(fi);
      EXPECT_EQ(fi.remaining(), 0u);
      util::Buffer again;
      other.serialize(again);
      ASSERT_EQ(again, ri);
      for (std::uint64_t q = 1; q <= 40; ++q) {
        const ftapi::Determinant d = random_det(rng, c, known + q, kRanks);
        fast.add(d);
        ref.add(d);
      }
      fi.rewind();
      ri.rewind();
      fast.restore(fi);
      ref.restore(ri);
    } else {
      fast.reset();
      ref.reset();
    }
    for (int k = 0; k < kRanks; ++k) {
      const auto creator = static_cast<std::uint32_t>(k);
      if (fast.held_through(creator) < fast.known(creator)) ++holes;
    }
    expect_same_stores(fast, ref, rng, &wraps);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(wraps, 0u) << "no run ever wrapped the ring";
  EXPECT_GT(holes, 0u) << "no store ever held a hole";
  EXPECT_GT(above, 0u);
  EXPECT_GT(overlapped, 0u);
}

TEST(EventStoreDiff, MatchesReferenceOverSeededOps) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    run_store_differential(seed);
  }
}

TEST(EventStoreDiff, RunsLongerThanU16) {
  // Three 70,000-event runs absorbed from another store's table (one at a
  // time into the reference), stability landing mid-run between them so
  // each next run wraps the ring and grows it; streamed back as runs they
  // must make the reference bytes, continuing in a new block every
  // UINT16_MAX events, and the computed size must match.
  util::Rng rng(17);
  EventStore fast(2);
  ColumnarStore ref(2);
  constexpr std::size_t kRun = 70000;
  std::uint64_t first = 1;
  for (std::uint64_t round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    EventStore src(2);
    for (std::size_t k = 0; k < kRun; ++k) {
      const ftapi::Determinant d = random_det(rng, 1, first + k, 2);
      src.add(d);
      ref.add(d);
    }
    fast.absorb_run(src.table(), 1, first, kRun, [](std::uint64_t, std::uint64_t) {});
    expect_same_stores(fast, ref, rng);
    const std::vector<ftapi::Determinant> held = range_of(ref, 1, 0, UINT64_MAX);
    util::Buffer expect;
    wire::factored_serialize(held, expect);
    util::Buffer got;
    wire::FactoredWriter writer(got, held.size(), 1);
    fast.for_runs(1, 0, UINT64_MAX, [&writer](const EventStore::Run& r) {
      writer.put_run(1, r.first, r.count, r.records);
    });
    writer.finish();
    ASSERT_EQ(got, expect);
    EXPECT_EQ(expect.size(), wire::factored_size(wire::factored_blocks(held.size()),
                                                 held.size()));
    first += kRun;
    const std::vector<std::uint64_t> stable = {0, first - 1 - kRun / 2 - round * 1000};
    fast.set_stable(stable);
    ref.set_stable(stable);
    expect_same_stores(fast, ref, rng);
  }
}

// --- antecedence graph ----------------------------------------------------------

TEST(Graph, ReachabilityFollowsProcessOrderAndCrossEdges) {
  AntecedenceGraph g(3);
  // P1 events 1..3; P2 event 1 depends on P1's event 2.
  for (std::uint64_t q = 1; q <= 3; ++q) g.add(det(1, q, 0, q));
  ftapi::Determinant e = det(2, 1, 1, 5);
  e.dep_creator = 1;
  e.dep_seq = 2;
  g.add(e);
  std::vector<std::uint64_t> known;
  g.known_from(2, 1, known);
  EXPECT_EQ(known[2], 1u);
  EXPECT_EQ(known[1], 2u);  // through the cross edge, then process order
  EXPECT_EQ(known[0], 0u);
}

TEST(Graph, PaperFig3TransitiveKnowledge) {
  // Paper Fig. 3: P3 never exchanged with P2 directly, but learned P2's
  // event via a relay; the graph walk proves P2 knows its own causal past,
  // so those events need not be piggybacked — Vcausal cannot see this.
  AntecedenceGraph g(4);
  // P0 creates a,b (seq 1,2). P2's event h (seq 1) has cross edge to P0#2.
  g.add(det(0, 1, 3, 1));
  g.add(det(0, 2, 3, 2));
  ftapi::Determinant h = det(2, 1, 0, 9);
  h.dep_creator = 0;
  h.dep_seq = 2;
  g.add(h);
  // P3 (us) holds all of it; what does P2 know?
  std::vector<std::uint64_t> known;
  g.known_from(2, 1, known);
  EXPECT_EQ(known[0], 2u);  // P2 provably knows P0's events 1..2
}

TEST(Graph, PruneStableRemovesVertices) {
  AntecedenceGraph g(2);
  for (std::uint64_t q = 1; q <= 8; ++q) g.add(det(1, q, 0, q));
  EXPECT_EQ(g.vertex_count(), 8u);
  g.prune_stable({0, 5});
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_FALSE(g.contains(1, 5));
  EXPECT_TRUE(g.contains(1, 6));
}

TEST(Graph, CachedTraversalMatchesFullTraversal) {
  util::Rng rng(77);
  AntecedenceGraph g(4);
  std::vector<std::uint64_t> seq(4, 0);
  for (int i = 0; i < 200; ++i) {
    const auto c = static_cast<std::uint32_t>(rng.next_below(4));
    const auto s = static_cast<std::uint32_t>(rng.next_below(4));
    ftapi::Determinant d = det(c, ++seq[c], s, seq[c]);
    d.dep_creator = s;
    d.dep_seq = seq[s];
    g.add(d);
    if (i % 20 == 19) {
      std::vector<std::uint64_t> full, cached;
      g.known_from(1, seq[1], full);
      std::vector<std::uint64_t> cache;  // fresh cache each time
      g.known_from_cached(1, seq[1], cache);
      EXPECT_EQ(cache, full);
    }
  }
}

// --- sender log -------------------------------------------------------------------

TEST(SenderLogTest, LogGcAndPending) {
  SenderLog log(4);
  for (std::uint64_t ssn = 1; ssn <= 10; ++ssn) {
    log.log(2, ssn, 5, {100 * ssn, ssn});
  }
  EXPECT_EQ(log.entries(), 10u);
  EXPECT_EQ(log.bytes(), 100u * 55);
  log.gc(2, 6);
  EXPECT_EQ(log.entries(), 4u);
  std::vector<std::uint64_t> pending;
  log.for_pending(2, 8, [&](const SenderLog::Entry& e) { pending.push_back(e.ssn); });
  EXPECT_EQ(pending, (std::vector<std::uint64_t>{9, 10}));
}

TEST(SenderLogTest, SerializeRestoreRoundTrip) {
  SenderLog log(2);
  log.log(1, 3, 7, {512, 99});
  util::Buffer b;
  log.serialize(b);
  SenderLog log2(2);
  log2.restore(b);
  EXPECT_EQ(log2.entries(), 1u);
  EXPECT_EQ(log2.bytes(), 512u);
  std::vector<std::uint64_t> checks;
  log2.for_pending(1, 0, [&](const SenderLog::Entry& e) { checks.push_back(e.payload.check); });
  EXPECT_EQ(checks, (std::vector<std::uint64_t>{99}));
}

// --- strategy properties -------------------------------------------------------------

// A host-form piggyback carrying `events` (one creator's consecutive seqs)
// over the table of `holder`, which holds them.
util::Buffer host_form(const EventStore& holder,
                       const std::vector<ftapi::Determinant>& events) {
  util::Buffer b;
  b.put_u64(static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&holder.table())));
  b.put_u32(1);
  wire::put_host_run(b.extend(wire::kHostRun),
                     {events.front().creator, events.front().seq, events.size()});
  b.put_u32(0);  // no edges of the sender's own
  return b;
}

struct StratFixture {
  EventStore store{4};
  net::CostModel cost;
  std::unique_ptr<Strategy> strat;

  explicit StratFixture(StrategyKind k) : strat(make_strategy(k)) {
    strat->attach(&store, &cost, /*rank=*/3, 4);
  }
  void local_event(std::uint32_t src, std::uint64_t ssn) {
    ftapi::Determinant d = det(3, store.known(3) + 1, src, ssn);
    d.dep_creator = src;
    d.dep_seq = store.known(src);
    store.add(d);
    strat->on_local_event(d);
  }
  std::vector<ftapi::Determinant> build(int dst, util::Buffer* out = nullptr,
                                        Strategy::DepShadow* deps_out = nullptr) {
    util::Buffer local;
    util::Buffer& b = out ? *out : local;
    Strategy::DepShadow deps;
    strat->build(dst, b, deps);
    if (deps_out) *deps_out = deps;
    // Parse back through the matching format.
    b.rewind();
    return dynamic_cast<LogOnStrategy*>(strat.get()) ? wire::plain_parse(b)
                                                     : host_form_events(b);
  }
};

class StrategyProperty : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(StrategyProperty, NoEventSentTwiceToSamePeer) {
  StratFixture fx(GetParam());
  std::set<std::pair<std::uint32_t, std::uint64_t>> sent;
  util::Rng rng(5);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 5; ++i) {
      fx.local_event(static_cast<std::uint32_t>(rng.next_below(3)), rng.next_u64() % 1000);
    }
    for (const ftapi::Determinant& d : fx.build(1)) {
      const auto key = std::make_pair(d.creator, d.seq);
      EXPECT_TRUE(sent.insert(key).second)
          << "event (" << d.creator << "," << d.seq << ") piggybacked twice";
    }
  }
}

TEST_P(StrategyProperty, StableEventsNeverPiggybacked) {
  StratFixture fx(GetParam());
  for (int i = 0; i < 10; ++i) fx.local_event(0, static_cast<std::uint64_t>(i + 1));
  std::vector<std::uint64_t> stable = {0, 0, 0, 6};
  fx.store.set_stable(stable);
  fx.strat->on_stable(stable);
  for (const ftapi::Determinant& d : fx.build(1)) {
    EXPECT_GT(d.seq, 6u);
  }
}

TEST_P(StrategyProperty, NeverSendsReceiverItsOwnEvents) {
  StratFixture fx(GetParam());
  // Learn some events created by peer 1 (as if piggybacked to us).
  util::Buffer in;
  Strategy::DepShadow deps;
  std::vector<ftapi::Determinant> theirs;
  EventStore peer(4);
  for (std::uint64_t q = 1; q <= 4; ++q) {
    theirs.push_back(det(1, q, 2, q));
    peer.add(theirs.back());
    deps.push_back(ftapi::Determinant::kNoDep);
  }
  if (GetParam() == StrategyKind::kLogOn) {
    wire::plain_serialize(theirs, in);
  } else {
    in = host_form(peer, theirs);
    deps.clear();
  }
  fx.strat->absorb(1, in, deps);
  EXPECT_EQ(fx.store.known(1), 4u);
  fx.local_event(0, 1);
  for (const ftapi::Determinant& d : fx.build(1)) {
    EXPECT_NE(d.creator, 1u);
  }
}

TEST_P(StrategyProperty, WorkBytesCountOnlyTheAppendedPiggyback) {
  StratFixture fx(GetParam());
  for (int i = 0; i < 10; ++i) fx.local_event(0, static_cast<std::uint64_t>(i + 1));
  util::Buffer out;
  out.put_u64(0xfeedbeefcafef00dull);
  out.put_u32(7);
  const std::vector<std::uint8_t> prefix = out.bytes();
  Strategy::DepShadow deps;
  const Strategy::Work w = fx.strat->build(1, out, deps);
  EXPECT_EQ(w.events, 10u);
  // LogOn's bytes are real; Vcausal's and Manetho's are the factored size
  // of their one run (the host form is smaller).
  if (GetParam() == StrategyKind::kLogOn) {
    EXPECT_EQ(w.bytes, out.size() - prefix.size());
  } else {
    EXPECT_EQ(w.bytes, wire::factored_size(1, 10));
  }
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), out.bytes().begin()));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyProperty,
                         ::testing::Values(StrategyKind::kVcausal,
                                           StrategyKind::kManetho,
                                           StrategyKind::kLogOn),
                         [](const auto& info) {
                           return std::string(strategy_kind_name(info.param));
                         });

TEST(StrategyComparison, GraphStrategiesPiggybackSubsetOfVcausal) {
  // Same event history in all three; the graph strategies may prune
  // strictly more (transitive knowledge) but never less safely: their
  // emitted set must be a subset of Vcausal's.
  StratFixture vc(StrategyKind::kVcausal);
  StratFixture ma(StrategyKind::kManetho);
  StratFixture lo(StrategyKind::kLogOn);
  util::Rng rng(9);
  for (int i = 0; i < 30; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(3));
    const std::uint64_t ssn = static_cast<std::uint64_t>(i + 1);
    vc.local_event(src, ssn);
    ma.local_event(src, ssn);
    lo.local_event(src, ssn);
  }
  auto key_set = [](const std::vector<ftapi::Determinant>& v) {
    std::set<std::pair<std::uint32_t, std::uint64_t>> s;
    for (const auto& d : v) s.emplace(d.creator, d.seq);
    return s;
  };
  const auto vset = key_set(vc.build(1));
  const auto mset = key_set(ma.build(1));
  const auto lset = key_set(lo.build(1));
  for (const auto& k : mset) EXPECT_TRUE(vset.count(k));
  for (const auto& k : lset) EXPECT_TRUE(vset.count(k));
  EXPECT_EQ(mset, lset);  // same pruning, different wire format
}

// For the sequence m_1..m_k: for i < j, m_j must not be in the causal past
// of m_i (paper §III-C) — every event's antecedents inside the sequence,
// (creator, seq-1) and its cross edge, come before it.
void expect_causally_ordered(const std::vector<ftapi::Determinant>& events) {
  std::set<std::pair<std::uint32_t, std::uint64_t>> all, seen;
  for (const ftapi::Determinant& d : events) all.emplace(d.creator, d.seq);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ftapi::Determinant& d = events[i];
    const std::pair<std::uint32_t, std::uint64_t> prev{d.creator, d.seq - 1};
    if (d.seq > 1 && all.count(prev)) {
      EXPECT_TRUE(seen.count(prev)) << "process-order violated at index " << i;
    }
    const std::pair<std::uint32_t, std::uint64_t> edge{d.dep_creator, d.dep_seq};
    if (d.dep_creator != UINT32_MAX && d.dep_seq > 0 && all.count(edge)) {
      EXPECT_TRUE(seen.count(edge)) << "cross edge violated at index " << i;
    }
    seen.emplace(d.creator, d.seq);
  }
}

TEST(LogOnOrder, EmissionRespectsPartialOrder) {
  StratFixture fx(StrategyKind::kLogOn);
  util::Rng rng(13);
  for (int i = 0; i < 40; ++i) {
    fx.local_event(static_cast<std::uint32_t>(rng.next_below(3)),
                   static_cast<std::uint64_t>(i + 1));
  }
  Strategy::DepShadow deps;
  std::vector<ftapi::Determinant> emitted = fx.build(1, nullptr, &deps);
  ASSERT_EQ(deps.size(), emitted.size());
  for (std::size_t i = 0; i < emitted.size(); ++i) emitted[i].set_dep_word(deps[i]);
  expect_causally_ordered(emitted);
}

TEST(LogOnOrder, CausalOrderIsStableUnderPermutation) {
  std::vector<ftapi::Determinant> events;
  std::vector<std::uint64_t> seq(4, 0);
  util::Rng rng(21);
  for (int i = 0; i < 20; ++i) {
    const auto c = static_cast<std::uint32_t>(rng.next_below(4));
    ftapi::Determinant d = det(c, ++seq[c], (c + 1) % 4, seq[c]);
    d.dep_creator = (c + 1) % 4;
    d.dep_seq = seq[(c + 1) % 4];
    events.push_back(d);
  }
  const auto ordered = LogOnStrategy::causal_order(events);
  EXPECT_EQ(ordered.size(), events.size());
  expect_causally_ordered(ordered);
  std::reverse(events.begin(), events.end());
  const auto ordered2 = LogOnStrategy::causal_order(events);
  EXPECT_EQ(ordered2.size(), ordered.size());
  // The reversed input puts descendants first; the order must still be a
  // topological one over the same events.
  expect_causally_ordered(ordered2);
  EXPECT_TRUE(std::is_permutation(ordered2.begin(), ordered2.end(), events.begin(),
                                  events.end()));
}

TEST(PeerViewTest, RestartClampsAndCaps) {
  PeerView v;
  v.init(3);
  v.learned = {5, 9, 2};
  v.sent = {7, 1, 0};
  v.on_restart({4, 4, 4});
  EXPECT_EQ(v.learned, (std::vector<std::uint64_t>{4, 4, 2}));
  EXPECT_EQ(v.sent, (std::vector<std::uint64_t>{4, 1, 0}));
  EXPECT_EQ(v.cap, (std::vector<std::uint64_t>{4, 4, 4}));
  v.raise_cap(0, 6);
  EXPECT_EQ(v.cap[0], 6u);
}

// --- streamed vs reference piggyback path ----------------------------------------

struct DiffRank {
  explicit DiffRank(int nranks) : store(nranks) {}
  EventStore store;
  std::unique_ptr<Strategy> strat;
};

template <class S>
std::vector<std::unique_ptr<DiffRank>> make_ranks(int nranks,
                                                  const net::CostModel* cost) {
  std::vector<std::unique_ptr<DiffRank>> ranks;
  for (int r = 0; r < nranks; ++r) {
    ranks.push_back(std::make_unique<DiffRank>(nranks));
    ranks.back()->strat = std::make_unique<S>();
    ranks.back()->strat->attach(&ranks.back()->store, cost, r, nranks);
  }
  return ranks;
}

template <class T>
util::Buffer serialized(const T& x) {
  util::Buffer b;
  x.serialize(b);
  return b;
}

void expect_same_work(const Strategy::Work& a, const Strategy::Work& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.visits, b.visits);
  EXPECT_EQ(a.cpu, b.cpu);
}

// held_through is the top of the hole-free prefix above stable.
void expect_held_through_exact(const EventStore& s) {
  for (int c = 0; c < s.nranks(); ++c) {
    const auto creator = static_cast<std::uint32_t>(c);
    const std::uint64_t held = s.held_through(creator);
    ASSERT_GE(held, s.stable(creator));
    for (std::uint64_t q = s.stable(creator) + 1; q <= held; ++q) {
      ASSERT_TRUE(s.holds(creator, q)) << "creator " << c << " seq " << q;
    }
    EXPECT_FALSE(s.holds(creator, held + 1)) << "creator " << c;
  }
}

// Drives identical randomized traffic through strategy S and Reference<S>:
// messages, per-holder stable advances (holders learn stability at
// different times, which leaves holes), checkpoints and restarts (restore +
// on_peer_restart caps). Everything observable must match after each step.
// LogOn's bytes must be equal; Vcausal's and Manetho's host form must carry
// the events the reference serializes, and its computed size must be the
// serialized size (Work::bytes). Each rank has a private table, so every
// absorb imports its new records from the sender's.
template <class S>
void run_differential(std::uint64_t seed) {
  constexpr int kRanks = 16;
  constexpr int kSteps = 3000;
  const net::CostModel cost{};
  auto fast = make_ranks<S>(kRanks, &cost);
  auto ref = make_ranks<Reference<S>>(kRanks, &cost);
  util::Rng rng(seed);
  std::vector<std::vector<ftapi::Determinant>> history(kRanks);
  std::vector<std::uint64_t> ssn(kRanks * kRanks, 0);
  std::vector<std::uint64_t> el_stable(kRanks, 0);
  struct Snapshot {
    util::Buffer store;
    util::Buffer views;
    std::vector<std::uint64_t> known;
  };
  std::vector<std::optional<Snapshot>> snaps(kRanks);
  std::uint64_t duplicates = 0;
  std::uint64_t holes = 0;

  const auto expect_same = [&](int r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(serialized(fast[i]->store), serialized(ref[i]->store)) << "rank " << r;
    EXPECT_EQ(serialized(*fast[i]->strat), serialized(*ref[i]->strat)) << "rank " << r;
    EXPECT_EQ(fast[i]->strat->graph_vertices(), ref[i]->strat->graph_vertices());
  };
  const auto deliver = [&](int dst, int src) {
    const auto d_at = static_cast<std::size_t>(dst);
    const std::uint64_t seq = fast[d_at]->store.known(static_cast<std::uint32_t>(dst)) + 1;
    std::vector<ftapi::Determinant>& mine = history[d_at];
    if (seq > mine.size()) {  // a new reception (otherwise replay it)
      ftapi::Determinant d = det(static_cast<std::uint32_t>(dst), seq,
                                 static_cast<std::uint32_t>(src),
                                 ++ssn[static_cast<std::size_t>(src * kRanks + dst)],
                                 static_cast<int>(rng.next_below(3)));
      d.dep_creator = static_cast<std::uint32_t>(src);
      d.dep_seq = fast[d_at]->store.known(static_cast<std::uint32_t>(src));
      mine.push_back(d);
    }
    for (auto* world : {&fast, &ref}) {
      DiffRank& r = *(*world)[d_at];
      r.store.add(mine[seq - 1]);
      r.strat->on_local_event(mine[seq - 1]);
    }
  };

  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 80) {
      const auto src = static_cast<int>(rng.next_below(kRanks));
      const auto dst = static_cast<int>((static_cast<std::uint64_t>(src) + 1 +
                                         rng.next_below(kRanks - 1)) % kRanks);
      const auto s_at = static_cast<std::size_t>(src);
      const auto d_at = static_cast<std::size_t>(dst);
      util::Buffer fb, rb;
      Strategy::DepShadow fd, rd;
      expect_same_work(fast[s_at]->strat->build(dst, fb, fd),
                       ref[s_at]->strat->build(dst, rb, rd));
      if constexpr (std::is_base_of_v<LogOnStrategy, S>) {
        ASSERT_EQ(fb, rb) << "step " << step;
        ASSERT_EQ(fd, rd) << "step " << step;
      } else {
        std::vector<ftapi::Determinant> sent = host_form_events(fb);
        fb.rewind();
        std::vector<ftapi::Determinant> serialized_events = wire::factored_parse(rb);
        rb.rewind();
        ASSERT_EQ(rd.size(), serialized_events.size());
        for (std::size_t i = 0; i < rd.size(); ++i) {
          serialized_events[i].set_dep_word(rd[i]);
        }
        expect_same_dets(sent, serialized_events);
        ASSERT_TRUE(fd.empty());
      }
      const std::size_t held = fast[d_at]->store.held_count();
      const std::size_t vertices = fast[d_at]->strat->graph_vertices();
      const Strategy::Work fw = fast[d_at]->strat->absorb(src, fb, fd);
      expect_same_work(fw, ref[d_at]->strat->absorb(src, rb, rd));
      const std::size_t added = fast[d_at]->store.held_count() - held;
      duplicates += fw.events - added;
      if constexpr (std::is_base_of_v<ManethoStrategy, S>) {
        // Every event new to the store became a graph vertex.
        EXPECT_EQ(fast[d_at]->strat->graph_vertices() - vertices, added);
      }
      deliver(dst, src);
      expect_same(src);
      expect_same(dst);
      expect_held_through_exact(fast[d_at]->store);
      for (int c = 0; c < kRanks; ++c) {
        const auto creator = static_cast<std::uint32_t>(c);
        if (fast[d_at]->store.held_through(creator) <
            fast[d_at]->store.known(creator)) {
          ++holes;
        }
      }
    } else if (op < 92) {
      // The EL advances some creators; a random half of the holders hear.
      for (int c = 0; c < kRanks; ++c) {
        const auto at = static_cast<std::size_t>(c);
        if (rng.next_below(2) == 0 || history[at].size() <= el_stable[at]) continue;
        el_stable[at] += 1 + rng.next_below(history[at].size() - el_stable[at]);
      }
      for (int h = 0; h < kRanks; ++h) {
        if (rng.next_below(2) == 0) continue;
        for (auto* world : {&fast, &ref}) {
          DiffRank& r = *(*world)[static_cast<std::size_t>(h)];
          r.store.set_stable(el_stable);
          r.strat->on_stable(el_stable);
        }
        expect_same(h);
      }
    } else if (op < 96) {
      const auto p = static_cast<std::size_t>(rng.next_below(kRanks));
      snaps[p] = Snapshot{serialized(fast[p]->store), serialized(*fast[p]->strat),
                          fast[p]->store.known_vector()};
    } else {
      const auto p = static_cast<int>(rng.next_below(kRanks));
      const auto p_at = static_cast<std::size_t>(p);
      if (!snaps[p_at]) continue;
      for (auto* world : {&fast, &ref}) {
        for (int r = 0; r < kRanks; ++r) {
          DiffRank& rank = *(*world)[static_cast<std::size_t>(r)];
          if (r != p) {
            rank.strat->on_peer_restart(p, snaps[p_at]->known);
            continue;
          }
          util::Buffer store = snaps[p_at]->store;
          util::Buffer views = snaps[p_at]->views;
          rank.store.restore(store);
          rank.strat->restore(views);
        }
      }
      for (int r = 0; r < kRanks; ++r) expect_same(r);
      expect_held_through_exact(fast[p_at]->store);
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(duplicates, 0u) << "no already-held event was piggybacked";
  EXPECT_GT(holes, 0u) << "no store ever held a hole";
}

TEST(StreamedPiggyback, VcausalMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    run_differential<VcausalStrategy>(seed);
  }
}

TEST(StreamedPiggyback, ManethoMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    run_differential<ManethoStrategy>(seed);
  }
}

TEST(StreamedPiggyback, LogOnMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    run_differential<LogOnStrategy>(seed);
  }
}

// LogOn's in-place order (a CSR Kahn pass over the store's runs) against
// the reference (for_range, map-based causal_order, plain_serialize) on
// seeded stores: a global reception history keeps cross edges acyclic;
// stores skip events (holes, absent antecedents), the stable point moves
// mid-history so runs wrap the ring, and self-sent events give an event
// two edges from its predecessor. One LogOnStrategy is re-attached for
// every case, so its scratch is reused across sizes.
TEST(LogOnOrder, InPlaceOrderMatchesCausalOrder) {
  util::Rng rng(31);
  const net::CostModel cost{};
  LogOnStrategy fast;
  std::uint64_t wraps = 0, hole_edges = 0, absent = 0, self_edges = 0, no_edge = 0;
  for (int cs = 0; cs < 400; ++cs) {
    SCOPED_TRACE(cs);
    const int nranks = 2 + static_cast<int>(rng.next_below(7));
    const int dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nranks)));
    EventStore fs(nranks), rs(nranks);
    ReferenceLogOn ref;
    fast.attach(&fs, &cost, dst == 0 ? 1 : 0, nranks);
    ref.attach(&rs, &cost, dst == 0 ? 1 : 0, nranks);
    std::vector<std::uint64_t> count(static_cast<std::size_t>(nranks), 0);
    std::vector<ftapi::Determinant> history;
    const std::uint64_t total = 1 + rng.next_below(160);
    const std::uint64_t split = rng.next_below(total);
    for (std::uint64_t t = 0; t < total; ++t) {
      const auto c = static_cast<std::uint32_t>(rng.next_below(nranks));
      const auto src = rng.next_below(4) == 0
                           ? c
                           : static_cast<std::uint32_t>(rng.next_below(nranks));
      ftapi::Determinant d = det(c, ++count[c], src, rng.next_u64(),
                                 static_cast<int>(rng.next_u64()));
      // What src had done before this message (src == c: c's own past).
      const std::uint64_t past = src == c ? count[c] - 1 : count[src];
      switch (rng.next_below(6)) {
        case 0: break;  // no edge
        case 1: d.set_dep_word(0); break;
        case 2: d.set_dep_word(past == 0 ? 0 : 1 + rng.next_below(past)); break;
        default: d.set_dep_word(past); break;
      }
      history.push_back(d);
    }
    for (std::uint64_t t = 0; t < total; ++t) {
      if (t == split) {
        std::vector<std::uint64_t> stable = fs.known_vector();
        for (std::uint64_t& v : stable) v = v == 0 ? 0 : rng.next_below(v + 1);
        fs.set_stable(stable);
        rs.set_stable(stable);
      }
      if (rng.next_below(6) == 0) continue;  // a hole
      fs.add(history[t]);
      rs.add(history[t]);
    }
    // Coverage: what the history exercised among the events sent.
    const auto hole_below = [&fs](std::uint32_t c, std::uint64_t seq) {
      std::uint64_t first = fs.stable(c) + 1;
      while (!fs.holds(c, first)) ++first;
      for (std::uint64_t q = first; q < seq; ++q) {
        if (!fs.holds(c, q)) return true;
      }
      return false;
    };
    for (int c = 0; c < nranks; ++c) {
      const auto creator = static_cast<std::uint32_t>(c);
      std::uint64_t end = 0;
      fs.for_runs(creator, 0, fs.known(creator), [&](const EventStore::Run& r) {
        if (c != dst && r.first == end) ++wraps;  // split at the ring's end
        end = r.first + r.count;
      });
    }
    for (const ftapi::Determinant& d : history) {
      if (static_cast<int>(d.creator) == dst || !fs.holds(d.creator, d.seq)) continue;
      if (d.dep_creator == UINT32_MAX || d.dep_seq == 0) {
        ++no_edge;
      } else if (!fs.holds(d.dep_creator, d.dep_seq) ||
                 static_cast<int>(d.dep_creator) == dst) {
        ++absent;
      } else if (d.dep_creator == d.creator && d.dep_seq == d.seq - 1) {
        ++self_edges;
      } else if (hole_below(d.dep_creator, d.dep_seq)) {
        ++hole_edges;  // found by binary search, not by its offset
      }
    }

    util::Buffer fb, rb;
    Strategy::DepShadow fd, rd;
    const Strategy::Work fw = fast.build(dst, fb, fd);
    const Strategy::Work rw = ref.build(dst, rb, rd);
    ASSERT_EQ(fb, rb);
    ASSERT_EQ(fd, rd);
    EXPECT_EQ(fw.events, rw.events);
    EXPECT_EQ(fw.bytes, rw.bytes);
    EXPECT_EQ(fw.cpu, rw.cpu);
    EXPECT_EQ(serialized(fast), serialized(ref));
    // The bytes are causal_order's sequence of every held event not dst's.
    std::vector<ftapi::Determinant> held;
    for (int c = 0; c < nranks; ++c) {
      if (c == dst) continue;
      fs.collect(static_cast<std::uint32_t>(c), held);
    }
    const std::vector<ftapi::Determinant> expect = LogOnStrategy::causal_order(held);
    const std::vector<ftapi::Determinant> got = wire::plain_parse(fb);
    ASSERT_EQ(got, expect);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(fd[i], expect[i].dep_word()) << "index " << i;
    }
  }
  EXPECT_GT(wraps, 0u);
  EXPECT_GT(hole_edges, 0u);
  EXPECT_GT(absent, 0u);
  EXPECT_GT(self_edges, 0u);
  EXPECT_GT(no_edge, 0u);
}

// --- factored parser fuzz ----------------------------------------------------------

// A valid factored piggyback and its layout.
struct FuzzSample {
  util::Buffer bytes;
  std::vector<std::size_t> payload;  // offsets of first_seq and event bytes
  std::vector<std::uint32_t> counts;  // events per block
  std::size_t last_count_at = 0;      // offset of the last block's count
};

FuzzSample fuzz_sample(util::Rng& rng) {
  std::vector<ftapi::Determinant> events;
  for (std::uint64_t r = 0, runs = 1 + rng.next_below(8); r < runs; ++r) {
    const auto creator = static_cast<std::uint32_t>(rng.next_below(40));
    const std::uint64_t first = 1 + rng.next_below(1000);
    for (std::uint64_t q = 0, len = 1 + rng.next_below(20); q < len; ++q) {
      events.push_back(det(creator, first + q,
                           static_cast<std::uint32_t>(rng.next_below(64)),
                           rng.next_u64(), static_cast<int>(rng.next_u64())));
    }
  }
  FuzzSample s;
  wire::factored_serialize(events, s.bytes);
  const std::uint16_t nblocks = s.bytes.get_u16();
  for (std::uint16_t b = 0; b < nblocks; ++b) {
    s.bytes.skip(2);
    s.last_count_at = s.bytes.cursor();
    const std::uint16_t count = s.bytes.get_u16();
    s.counts.push_back(count);
    const std::size_t first_at = s.bytes.cursor();
    const std::size_t end = first_at + 8 + count * wire::kFactoredPerEvent;
    for (std::size_t at = first_at; at < end; ++at) s.payload.push_back(at);
    s.bytes.skip(end - first_at);
  }
  s.bytes.rewind();
  return s;
}

util::Buffer mutate(const util::Buffer& in, std::size_t at, std::uint8_t x) {
  std::vector<std::uint8_t> bytes = in.bytes();
  bytes[at] ^= x;
  return util::Buffer(std::move(bytes));
}

TEST(WireFuzz, PayloadMutantsDecodeTheSameThroughBothParsers) {
  util::Rng rng(77);
  for (int sample = 0; sample < 150; ++sample) {
    const FuzzSample s = fuzz_sample(rng);
    for (int m = 0; m < 8; ++m) {
      util::Buffer mutant = s.bytes;
      for (std::uint64_t f = 0, flips = 1 + rng.next_below(4); f < flips; ++f) {
        const std::size_t at = s.payload[rng.next_below(s.payload.size())];
        mutant = mutate(mutant, at, static_cast<std::uint8_t>(1 + rng.next_below(255)));
      }
      util::Buffer a = mutant;
      const std::vector<ftapi::Determinant> ref = wire::factored_parse(a);
      EXPECT_EQ(a.remaining(), 0u);
      ASSERT_EQ(read_skipping(mutant, 0), ref);
      // Skipping drops exactly each block's prefix.
      const auto skip = static_cast<std::uint32_t>(rng.next_below(6));
      std::vector<ftapi::Determinant> expect;
      std::size_t i = 0;
      for (const std::uint32_t n : s.counts) {
        for (std::uint32_t k = 0; k < n; ++k, ++i) {
          if (k >= skip) expect.push_back(ref[i]);
        }
      }
      ASSERT_EQ(read_skipping(mutant, skip), expect);
    }
  }
}

TEST(WireFuzzDeathTest, HeaderAndTruncationMutantsUnderrun) {
  util::Rng rng(78);
  for (int sample = 0; sample < 6; ++sample) {
    const FuzzSample s = fuzz_sample(rng);
    std::vector<util::Buffer> mutants;
    // One more block than the bytes hold.
    std::vector<std::uint8_t> bytes = s.bytes.bytes();
    bytes[0] = static_cast<std::uint8_t>(bytes[0] + 1 + rng.next_below(3));
    mutants.emplace_back(bytes);
    // A longer last block.
    bytes = s.bytes.bytes();
    bytes[s.last_count_at] = static_cast<std::uint8_t>(bytes[s.last_count_at] + 1);
    mutants.emplace_back(bytes);
    // Truncated anywhere.
    bytes = s.bytes.bytes();
    bytes.resize(rng.next_below(bytes.size()));
    mutants.emplace_back(bytes);
    for (const util::Buffer& m : mutants) {
      EXPECT_DEATH(
          {
            util::Buffer b = m;
            wire::factored_parse(b);
          },
          "read underrun");
      EXPECT_DEATH(read_skipping(m, 0), "read underrun");
      EXPECT_DEATH(read_skipping(m, 3), "read underrun");
    }
  }
}

// --- plain (LogOn) reader fuzz ------------------------------------------------------

// A valid plain piggyback over kRanks creators and its dep shadow.
struct PlainSample {
  static constexpr int kRanks = 16;
  util::Buffer bytes;
  Strategy::DepShadow deps;
};

PlainSample plain_sample(util::Rng& rng) {
  std::vector<ftapi::Determinant> events;
  for (std::uint64_t i = 0, n = 1 + rng.next_below(60); i < n; ++i) {
    ftapi::Determinant d = random_det(
        rng, static_cast<std::uint32_t>(rng.next_below(PlainSample::kRanks)),
        1 + rng.next_below(200), PlainSample::kRanks);
    if (rng.next_below(8) == 0) d.set_dep_word(0);
    events.push_back(d);
  }
  PlainSample s;
  wire::plain_serialize(events, s.bytes);
  for (const ftapi::Determinant& d : events) s.deps.push_back(d.dep_word());
  return s;
}

TEST(PlainFuzz, PayloadMutantsDecodeTheSameThroughBothReaders) {
  // Flips in any byte of the factored record (src, ssn, tag), in a seq's
  // low byte (duplicates, events at or below stable, holes) and in a
  // creator's low four bits (another valid rank): LogOnStrategy::absorb and
  // the plain_parse reference leave the same knowledge behind.
  util::Rng rng(79);
  const net::CostModel cost{};
  for (int sample = 0; sample < 150; ++sample) {
    const PlainSample s = plain_sample(rng);
    const std::size_t n = s.deps.size();
    for (int m = 0; m < 8; ++m) {
      std::vector<std::uint8_t> bytes = s.bytes.bytes();
      for (std::uint64_t f = 0, flips = 1 + rng.next_below(4); f < flips; ++f) {
        const std::size_t at = wire::kPlainHeader + rng.next_below(n) * wire::kPlainPerEvent;
        switch (rng.next_below(3)) {
          case 0:
            bytes[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(15));
            break;
          case 1: bytes[at + 2] ^= static_cast<std::uint8_t>(1 + rng.next_below(255)); break;
          default:
            bytes[at + 10 + rng.next_below(wire::kFactoredPerEvent)] ^=
                static_cast<std::uint8_t>(1 + rng.next_below(255));
            break;
        }
      }
      EventStore fs(PlainSample::kRanks), rs(PlainSample::kRanks);
      LogOnStrategy fast;
      ReferenceLogOn ref;
      fast.attach(&fs, &cost, 0, PlainSample::kRanks);
      ref.attach(&rs, &cost, 0, PlainSample::kRanks);
      util::Buffer fb(bytes), rb(bytes);
      expect_same_work(fast.absorb(1, fb, s.deps), ref.absorb(1, rb, s.deps));
      EXPECT_EQ(fb.remaining(), 0u);
      EXPECT_EQ(rb.remaining(), 0u);
      EXPECT_EQ(serialized(fs), serialized(rs));
      EXPECT_EQ(serialized(fast), serialized(ref));
      EXPECT_EQ(fast.graph_vertices(), ref.graph_vertices());
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(PlainFuzzDeathTest, CountAndTruncationMutantsUnderrun) {
  util::Rng rng(80);
  const auto absorb = [](const std::vector<std::uint8_t>& bytes,
                         const Strategy::DepShadow& deps) {
    const net::CostModel cost{};
    EventStore store(PlainSample::kRanks);
    LogOnStrategy strat;
    strat.attach(&store, &cost, 0, PlainSample::kRanks);
    util::Buffer in(bytes);
    strat.absorb(1, in, deps);
  };
  const auto parse = [](const std::vector<std::uint8_t>& bytes) {
    util::Buffer in(bytes);
    wire::plain_parse(in);
  };
  for (int sample = 0; sample < 6; ++sample) {
    const PlainSample s = plain_sample(rng);
    std::vector<std::vector<std::uint8_t>> mutants;
    // One more event than the bytes hold (samples carry at most 60).
    std::vector<std::uint8_t> bytes = s.bytes.bytes();
    ++bytes[0];
    mutants.push_back(bytes);
    // Truncated anywhere.
    bytes = s.bytes.bytes();
    bytes.resize(rng.next_below(bytes.size()));
    mutants.push_back(bytes);
    for (const std::vector<std::uint8_t>& m : mutants) {
      EXPECT_DEATH(absorb(m, s.deps), "read underrun");
      EXPECT_DEATH(parse(m), "read underrun");
    }
    // A creator past the last rank.
    bytes = s.bytes.bytes();
    bytes[wire::kPlainHeader + rng.next_below(s.deps.size()) * wire::kPlainPerEvent + 1] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    EXPECT_DEATH(absorb(bytes, s.deps), "bad creator");
  }
}

// --- determinant and checkpoint-image parser fuzz --------------------------------

TEST(DeterminantFuzz, EveryByteStringRoundTrips) {
  util::Rng rng(93);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> bytes(ftapi::Determinant::kWireSize + rng.next_below(8));
    for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    util::Buffer in(bytes);
    const ftapi::Determinant d = ftapi::Determinant::deserialize(in);
    EXPECT_EQ(in.remaining(), bytes.size() - ftapi::Determinant::kWireSize);
    util::Buffer out;
    d.serialize(out);
    bytes.resize(ftapi::Determinant::kWireSize);
    ASSERT_EQ(out.bytes(), bytes);
  }
}

TEST(DeterminantFuzzDeathTest, TruncationsUnderrun) {
  util::Rng rng(94);
  for (int i = 0; i < 6; ++i) {
    std::vector<std::uint8_t> bytes(rng.next_below(ftapi::Determinant::kWireSize));
    for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_DEATH(
        {
          util::Buffer in(bytes);
          ftapi::Determinant::deserialize(in);
        },
        "read underrun");
  }
}

// An EventStore checkpoint image and where each held determinant sits.
struct ImageSample {
  static constexpr int kRanks = 4;
  // Offsets inside one image entry: the wire determinant, then the edge.
  static constexpr std::size_t kCreatorAt = 0, kSeqAt = 2, kSrcAt = 10,
                               kSsnAt = 12, kDepCreatorAt = 24, kDepSeqAt = 26;
  struct Entry {
    std::size_t at = 0;
    bool edge = false;
    std::uint16_t src = 0;
  };
  util::Buffer bytes;
  std::vector<Entry> entries;
};

ImageSample image_sample(util::Rng& rng) {
  EventStore s(ImageSample::kRanks);
  for (int i = 0; i < 120; ++i) {
    const auto c = static_cast<std::uint32_t>(rng.next_below(ImageSample::kRanks));
    const std::uint64_t gap = rng.next_below(5) == 0 ? rng.next_below(6) : 0;
    s.add(random_det(rng, c, s.known(c) + 1 + gap, ImageSample::kRanks));
  }
  std::vector<std::uint64_t> stable = s.known_vector();
  for (std::uint64_t& v : stable) v /= 3;
  s.set_stable(stable);
  ImageSample x;
  s.serialize(x.bytes);
  for (int c = 0; c < ImageSample::kRanks; ++c) {
    x.bytes.skip(16);
    for (std::uint32_t i = 0, n = x.bytes.get_u32(); i < n; ++i) {
      ImageSample::Entry e;
      e.at = x.bytes.cursor();
      x.bytes.skip(ImageSample::kSrcAt);
      e.src = x.bytes.get_u16();
      x.bytes.skip(ImageSample::kDepCreatorAt - ImageSample::kSsnAt);
      e.edge = x.bytes.get_u16() != 0xFFFF;
      x.bytes.skip(8);
      x.entries.push_back(e);
    }
  }
  EXPECT_EQ(x.bytes.remaining(), 0u);
  x.bytes.rewind();
  return x;
}

void put16(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint16_t v) {
  std::memcpy(bytes.data() + at, &v, 2);
}

TEST(ImageFuzz, FieldMutantsRestoreLikeTheReference) {
  // Flips in ssn, in a seq's low byte (duplicates, events at or below
  // stable, new holes), in the edge seq of an event with an edge and in the
  // src of one without: both stores restore the same knowledge.
  util::Rng rng(91);
  for (int sample = 0; sample < 100; ++sample) {
    const ImageSample x = image_sample(rng);
    for (int m = 0; m < 8; ++m) {
      std::vector<std::uint8_t> bytes = x.bytes.bytes();
      for (std::uint64_t f = 0, flips = 1 + rng.next_below(3); f < flips; ++f) {
        const ImageSample::Entry& e = x.entries[rng.next_below(x.entries.size())];
        std::size_t at = e.at;
        switch (rng.next_below(4)) {
          case 0: at += ImageSample::kSsnAt + rng.next_below(8); break;
          case 1: at += ImageSample::kSeqAt; break;
          case 2:
            at += e.edge ? ImageSample::kDepSeqAt + rng.next_below(7)
                         : ImageSample::kSrcAt + rng.next_below(2);
            break;
          default: at += ImageSample::kSsnAt + 8 + rng.next_below(4); break;  // tag
        }
        bytes[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
      util::Buffer fi(bytes), ri(bytes);
      EventStore fast(ImageSample::kRanks);
      ColumnarStore ref(ImageSample::kRanks);
      fast.restore(fi);
      ref.restore(ri);
      EXPECT_EQ(fi.remaining(), 0u);
      expect_same_stores(fast, ref, rng);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(ImageFuzzDeathTest, BadEdgesCreatorsAndTruncationsDie) {
  util::Rng rng(92);
  const auto restore = [](const std::vector<std::uint8_t>& bytes) {
    util::Buffer in(bytes);
    EventStore s(ImageSample::kRanks);
    s.restore(in);
  };
  for (int sample = 0; sample < 4; ++sample) {
    const ImageSample x = image_sample(rng);
    std::vector<const ImageSample::Entry*> edged, bare;
    for (const ImageSample::Entry& e : x.entries) (e.edge ? edged : bare).push_back(&e);
    ASSERT_FALSE(edged.empty());
    ASSERT_FALSE(bare.empty());
    // An edge on a rank other than the event's src is never repacked.
    const ImageSample::Entry& e = *edged[rng.next_below(edged.size())];
    std::vector<std::uint8_t> bytes = x.bytes.bytes();
    put16(bytes, e.at + ImageSample::kDepCreatorAt,
          static_cast<std::uint16_t>((e.src + 1 + rng.next_below(100)) % 0xFFFF));
    EXPECT_DEATH(restore(bytes), "cross edge of");
    // No edge, yet an edge seq.
    const ImageSample::Entry& b = *bare[rng.next_below(bare.size())];
    bytes = x.bytes.bytes();
    bytes[b.at + ImageSample::kDepSeqAt + rng.next_below(8)] ^= 0x5a;
    EXPECT_DEATH(restore(bytes), "edge-less determinant");
    // An event filed under another creator.
    bytes = x.bytes.bytes();
    const ImageSample::Entry& w = x.entries[rng.next_below(x.entries.size())];
    bytes[w.at + ImageSample::kCreatorAt] ^= static_cast<std::uint8_t>(1 + rng.next_below(3));
    EXPECT_DEATH(restore(bytes), "image holds creator");
    // Truncated anywhere.
    bytes = x.bytes.bytes();
    bytes.resize(rng.next_below(bytes.size()));
    EXPECT_DEATH(restore(bytes), "read underrun");
  }
}

}  // namespace
}  // namespace mpiv::causal
