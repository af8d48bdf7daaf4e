// Tests for ParallelFor and for thread-count invariance of the
// parallelized pipeline stages.

#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/rng.h"
#include "core/dep_miner.h"
#include "test_util.h"

namespace depminer {
namespace {

using ::depminer::testing::RandomRelation;

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {0u, 1u, 2u, 3u, 8u, 64u}) {
    std::vector<std::atomic<int>> hits(100);
    for (auto& h : hits) h = 0;
    ParallelFor(0, 100, threads, [&](size_t i) { hits[i]++; });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, EmptyAndSingletonRanges) {
  int calls = 0;
  ParallelFor(5, 5, 4, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(7, 8, 4, [&](size_t i) {
    ++calls;
    EXPECT_EQ(i, 7u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, NonZeroBegin) {
  std::atomic<size_t> sum{0};
  ParallelFor(10, 20, 3, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 145u);  // 10 + ... + 19
}

TEST(ParallelFor, DefaultThreadCountPositive) {
  EXPECT_GE(DefaultThreadCount(), 1u);
}

TEST(ParallelFor, StopPredicateHaltsInlineLoop) {
  size_t calls = 0;
  ParallelFor(
      0, 1000, 1, [&](size_t) { ++calls; },
      [&] { return calls >= 10; });
  EXPECT_EQ(calls, 10u);
}

TEST(ParallelFor, StopPredicateHaltsWorkers) {
  std::atomic<size_t> calls{0};
  std::atomic<bool> stop{false};
  ParallelFor(
      0, 100000, 8,
      [&](size_t) {
        if (calls.fetch_add(1) == 50) stop = true;
      },
      [&] { return stop.load(); });
  // Every worker quits at its next poll after the flag flips: well under
  // the full range, but at least the 51 calls it took to flip it.
  EXPECT_GE(calls.load(), 51u);
  EXPECT_LT(calls.load(), 100000u);
}

TEST(ParallelFor, FalseStopPredicateRunsEverything) {
  std::atomic<size_t> calls{0};
  ParallelFor(
      0, 500, 4, [&](size_t) { ++calls; }, [] { return false; });
  EXPECT_EQ(calls.load(), 500u);
}

TEST(ParallelFor, AssertNoThrowPassesThrough) {
  std::atomic<size_t> sum{0};
  ParallelFor(0, 10, 2, AssertNoThrow([&](size_t i) { sum += i; }));
  EXPECT_EQ(sum.load(), 45u);
}

TEST(ParallelPool, ReusesWorkersAcrossCalls) {
  // Warm the pool up to 4 lanes (3 helpers), then hammer it: the
  // persistent pool must serve every later 4-lane loop with the same
  // workers instead of spawning fresh threads per call.
  std::atomic<size_t> sum{0};
  ParallelFor(0, 64, 4, [&](size_t i) { sum += i; });
  const size_t started = PoolWorkersStarted();
  EXPECT_GE(started, 1u);
  for (int round = 0; round < 50; ++round) {
    ParallelFor(0, 64, 4, [&](size_t i) { sum += i; });
  }
  EXPECT_EQ(PoolWorkersStarted(), started);
}

TEST(ParallelPool, RunsFullyAfterAStoppedLoop) {
  // Regression: a loop abandoned by its stop predicate must leave the
  // pool fully functional — no stuck queue entries, no lost workers.
  std::atomic<bool> stop{false};
  std::atomic<size_t> first{0};
  ParallelFor(
      0, 100000, 8,
      [&](size_t) {
        if (first.fetch_add(1) == 20) stop = true;
      },
      [&] { return stop.load(); });
  EXPECT_LT(first.load(), 100000u);

  std::vector<std::atomic<int>> hits(5000);
  for (auto& h : hits) h = 0;
  ParallelFor(0, hits.size(), 8, [&](size_t i) { hits[i]++; });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForSlotted, SlotsAreBoundedAndConcurrentlyDistinct) {
  constexpr size_t kThreads = 8;
  constexpr size_t kCount = 20000;
  std::vector<std::atomic<bool>> in_use(kThreads);
  for (auto& f : in_use) f = false;
  std::atomic<bool> collision{false};
  std::atomic<size_t> calls{0};
  ParallelForSlotted(0, kCount, kThreads, [&](size_t slot, size_t) {
    ASSERT_LT(slot, kThreads);
    // Two lanes sharing a slot would trip this exchange.
    if (in_use[slot].exchange(true)) collision = true;
    calls.fetch_add(1);
    in_use[slot].store(false);
  });
  EXPECT_FALSE(collision.load());
  EXPECT_EQ(calls.load(), kCount);
}

TEST(ParallelForSlotted, NestedLoopRunsInlineWithoutDeadlock) {
  std::atomic<size_t> total{0};
  ParallelFor(0, 8, 4, [&](size_t) {
    // A nested parallel loop inside a pool lane must degrade to an
    // inline loop rather than block on the pool it is running on.
    ParallelFor(0, 100, 4, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 800u);
}

// A lane count past the pool's cap plans like the cap: the grain formula
// divides by 8 * lanes, which wraps to 0 at a multiple of 2^61.
TEST(MorselPlan, LaneCountPastThePoolCapKeepsAPositiveGrain) {
  // volatile keeps the compiler from folding the division by a constant.
  volatile size_t lanes = size_t{1} << 61;
  const MorselPlan plan(0, 1'000'000, lanes);
  EXPECT_GT(plan.grain, 0u);
  EXPECT_GT(plan.count, 0u);
  EXPECT_EQ(plan.grain, MorselPlan(0, 1'000'000, kMaxPoolWorkers).grain);
}

TEST(ParallelSort, MatchesStdSortAtEveryThreadCount) {
  Rng rng(7);
  std::vector<uint64_t> data(100000);
  for (uint64_t& v : data) v = rng.Next() % 5000;  // plenty of duplicates
  std::vector<uint64_t> expected = data;
  std::sort(expected.begin(), expected.end());
  for (size_t threads : {1u, 2u, 8u}) {
    std::vector<uint64_t> got = data;
    ParallelSort(got.begin(), got.end(), threads);
    EXPECT_EQ(got, expected) << threads << " threads";
  }
}

TEST(ParallelPipeline, ThreadCountDoesNotChangeResults) {
  const Relation r = RandomRelation(8, 300, 4, 77);
  DepMinerOptions serial;
  serial.num_threads = 1;
  Result<DepMinerResult> expected = MineDependencies(r, serial);
  ASSERT_TRUE(expected.ok());
  for (size_t threads : {2u, 4u, 16u}) {
    DepMinerOptions options;
    options.num_threads = threads;
    Result<DepMinerResult> got = MineDependencies(r, options);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().fds.fds(), expected.value().fds.fds())
        << threads << " threads";
    EXPECT_EQ(got.value().all_max_sets, expected.value().all_max_sets);
    ASSERT_EQ(got.value().armstrong.has_value(),
              expected.value().armstrong.has_value());
    if (got.value().armstrong.has_value()) {
      EXPECT_EQ(got.value().armstrong->num_tuples(),
                expected.value().armstrong->num_tuples());
    }
  }
}

}  // namespace
}  // namespace depminer
