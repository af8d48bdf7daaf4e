// Tests for RunContext: deadlines, cooperative cancellation and memory
// budgets, both as a unit and threaded through the miners.

#include "common/run_context.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/agree_sets.h"
#include "core/dep_miner.h"
#include "fastfds/fastfds.h"
#include "fdep/fdep.h"
#include "storage/streaming.h"
#include "tane/tane.h"
#include "test_util.h"

namespace depminer {
namespace {

using ::depminer::testing::PaperExampleRelation;
using ::depminer::testing::RandomRelation;

/// A relation on which a full Dep-Miner run takes well over the timeouts
/// used below: 30 attributes of near-random data make the levelwise
/// transversal search alone run for seconds.
Relation SlowRelation() { return RandomRelation(30, 800, 3, 20260806); }

// ---------------------------------------------------------------- unit --

TEST(RunContext, UnarmedIsFreeAndOk) {
  RunContext ctx;
  EXPECT_FALSE(ctx.limited());
  EXPECT_TRUE(ctx.Check().ok());
  EXPECT_FALSE(ctx.StopRequested());
}

TEST(RunContext, ExpiredDeadlineTrips) {
  RunContext ctx;
  ctx.SetDeadline(RunContext::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(ctx.limited());
  EXPECT_EQ(ctx.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(ctx.StopRequested());
}

TEST(RunContext, FutureDeadlineDoesNotTrip) {
  RunContext ctx;
  ctx.SetTimeout(std::chrono::hours(1));
  EXPECT_TRUE(ctx.limited());
  EXPECT_TRUE(ctx.Check().ok());
}

// now() + timeout past the clock's range would wrap into the past and
// trip at once; such a timeout arms nothing instead.
TEST(RunContext, TimeoutPastTheClockRangeIsNoDeadline) {
  RunContext ctx;
  ctx.SetTimeout(std::chrono::milliseconds(9'300'000'000'000));
  ctx.SetTimeout(std::chrono::milliseconds::max());
  EXPECT_FALSE(ctx.limited());
  EXPECT_TRUE(ctx.Check().ok());
  EXPECT_EQ(ctx.DeadlineSlackNs(), INT64_MAX);
}

TEST(RunContext, CancellationTripsAndTakesPrecedence) {
  RunContext ctx;
  ctx.SetDeadline(RunContext::Clock::now() - std::chrono::milliseconds(1));
  ctx.RequestCancel();
  EXPECT_TRUE(ctx.cancel_requested());
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
}

TEST(RunContext, MemoryBudgetTripsAndReleases) {
  RunContext ctx;
  ctx.SetMemoryBudget(1000);
  EXPECT_TRUE(ctx.Check().ok());
  ctx.ChargeBytes(1500);
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCapacityExceeded);
  ctx.ReleaseBytes(1500);
  EXPECT_TRUE(ctx.Check().ok());
  EXPECT_EQ(ctx.high_water_bytes(), 1500u);
}

TEST(RunContext, ScopedChargeAdjustsAndReleases) {
  RunContext ctx;
  ctx.SetMemoryBudget(1 << 20);
  {
    ScopedMemoryCharge charge(&ctx);
    charge.Set(4096);
    EXPECT_EQ(ctx.bytes_used(), 4096u);
    charge.Set(1024);  // shrinking releases the difference
    EXPECT_EQ(ctx.bytes_used(), 1024u);
  }
  EXPECT_EQ(ctx.bytes_used(), 0u);
  ScopedMemoryCharge null_charge(nullptr);  // null context: all no-ops
  null_charge.Set(123);
}

// ----------------------------------------------- deadline mid-pipeline --

TEST(RunContextMining, DeadlineExpiryMidMineReturnsPartialStats) {
  const Relation r = SlowRelation();
  RunContext ctx;
  ctx.SetTimeout(std::chrono::milliseconds(50));
  DepMinerOptions options;
  options.run_context = &ctx;
  options.build_armstrong = false;
  Result<DepMinerResult> mined = MineDependencies(r, options);
  ASSERT_TRUE(mined.ok());
  EXPECT_FALSE(mined.value().complete);
  EXPECT_EQ(mined.value().run_status.code(), StatusCode::kDeadlineExceeded);
  // The stages that ran before the trip left their statistics behind.
  EXPECT_GT(mined.value().stats.Total(), 0.0);
}

TEST(RunContextMining, AlreadyExpiredDeadlineFailsFast) {
  const Relation r = PaperExampleRelation();
  RunContext ctx;
  ctx.SetDeadline(RunContext::Clock::now() - std::chrono::milliseconds(1));
  DepMinerOptions options;
  options.run_context = &ctx;
  Result<DepMinerResult> mined = MineDependencies(r, options);
  ASSERT_FALSE(mined.ok());
  EXPECT_EQ(mined.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(RunContextMining, TaneHonorsDeadline) {
  const Relation r = SlowRelation();
  RunContext ctx;
  ctx.SetTimeout(std::chrono::milliseconds(50));
  TaneOptions options;
  options.run_context = &ctx;
  Result<TaneResult> result = TaneDiscover(r, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().complete);
  EXPECT_EQ(result.value().run_status.code(), StatusCode::kDeadlineExceeded);
}

TEST(RunContextMining, FastFdsHonorsDeadline) {
  const Relation r = SlowRelation();
  RunContext ctx;
  ctx.SetTimeout(std::chrono::milliseconds(50));
  Result<FastFdsResult> result = FastFdsDiscover(r, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().complete);
  EXPECT_EQ(result.value().run_status.code(), StatusCode::kDeadlineExceeded);
}

TEST(RunContextMining, FdepHonorsDeadline) {
  const Relation r = SlowRelation();
  RunContext ctx;
  ctx.SetTimeout(std::chrono::milliseconds(50));
  Result<FdepResult> result = FdepDiscover(r, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().complete);
  EXPECT_EQ(result.value().run_status.code(), StatusCode::kDeadlineExceeded);
}

// ------------------------------------------ cancellation from a thread --

TEST(RunContextMining, CancellationFromSecondThreadStopsTheRun) {
  const Relation r = SlowRelation();
  RunContext ctx;
  DepMinerOptions options;
  options.run_context = &ctx;
  options.build_armstrong = false;
  std::thread canceller([&ctx] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ctx.RequestCancel();
  });
  Result<DepMinerResult> mined = MineDependencies(r, options);
  canceller.join();
  ASSERT_TRUE(mined.ok());
  EXPECT_FALSE(mined.value().complete);
  EXPECT_EQ(mined.value().run_status.code(), StatusCode::kCancelled);
}

TEST(RunContextMining, CancellationStopsParallelLhsSearch) {
  const Relation r = SlowRelation();
  RunContext ctx;
  DepMinerOptions options;
  options.run_context = &ctx;
  options.num_threads = 4;
  options.build_armstrong = false;
  std::thread canceller([&ctx] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ctx.RequestCancel();
  });
  Result<DepMinerResult> mined = MineDependencies(r, options);
  canceller.join();
  ASSERT_TRUE(mined.ok());
  EXPECT_FALSE(mined.value().complete);
  EXPECT_EQ(mined.value().run_status.code(), StatusCode::kCancelled);
}

// -------------------------------------------------------- memory budget --

TEST(RunContextMining, BudgetExhaustionTripsAgreeSetChunkLoop) {
  const Relation r = RandomRelation(8, 600, 2, 7);  // many, large couples
  const StrippedPartitionDatabase db =
      StrippedPartitionDatabase::FromRelation(r);
  RunContext ctx;
  ctx.SetMemoryBudget(1024);  // absurdly small: trips on the first chunk
  AgreeSetOptions options;
  options.max_couples_per_chunk = 1000;
  options.run_context = &ctx;
  const AgreeSetResult agree = ComputeAgreeSetsCouples(db, options);
  EXPECT_EQ(agree.status.code(), StatusCode::kCapacityExceeded);
  EXPECT_GT(ctx.high_water_bytes(), 1024u);
}

TEST(RunContextMining, BudgetExhaustionDegradesMineGracefully) {
  const Relation r = RandomRelation(8, 600, 2, 7);
  RunContext ctx;
  ctx.SetMemoryBudget(1024);
  DepMinerOptions options;
  options.run_context = &ctx;
  options.build_armstrong = false;
  Result<DepMinerResult> mined = MineDependencies(r, options);
  ASSERT_TRUE(mined.ok());
  EXPECT_FALSE(mined.value().complete);
  EXPECT_EQ(mined.value().run_status.code(), StatusCode::kCapacityExceeded);
}

TEST(RunContextMining, GenerousBudgetDoesNotTrip) {
  const Relation r = PaperExampleRelation();
  RunContext ctx;
  ctx.SetTimeout(std::chrono::hours(1));
  ctx.SetMemoryBudget(size_t{1} << 32);
  DepMinerOptions options;
  options.run_context = &ctx;
  Result<DepMinerResult> governed = MineDependencies(r, options);
  Result<DepMinerResult> free = MineDependencies(r);
  ASSERT_TRUE(governed.ok());
  ASSERT_TRUE(free.ok());
  EXPECT_TRUE(governed.value().complete);
  EXPECT_EQ(governed.value().fds.fds(), free.value().fds.fds());
}

// ---------------------------------------------- unlimited pass-through --

TEST(RunContextMining, UnarmedContextIsPassThrough) {
  const Relation r = PaperExampleRelation();
  RunContext ctx;  // never armed
  DepMinerOptions options;
  options.run_context = &ctx;
  Result<DepMinerResult> governed = MineDependencies(r, options);
  Result<DepMinerResult> free = MineDependencies(r);
  ASSERT_TRUE(governed.ok());
  ASSERT_TRUE(free.ok());
  EXPECT_TRUE(governed.value().complete);
  EXPECT_TRUE(governed.value().run_status.ok());
  EXPECT_EQ(governed.value().fds.fds(), free.value().fds.fds());
  EXPECT_EQ(governed.value().all_max_sets, free.value().all_max_sets);
}

// ------------------------------------------------------------ streaming --

TEST(RunContextMining, StreamingExtractionHonorsExpiredDeadline) {
  std::string csv = "a,b,c\n";
  for (int i = 0; i < 5000; ++i) {
    csv += std::to_string(i % 50) + "," + std::to_string(i % 7) + "," +
           std::to_string(i % 3) + "\n";
  }
  RunContext ctx;
  ctx.SetDeadline(RunContext::Clock::now() - std::chrono::milliseconds(1));
  StreamingOptions options;
  options.run_context = &ctx;
  Result<StreamingExtract> extract = ExtractFromCsvText(csv, options);
  ASSERT_FALSE(extract.ok());
  EXPECT_EQ(extract.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace depminer
