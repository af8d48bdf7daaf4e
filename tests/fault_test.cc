// Fault-injection tests: the FaultScope/FaultPlan mechanics, the
// RunContext budget-trip path of every miner under an injected
// allocation failure, the latched deadline-jitter site, lane-stall
// bit-identity, the retrying CSV reader, and a small end-to-end sweep.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <utility>

#include "catalog/fingerprint.h"
#include "common/file_reader.h"
#include "common/run_context.h"
#include "core/mine_by_name.h"
#include "fault/fault.h"
#include "fd/satisfaction.h"
#include "relation/csv.h"
#include "storage/streaming.h"
#include "test_util.h"
#include "verify/fault_sweep.h"

namespace depminer {
namespace {

using ::depminer::testing::PaperExampleRelation;

#if !DEPMINER_FAULTS_ENABLED
#error "fault_test must build with the fault sites compiled in"
#endif

TEST(FaultRegistry, NamesResolveAndEncodeTheirKind) {
  const std::vector<FaultSite>& registry = FaultSiteRegistry();
  ASSERT_FALSE(registry.empty());
  for (const FaultSite& site : registry) {
    const FaultSite* found = FindFaultSite(site.name);
    ASSERT_NE(found, nullptr) << site.name;
    EXPECT_EQ(found->kind, site.kind) << site.name;
    EXPECT_NE(site.where, nullptr) << site.name;
  }
  EXPECT_EQ(FindFaultSite("no/such/site"), nullptr);
}

TEST(FaultScope, CountsHitsAndFiresFromTheTrigger) {
  FaultPlan plan;
  plan.site = "alloc/agree";
  plan.trigger_hit = 2;
  FaultScope scope(plan);
  // Polls 0 and 1 pass, poll 2 fires, poll 3 passes again (one-shot).
  EXPECT_FALSE(fault::ShouldFire("alloc/agree"));
  EXPECT_FALSE(fault::ShouldFire("alloc/agree"));
  EXPECT_TRUE(fault::ShouldFire("alloc/agree"));
  EXPECT_FALSE(fault::ShouldFire("alloc/agree"));
  // A different site neither counts nor fires.
  EXPECT_FALSE(fault::ShouldFire("alloc/tane"));
  EXPECT_EQ(scope.hits(), 4u);
  EXPECT_EQ(scope.fires(), 1u);
}

TEST(FaultScope, RepeatKeepsFiringAfterTheTrigger) {
  FaultPlan plan;
  plan.site = "io/csv-read";
  plan.trigger_hit = 1;
  plan.repeat = true;
  FaultScope scope(plan);
  EXPECT_FALSE(fault::ShouldFire("io/csv-read"));
  EXPECT_TRUE(fault::ShouldFire("io/csv-read"));
  EXPECT_TRUE(fault::ShouldFire("io/csv-read"));
  EXPECT_EQ(scope.fires(), 2u);
}

TEST(FaultScope, NoPlanMeansNoFiring) {
  EXPECT_FALSE(fault::Active());
  EXPECT_FALSE(fault::ShouldFire("alloc/agree"));
  EXPECT_TRUE(fault::Poll("io/csv-read").ok());
}

TEST(FaultPlanTest, FromSeedIsDeterministicAndNamesARealSite) {
  for (uint64_t seed = 0; seed < 32; ++seed) {
    const FaultPlan a = FaultPlan::FromSeed(seed);
    const FaultPlan b = FaultPlan::FromSeed(seed);
    EXPECT_EQ(a.site, b.site);
    EXPECT_EQ(a.trigger_hit, b.trigger_hit);
    EXPECT_EQ(a.repeat, b.repeat);
    EXPECT_NE(FindFaultSite(a.site), nullptr) << a.site;
  }
}

TEST(ForceTripTest, ArmsTheContextAndWinsOverEveryRealLimit) {
  RunContext ctx;
  EXPECT_FALSE(ctx.limited());
  ctx.ForceTrip(StatusCode::kCapacityExceeded);
  EXPECT_TRUE(ctx.limited());
  EXPECT_TRUE(ctx.force_tripped());
  const Status st = ctx.Check();
  EXPECT_EQ(st.code(), StatusCode::kCapacityExceeded);
  // The verdict is sticky: every later check agrees.
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCapacityExceeded);
  EXPECT_TRUE(ctx.StopRequested());
}

TEST(DeadlineJitterTest, InjectedDeadlineLatchesIntoTheContext) {
  RunContext ctx;
  ctx.SetTimeout(std::chrono::hours(1));
  FaultPlan plan;
  plan.site = "deadline/jitter";
  FaultScope scope(plan);
  EXPECT_EQ(ctx.Check().code(), StatusCode::kDeadlineExceeded);
  // One-shot plans fire once, but the verdict must latch: a later check
  // — possibly from another lane — reports the same trip, never OK.
  EXPECT_EQ(ctx.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(scope.fires(), 1u);
}

/// Satellite: the budget-trip path of each miner under an injected
/// allocation failure at its charge point. The outcome contract is the
/// fault sweep's: a matching error, a matching degraded partial whose
/// FDs all hold, or (fault after the last check) the full correct cover.
struct MinerAllocCase {
  const char* miner;
  const char* site;
};

/// Prints as `depminer@alloc/agree`, which ctest puts in each case's id
/// in place of gtest's index; the default byte dump would put the two
/// pointers there, which move from build to build.
void PrintTo(const MinerAllocCase& c, std::ostream* os) {
  *os << c.miner << '@' << c.site;
}

class MinerAllocFault : public ::testing::TestWithParam<MinerAllocCase> {};

TEST_P(MinerAllocFault, TripsSoundlyAtTheChargePoint) {
  const Relation relation = PaperExampleRelation();
  const std::string miner = GetParam().miner;
  const Result<MineOutcome> baseline = MineByName(relation, miner);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_TRUE(baseline.value().complete);

  FaultPlan plan;
  plan.site = GetParam().site;
  RunContext ctx;
  ctx.SetTimeout(std::chrono::hours(1));
  uint64_t fires = 0;
  Result<MineOutcome> mined = Status::NotFound("unset");
  {
    FaultScope scope(plan);
    mined = MineByName(relation, miner, {1, &ctx, {}});
    fires = scope.fires();
  }
  ASSERT_GE(fires, 1u) << "the " << GetParam().site
                       << " charge point was never polled";
  if (!mined.ok()) {
    EXPECT_EQ(mined.status().code(), StatusCode::kCapacityExceeded)
        << mined.status().ToString();
    return;
  }
  const MineOutcome& out = mined.value();
  if (out.complete) {
    EXPECT_TRUE(out.fds.EquivalentTo(baseline.value().fds));
    return;
  }
  EXPECT_EQ(out.run_status.code(), StatusCode::kCapacityExceeded)
      << out.run_status.ToString();
  for (const FunctionalDependency& fd : out.fds.fds()) {
    EXPECT_TRUE(Holds(relation, fd))
        << "unsound partial FD: " << fd.ToString(relation.schema());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMiners, MinerAllocFault,
    ::testing::Values(MinerAllocCase{"depminer", "alloc/agree"},
                      MinerAllocCase{"depminer2", "alloc/agree"},
                      MinerAllocCase{"depminer", "alloc/cmax"},
                      MinerAllocCase{"depminer", "alloc/lhs"},
                      MinerAllocCase{"tane", "alloc/tane"},
                      MinerAllocCase{"fastfds", "alloc/fastfds"},
                      MinerAllocCase{"fdep", "alloc/fdep"}));

TEST(LaneStallTest, StalledLanesStillProduceTheIdenticalCover) {
  const Relation relation =
      ::depminer::testing::RandomRelation(6, 120, 3, 7);
  const Result<MineOutcome> baseline =
      MineByName(relation, "depminer", {4, nullptr, {}});
  ASSERT_TRUE(baseline.ok());

  FaultPlan plan;
  plan.site = "pool/lane-stall";
  plan.repeat = true;  // every block claim of every lane sleeps
  plan.stall_ms = 1;
  Result<MineOutcome> stalled = Status::NotFound("unset");
  {
    FaultScope scope(plan);
    stalled = MineByName(relation, "depminer", {4, nullptr, {}});
  }
  ASSERT_TRUE(stalled.ok());
  EXPECT_TRUE(stalled.value().complete);
  // Bit-identical, not merely equivalent: lane pacing must not influence
  // the output at all.
  EXPECT_EQ(stalled.value().fds.fds(), baseline.value().fds.fds());
}

class RetryingReadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/depminer_fault_io.csv";
    std::ofstream out(path_);
    out << "a,b,c\n";
    for (int i = 0; i < 64; ++i) {
      out << i << "," << i % 5 << "," << i % 3 << "\n";
    }
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(RetryingReadTest, EintrIsRetriedTransparently) {
  Result<Relation> clean = ReadCsvRelation(path_);
  ASSERT_TRUE(clean.ok());

  FaultPlan plan;
  plan.site = "io/csv-eintr";
  uint64_t fires = 0;
  Result<Relation> read = Status::NotFound("unset");
  {
    FaultScope scope(plan);
    read = ReadCsvRelation(path_);
    fires = scope.fires();
  }
  ASSERT_GE(fires, 1u);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().num_tuples(), clean.value().num_tuples());
}

TEST_F(RetryingReadTest, PersistentEintrExhaustsItsBoundedBudget) {
  FaultPlan plan;
  plan.site = "io/csv-eintr";
  plan.repeat = true;
  FaultScope scope(plan);
  Result<Relation> read = ReadCsvRelation(path_);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST_F(RetryingReadTest, TransientIoErrorIsRetriedWithBackoff) {
  FaultPlan plan;
  plan.site = "io/csv-read";
  uint64_t fires = 0;
  Result<Relation> read = Status::NotFound("unset");
  {
    FaultScope scope(plan);
    read = ReadCsvRelation(path_);
    fires = scope.fires();
  }
  ASSERT_GE(fires, 1u);
  EXPECT_TRUE(read.ok()) << read.status().ToString();
}

TEST_F(RetryingReadTest, PersistentIoErrorSurfacesNotTruncates) {
  // The regression this guards: a mid-file read error must never yield a
  // *successfully parsed prefix* — that would silently drop tuples and
  // change the mined FDs.
  FaultPlan plan;
  plan.site = "io/csv-read";
  plan.trigger_hit = 1;  // let the first buffer fill succeed
  plan.repeat = true;
  FaultScope scope(plan);
  Result<Relation> read = ReadCsvRelation(path_);
  if (scope.fires() == 0) GTEST_SKIP() << "file fit in one buffer fill";
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST_F(RetryingReadTest, ShortReadsAreAbsorbedByBuffering) {
  Result<Relation> clean = ReadCsvRelation(path_);
  ASSERT_TRUE(clean.ok());
  FaultPlan plan;
  plan.site = "io/csv-short-read";
  plan.repeat = true;
  uint64_t fires = 0;
  Result<Relation> read = Status::NotFound("unset");
  {
    FaultScope scope(plan);
    read = ReadCsvRelation(path_);
    fires = scope.fires();
  }
  ASSERT_GE(fires, 1u);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().num_tuples(), clean.value().num_tuples());
}

TEST_F(RetryingReadTest, StreamingExtractionChecksTheStreamStatusToo) {
  FaultPlan plan;
  plan.site = "io/csv-read";
  plan.repeat = true;
  FaultScope scope(plan);
  Result<StreamingExtract> extract = ExtractFromCsv(path_);
  ASSERT_FALSE(extract.ok());
  EXPECT_EQ(extract.status().code(), StatusCode::kIoError);
}

TEST_F(RetryingReadTest, FileFingerprintRetriesLikeTheCsvReader) {
  Result<Fingerprint> clean = FingerprintFile(path_);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  // Recoverable: every read cut to one byte, or one EINTR or EIO retried.
  for (const auto& [site, repeat] :
       {std::pair{"io/csv-short-read", true}, std::pair{"io/csv-eintr", false},
        std::pair{"io/csv-read", false}}) {
    FaultPlan plan;
    plan.site = site;
    plan.repeat = repeat;
    FaultScope scope(plan);
    Result<Fingerprint> faulted = FingerprintFile(path_);
    EXPECT_GE(scope.fires(), 1u) << site;
    ASSERT_TRUE(faulted.ok()) << site << ": " << faulted.status().ToString();
    EXPECT_EQ(faulted.value(), clean.value()) << site;
  }
  // Persistent: every read fails, or EINTR outlasts its bounded budget.
  for (const char* site : {"io/csv-read", "io/csv-eintr"}) {
    FaultPlan plan;
    plan.site = site;
    plan.repeat = true;
    FaultScope scope(plan);
    Result<Fingerprint> faulted = FingerprintFile(path_);
    ASSERT_FALSE(faulted.ok()) << site;
    EXPECT_EQ(faulted.status().code(), StatusCode::kIoError) << site;
  }
}

TEST(RetryingFileStreamTest, MissingFileReportsNotFoundState) {
  RetryingFileStream in("/nonexistent/depminer.csv");
  EXPECT_FALSE(in.is_open());
  EXPECT_FALSE(in.status().ok());
}

TEST(FaultSweepTest, SmallSweepHoldsItsExpectations) {
  FaultSweepOptions options;
  options.iterations = 2;
  options.start_seed = 1;
  options.num_threads = 2;
  options.scratch_dir = ::testing::TempDir();
  Result<FaultSweepReport> run = RunFaultSweep(options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run.value().ok()) << run.value().ToString();
  EXPECT_GT(run.value().faults_fired, 0u);
  EXPECT_GT(run.value().runs, 0u);
}

TEST(FaultSweepTest, UnknownSiteIsAnArgumentError) {
  FaultSweepOptions options;
  options.iterations = 1;
  options.sites = {"bogus/site"};
  Result<FaultSweepReport> run = RunFaultSweep(options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace depminer
