// Checkpoint tests: the content fingerprint, the DMK1 phase-boundary
// format, and crash-safe resume — a mine interrupted at any pipeline
// phase must resume to the bit-identical cover, at any thread count.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <string_view>

#include "catalog/fingerprint.h"
#include "common/run_context.h"
#include "core/agree_sets.h"
#include "core/dep_miner.h"
#include "core/lhs.h"
#include "core/max_sets.h"
#include "fault/fault.h"
#include "relation/csv.h"
#include "storage/checkpoint.h"
#include "test_util.h"

namespace depminer {
namespace {

using ::depminer::testing::PaperExampleRelation;
using ::depminer::testing::PutLe;
using ::depminer::testing::ReadFileBytes;
using ::depminer::testing::WriteFileBytes;

TEST(FingerprintTest, DeterministicAndContentSensitive) {
  Fingerprinter a, b;
  a.UpdateString("hello");
  b.UpdateString("hello");
  EXPECT_EQ(a.Finish(), b.Finish());
  Fingerprinter c;
  c.UpdateString("hellp");
  EXPECT_NE(a.Finish(), c.Finish());
  EXPECT_EQ(a.Finish().ToHex().size(), 32u);
}

TEST(FingerprintTest, FieldBoundariesAreInjective) {
  // The length-prefixed encoding must distinguish ("ab","c") from
  // ("a","bc") — a plain byte concatenation would not.
  Fingerprinter a, b;
  a.UpdateString("ab");
  a.UpdateString("c");
  b.UpdateString("a");
  b.UpdateString("bc");
  EXPECT_NE(a.Finish(), b.Finish());
}

TEST(FingerprintTest, FileFingerprintTracksContent) {
  const std::string p1 = ::testing::TempDir() + "/fp_a.csv";
  const std::string p2 = ::testing::TempDir() + "/fp_b.csv";
  {
    std::ofstream(p1) << "a,b\n1,2\n";
    std::ofstream(p2) << "a,b\n1,2\n";
  }
  Result<Fingerprint> f1 = FingerprintFile(p1);
  Result<Fingerprint> f2 = FingerprintFile(p2);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f1.value(), f2.value());
  { std::ofstream(p2) << "a,b\n1,3\n"; }
  Result<Fingerprint> f3 = FingerprintFile(p2);
  ASSERT_TRUE(f3.ok());
  EXPECT_NE(f1.value(), f3.value());
  EXPECT_FALSE(FingerprintFile("/nonexistent/file.csv").ok());
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(FingerprintTest, RelationFingerprintSeesSchemaAndCells) {
  const Relation r = PaperExampleRelation();
  EXPECT_EQ(FingerprintRelation(r), FingerprintRelation(r));
}

/// Builds the real pipeline artifacts of the paper relation for the
/// round-trip tests.
struct PipelineArtifacts {
  Relation relation = PaperExampleRelation();
  StrippedPartitionDatabase partitions =
      StrippedPartitionDatabase::FromRelation(relation);
  AgreeSetResult agree = ComputeAgreeSetsCouples(partitions);
  MaxSetResult max_sets = ComputeMaxSets(agree);
  FdSet fds = OutputFds(ComputeLhs(max_sets));
};

JobCheckpoint BaseCheckpoint(const PipelineArtifacts& art) {
  JobCheckpoint ckpt;
  ckpt.fingerprint = FingerprintRelation(art.relation);
  ckpt.algorithm = AgreeSetAlgorithm::kCouples;
  ckpt.schema = art.relation.schema();
  ckpt.num_tuples = art.relation.num_tuples();
  return ckpt;
}

class CheckpointRoundTrip : public ::testing::Test {
 protected:
  std::string Path(const char* name) {
    return ::testing::TempDir() + "/depminer_" + name + ".dmk";
  }
  PipelineArtifacts art_;
};

TEST_F(CheckpointRoundTrip, StripPhase) {
  JobCheckpoint ckpt = BaseCheckpoint(art_);
  ckpt.phase = MinePhase::kStrip;
  ckpt.partitions = art_.partitions;
  const std::string path = Path("strip");
  ASSERT_TRUE(ckpt.Save(path).ok());
  Result<JobCheckpoint> loaded = JobCheckpoint::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().phase, MinePhase::kStrip);
  EXPECT_EQ(loaded.value().fingerprint, ckpt.fingerprint);
  EXPECT_EQ(loaded.value().num_tuples, ckpt.num_tuples);
  ASSERT_EQ(loaded.value().partitions.partitions().size(),
            art_.partitions.partitions().size());
  for (size_t a = 0; a < art_.partitions.partitions().size(); ++a) {
    EXPECT_TRUE(loaded.value().partitions.partitions()[a] ==
                art_.partitions.partitions()[a])
        << "attribute " << a;
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointRoundTrip, AgreePhase) {
  JobCheckpoint ckpt = BaseCheckpoint(art_);
  ckpt.phase = MinePhase::kAgree;
  ckpt.agree = art_.agree;
  const std::string path = Path("agree");
  ASSERT_TRUE(ckpt.Save(path).ok());
  Result<JobCheckpoint> loaded = JobCheckpoint::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().agree.sets, art_.agree.sets);
  EXPECT_EQ(loaded.value().agree.contains_empty, art_.agree.contains_empty);
  EXPECT_EQ(loaded.value().agree.num_tuples, art_.agree.num_tuples);
  EXPECT_EQ(loaded.value().agree.num_attributes, art_.agree.num_attributes);
  std::remove(path.c_str());
}

TEST_F(CheckpointRoundTrip, CmaxPhase) {
  JobCheckpoint ckpt = BaseCheckpoint(art_);
  ckpt.phase = MinePhase::kCmax;
  ckpt.max_sets = art_.max_sets;
  const std::string path = Path("cmax");
  ASSERT_TRUE(ckpt.Save(path).ok());
  Result<JobCheckpoint> loaded = JobCheckpoint::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().max_sets.max_sets, art_.max_sets.max_sets);
  EXPECT_EQ(loaded.value().max_sets.cmax_sets, art_.max_sets.cmax_sets);
  std::remove(path.c_str());
}

TEST_F(CheckpointRoundTrip, CoverPhase) {
  JobCheckpoint ckpt = BaseCheckpoint(art_);
  ckpt.phase = MinePhase::kCover;
  ckpt.fds = art_.fds;
  const std::string path = Path("cover");
  ASSERT_TRUE(ckpt.Save(path).ok());
  Result<JobCheckpoint> loaded = JobCheckpoint::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().fds.fds(), art_.fds.fds());
  std::remove(path.c_str());
}

/// A checkpoint of the paper example at `phase`, with its artifact.
JobCheckpoint PhaseCheckpoint(const PipelineArtifacts& art, MinePhase phase) {
  JobCheckpoint ckpt = BaseCheckpoint(art);
  ckpt.phase = phase;
  ckpt.partitions = art.partitions;
  ckpt.agree = art.agree;
  ckpt.max_sets = art.max_sets;
  ckpt.fds = art.fds;
  return ckpt;
}

constexpr MinePhase kAllPhases[] = {MinePhase::kStrip, MinePhase::kAgree,
                                    MinePhase::kCmax, MinePhase::kCover};

TEST_F(CheckpointRoundTrip, RejectsCorruptionAndTruncation) {
  const std::string path = Path("corrupt");
  for (MinePhase phase : kAllPhases) {
    SCOPED_TRACE(ToString(phase));
    ASSERT_TRUE(PhaseCheckpoint(art_, phase).Save(path).ok());
    std::string bytes = ReadFileBytes(path);
    // Truncation at every strict prefix must load cleanly as an
    // IoError, never crash or return a half-parsed checkpoint.
    for (size_t len = 0; len < bytes.size(); ++len) {
      WriteFileBytes(path, std::string_view(bytes).substr(0, len));
      Result<JobCheckpoint> cut = JobCheckpoint::Load(path);
      ASSERT_FALSE(cut.ok()) << "prefix " << len;
      EXPECT_EQ(cut.status().code(), StatusCode::kIoError) << "prefix " << len;
    }
    // Wrong magic.
    bytes[0] = 'X';
    WriteFileBytes(path, bytes);
    Result<JobCheckpoint> bad = JobCheckpoint::Load(path);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kIoError);
  }
  // Missing file.
  std::remove(path.c_str());
  Result<JobCheckpoint> missing = JobCheckpoint::Load(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointRoundTrip, DoctoredCountsAreIoErrors) {
  // Every count in a phase payload is checked against the bytes left
  // before it sizes anything, so a doctored count is a clean IoError
  // instead of an allocation the file cannot back.
  const std::string path = Path("doctored");
  // The header: magic, version, fingerprint, algorithm, phase, attribute
  // count, the length-prefixed names, then the tuple count.
  size_t header = 4 + 4 + 16 + 4 + 4 + 4;
  for (const std::string& name : art_.relation.schema().names()) {
    header += 4 + name.size();
  }
  const size_t payload = header + 8;
  struct Doctoring {
    MinePhase phase;
    size_t offset;
    uint64_t value;
  };
  const Doctoring cases[] = {
      // kStrip: the first class count, then instead the first class
      // size (the tuple count is raised too, so neither is capped by it).
      {MinePhase::kStrip, payload, uint64_t{1} << 39},
      {MinePhase::kStrip, payload + 8, uint64_t{1} << 39},
      // kAgree and kCmax: the first family's set count, inside the cap.
      {MinePhase::kAgree, payload, uint64_t{1} << 32},
      {MinePhase::kCmax, payload, uint64_t{1} << 32},
      // kCover: the FD count, inside the cap.
      {MinePhase::kCover, payload, uint64_t{1} << 32},
  };
  for (const Doctoring& d : cases) {
    SCOPED_TRACE(std::string(ToString(d.phase)) + " @" +
                 std::to_string(d.offset));
    ASSERT_TRUE(PhaseCheckpoint(art_, d.phase).Save(path).ok());
    std::string bytes = ReadFileBytes(path);
    if (d.phase == MinePhase::kStrip) {
      PutLe(&bytes, header, uint64_t{1} << 40, 8);  // room for the counts
    }
    PutLe(&bytes, d.offset, d.value, 8);
    WriteFileBytes(path, bytes);
    Result<JobCheckpoint> loaded = JobCheckpoint::Load(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }
  std::remove(path.c_str());
}

TEST(CheckpointPathTest, AlgorithmsCoexistInOneDirectory) {
  Fingerprint fp;
  fp.hi = 1;
  fp.lo = 2;
  const std::string couples =
      CheckpointPathFor("/tmp/dir", fp, AgreeSetAlgorithm::kCouples);
  const std::string identifiers =
      CheckpointPathFor("/tmp/dir", fp, AgreeSetAlgorithm::kIdentifiers);
  EXPECT_NE(couples, identifiers);
  EXPECT_NE(couples.find(fp.ToHex()), std::string::npos);
  EXPECT_EQ(couples.substr(couples.size() - 4), ".dmk");
}

/// Fixture for end-to-end checkpointed mining over a real CSV.
class CheckpointedMine : public ::testing::Test {
 protected:
  void SetUp() override {
    relation_ = PaperExampleRelation();
    // One directory per test case so a failed assertion in one test
    // cannot leave a checkpoint for the next to wrongly resume from.
    std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    for (char& c : test) {
      if (c == '/' || c == '-') c = '_';
    }
    csv_path_ = ::testing::TempDir() + "/depminer_ckpt_" + test + ".csv";
    dir_ = ::testing::TempDir() + "/depminer_ckpt_" + test;
    ASSERT_TRUE(WriteCsvRelation(relation_, csv_path_).ok());

    DepMinerOptions options;
    options.build_armstrong = false;
    Result<DepMinerResult> mined = MineDependencies(relation_, options);
    ASSERT_TRUE(mined.ok());
    reference_ = std::move(mined.value().fds);
  }

  void TearDown() override { std::remove(csv_path_.c_str()); }

  CheckpointedMineOptions Options(size_t threads) {
    CheckpointedMineOptions options;
    options.checkpoint_dir = dir_;
    options.num_threads = threads;
    return options;
  }

  Relation relation_;
  FdSet reference_;
  std::string csv_path_;
  std::string dir_;
};

TEST_F(CheckpointedMine, FreshRunMatchesTheInMemoryPipeline) {
  Result<CheckpointedMineResult> mined =
      MineCsvWithCheckpoints(csv_path_, Options(1));
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  EXPECT_TRUE(mined.value().complete);
  EXPECT_EQ(mined.value().resumed_from, MinePhase::kNone);
  EXPECT_EQ(mined.value().fds.fds(), reference_.fds());
  // The finished job is checkpointed at kCover; a re-run just loads it.
  Result<CheckpointedMineResult> again =
      MineCsvWithCheckpoints(csv_path_, Options(1));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().resumed_from, MinePhase::kCover);
  EXPECT_EQ(again.value().fds.fds(), reference_.fds());
  std::remove(mined.value().checkpoint_path.c_str());
}

TEST_F(CheckpointedMine, RejectsNaiveAlgorithmAndEmptyDir) {
  CheckpointedMineOptions options = Options(1);
  options.algorithm = AgreeSetAlgorithm::kNaive;
  EXPECT_FALSE(MineCsvWithCheckpoints(csv_path_, options).ok());
  CheckpointedMineOptions no_dir;
  EXPECT_FALSE(MineCsvWithCheckpoints(csv_path_, no_dir).ok());
}

TEST_F(CheckpointedMine, ContentChangeInvalidatesTheJob) {
  Result<CheckpointedMineResult> first =
      MineCsvWithCheckpoints(csv_path_, Options(1));
  ASSERT_TRUE(first.ok());
  // Appending a tuple changes the fingerprint: the stale checkpoint must
  // not be resumed (it describes a different relation).
  {
    std::ofstream out(csv_path_, std::ios::app);
    out << "8,5,1997,Physics,Kane\n";
  }
  Result<CheckpointedMineResult> second =
      MineCsvWithCheckpoints(csv_path_, Options(1));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().resumed_from, MinePhase::kNone);
  EXPECT_NE(second.value().checkpoint_path, first.value().checkpoint_path);
  std::remove(first.value().checkpoint_path.c_str());
  std::remove(second.value().checkpoint_path.c_str());
}

TEST_F(CheckpointedMine, DoctoredTupleCountMinesAfresh) {
  // A kStrip checkpoint of this very job whose tuple count (a field no
  // file bytes back: stripped classes omit singletons) is raised to 2^36.
  // It loads, but resuming from it would size the agree phase's label
  // table by that count; it must be treated as mismatched instead.
  Result<CheckpointedMineResult> first =
      MineCsvWithCheckpoints(csv_path_, Options(1));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::string path = first.value().checkpoint_path;
  JobCheckpoint strip;
  strip.fingerprint = first.value().fingerprint;
  strip.algorithm = AgreeSetAlgorithm::kCouples;
  strip.phase = MinePhase::kStrip;
  strip.schema = relation_.schema();
  strip.num_tuples = relation_.num_tuples();
  strip.partitions = StrippedPartitionDatabase::FromRelation(relation_);
  ASSERT_TRUE(strip.Save(path).ok());
  // The tuple count sits right after the header's length-prefixed names.
  size_t header = 4 + 4 + 16 + 4 + 4 + 4;
  for (const std::string& name : relation_.schema().names()) {
    header += 4 + name.size();
  }
  std::string bytes = ReadFileBytes(path);
  PutLe(&bytes, header, uint64_t{1} << 36, 8);
  WriteFileBytes(path, bytes);
  Result<JobCheckpoint> doctored = JobCheckpoint::Load(path);
  ASSERT_TRUE(doctored.ok()) << doctored.status().ToString();
  ASSERT_EQ(doctored.value().phase, MinePhase::kStrip);
  ASSERT_EQ(doctored.value().num_tuples, uint64_t{1} << 36);

  Result<CheckpointedMineResult> resumed =
      MineCsvWithCheckpoints(csv_path_, Options(1));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed.value().complete);
  EXPECT_EQ(resumed.value().resumed_from, MinePhase::kNone);
  EXPECT_EQ(resumed.value().num_tuples, relation_.num_tuples());
  EXPECT_EQ(resumed.value().fds.fds(), reference_.fds());
  std::remove(path.c_str());
}

#if DEPMINER_FAULTS_ENABLED

/// Interrupt the pipeline at a given stage (via an injected allocation
/// failure), then resume without the fault: the resumed cover must be
/// bit-identical to the uninterrupted one, at 1 and at 8 threads.
struct ResumeCase {
  const char* fault_site;    ///< which stage the interruption hits
  MinePhase checkpoint_at;   ///< the phase left on disk by the trip
  size_t threads;
};

/// "resume@strip": the phase the resumed run picks up from. The fault
/// site and lane count are already in the test name; without this gtest
/// prints the struct as a byte dump holding a pointer, which ASLR moves.
void PrintTo(const ResumeCase& c, std::ostream* os) {
  *os << "resume@" << ToString(c.checkpoint_at);
}

class CheckpointResume : public CheckpointedMine,
                         public ::testing::WithParamInterface<ResumeCase> {};

TEST_P(CheckpointResume, ResumesBitIdentically) {
  CheckpointedMineOptions options = Options(GetParam().threads);
  RunContext ctx;
  ctx.SetTimeout(std::chrono::hours(1));
  options.run_context = &ctx;

  std::string checkpoint_path;
  {
    FaultPlan plan;
    plan.site = GetParam().fault_site;
    FaultScope scope(plan);
    Result<CheckpointedMineResult> interrupted =
        MineCsvWithCheckpoints(csv_path_, options);
    ASSERT_TRUE(interrupted.ok()) << interrupted.status().ToString();
    ASSERT_GE(scope.fires(), 1u);
    ASSERT_FALSE(interrupted.value().complete);
    EXPECT_EQ(interrupted.value().run_status.code(),
              StatusCode::kCapacityExceeded);
    checkpoint_path = interrupted.value().checkpoint_path;
  }
  Result<JobCheckpoint> on_disk = JobCheckpoint::Load(checkpoint_path);
  ASSERT_TRUE(on_disk.ok()) << on_disk.status().ToString();
  EXPECT_EQ(on_disk.value().phase, GetParam().checkpoint_at);

  options.run_context = nullptr;
  Result<CheckpointedMineResult> resumed =
      MineCsvWithCheckpoints(csv_path_, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed.value().complete);
  EXPECT_EQ(resumed.value().resumed_from, GetParam().checkpoint_at);
  EXPECT_EQ(resumed.value().fds.fds(), reference_.fds());
  std::remove(checkpoint_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    EveryPhaseBoundary, CheckpointResume,
    ::testing::Values(
        ResumeCase{"alloc/agree", MinePhase::kStrip, 1},
        ResumeCase{"alloc/cmax", MinePhase::kAgree, 1},
        ResumeCase{"alloc/lhs", MinePhase::kCmax, 1},
        ResumeCase{"alloc/agree", MinePhase::kStrip, 8},
        ResumeCase{"alloc/cmax", MinePhase::kAgree, 8},
        ResumeCase{"alloc/lhs", MinePhase::kCmax, 8}),
    [](const ::testing::TestParamInfo<ResumeCase>& info) {
      std::string name = std::string(info.param.fault_site) + "_" +
                         std::to_string(info.param.threads) + "t";
      for (char& c : name) {
        if (c == '/' || c == '-') c = '_';
      }
      return name;
    });

#endif  // DEPMINER_FAULTS_ENABLED

}  // namespace
}  // namespace depminer
