#include "core/agree_sets.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "relation/relation_builder.h"
#include "test_util.h"
#include "verify/generator.h"

namespace depminer {
namespace {

using ::depminer::testing::PaperExampleRelation;
using ::depminer::testing::RandomRelation;
using ::depminer::testing::SetsToString;

StrippedPartitionDatabase Db(const Relation& r) {
  return StrippedPartitionDatabase::FromRelation(r);
}

TEST(MaximalEquivalenceClasses, DropsContainedClasses) {
  // Column A groups {1,2,3}; column B groups {1,2}; the latter is
  // contained and must not appear in MC.
  Result<Relation> r = MakeRelation({
      {"x", "u"}, {"x", "u"}, {"x", "v"}, {"y", "w"},
  });
  ASSERT_TRUE(r.ok());
  const std::vector<EquivalenceClass> mc =
      MaximalEquivalenceClasses(Db(r.value()));
  ASSERT_EQ(mc.size(), 1u);
  EXPECT_EQ(mc[0], (EquivalenceClass{0, 1, 2}));
}

TEST(MaximalEquivalenceClasses, KeepsOverlappingIncomparableClasses) {
  // {1,2} from A and {1,3} from B overlap without containment.
  Result<Relation> r = MakeRelation({
      {"x", "u"}, {"x", "v"}, {"y", "u"},
  });
  ASSERT_TRUE(r.ok());
  std::vector<EquivalenceClass> mc = MaximalEquivalenceClasses(Db(r.value()));
  std::sort(mc.begin(), mc.end());
  EXPECT_EQ(mc, (std::vector<EquivalenceClass>{{0, 1}, {0, 2}}));
}

TEST(MaximalEquivalenceClasses, DeduplicatesIdenticalClasses) {
  // Columns A and B induce the same class {1,2}.
  Result<Relation> r = MakeRelation({{"x", "u"}, {"x", "u"}, {"y", "v"}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(MaximalEquivalenceClasses(Db(r.value())).size(), 1u);
}

TEST(AgreeSets, NaiveOnTinyRelation) {
  Result<Relation> r = MakeRelation({{"1", "a"}, {"1", "b"}, {"2", "b"}});
  ASSERT_TRUE(r.ok());
  const AgreeSetResult result = ComputeAgreeSetsNaive(r.value());
  EXPECT_EQ(SetsToString(result.sets), "A,B");
  EXPECT_TRUE(result.contains_empty);  // tuples 1 and 3 share nothing
  EXPECT_EQ(result.couples_examined, 3u);
}

TEST(AgreeSets, EmptyFlagFalseWhenAllPairsAgreeSomewhere) {
  Result<Relation> r = MakeRelation({{"1", "a"}, {"1", "b"}, {"1", "c"}});
  ASSERT_TRUE(r.ok());
  for (const AgreeSetResult& result :
       {ComputeAgreeSetsNaive(r.value()), ComputeAgreeSetsCouples(Db(r.value())),
        ComputeAgreeSetsIdentifiers(Db(r.value()))}) {
    EXPECT_FALSE(result.contains_empty);
    EXPECT_EQ(SetsToString(result.sets), "A");
  }
}

TEST(AgreeSets, SingleTupleHasNoAgreeSets) {
  Result<Relation> r = MakeRelation({{"1", "a"}});
  ASSERT_TRUE(r.ok());
  for (const AgreeSetResult& result :
       {ComputeAgreeSetsNaive(r.value()), ComputeAgreeSetsCouples(Db(r.value())),
        ComputeAgreeSetsIdentifiers(Db(r.value()))}) {
    EXPECT_TRUE(result.sets.empty());
    EXPECT_FALSE(result.contains_empty);
  }
}

TEST(AgreeSets, EmptyRelation) {
  RelationBuilder b(Schema::Default(2));
  Result<Relation> r = std::move(b).Finish();
  ASSERT_TRUE(r.ok());
  const AgreeSetResult result = ComputeAgreeSetsIdentifiers(Db(r.value()));
  EXPECT_TRUE(result.sets.empty());
  EXPECT_FALSE(result.contains_empty);
}

TEST(AgreeSets, DuplicateTuplesAgreeEverywhere) {
  Result<Relation> r = MakeRelation({{"1", "a"}, {"1", "a"}});
  ASSERT_TRUE(r.ok());
  const AgreeSetResult result = ComputeAgreeSetsCouples(Db(r.value()));
  ASSERT_EQ(result.sets.size(), 1u);
  EXPECT_EQ(result.sets[0], AttributeSet::FromLetters("AB"));
}

TEST(AgreeSets, AllReturnSortedDistinctSets) {
  const Relation r = PaperExampleRelation();
  const AgreeSetResult result = ComputeAgreeSetsIdentifiers(Db(r));
  for (size_t i = 1; i < result.sets.size(); ++i) {
    EXPECT_NE(result.sets[i - 1], result.sets[i]);
  }
}

TEST(AgreeSetsCouples, ChunkingDoesNotChangeResult) {
  const Relation r = RandomRelation(5, 60, 4, 99);
  const StrippedPartitionDatabase db = Db(r);
  const AgreeSetResult unchunked = ComputeAgreeSetsCouples(db);
  for (size_t chunk : {1u, 2u, 7u, 64u, 100000u}) {
    AgreeSetOptions options;
    options.max_couples_per_chunk = chunk;
    const AgreeSetResult chunked = ComputeAgreeSetsCouples(db, options);
    EXPECT_EQ(chunked.sets, unchunked.sets) << "chunk=" << chunk;
    EXPECT_EQ(chunked.contains_empty, unchunked.contains_empty);
    EXPECT_EQ(chunked.couples_examined, unchunked.couples_examined);
    if (chunk < unchunked.couples_examined) {
      EXPECT_GT(chunked.chunks_processed, 1u);
    }
  }
}

TEST(AgreeSetsCouples, MaximalClassAblationGivesSameResult) {
  const Relation r = RandomRelation(6, 80, 3, 123);
  const StrippedPartitionDatabase db = Db(r);
  const AgreeSetResult pruned = ComputeAgreeSetsCouples(db);
  AgreeSetOptions options;
  options.use_maximal_classes = false;
  const AgreeSetResult unpruned = ComputeAgreeSetsCouples(db, options);
  EXPECT_EQ(unpruned.sets, pruned.sets);
  EXPECT_EQ(unpruned.contains_empty, pruned.contains_empty);
  // Couples are deduplicated, so the distinct count is unchanged too.
  EXPECT_EQ(unpruned.couples_examined, pruned.couples_examined);
}

// The parallel engine's promise: both agree-set algorithms produce
// bit-identical results for any thread count (contiguous per-lane
// ranges, lane results merged in slot order before the final
// sort/dedup).
TEST(AgreeSetsParallel, ThreadCountInvariance) {
  const Relation r = RandomRelation(12, 400, 3, 2024);
  const StrippedPartitionDatabase db = Db(r);

  AgreeSetOptions serial;
  serial.num_threads = 1;
  const AgreeSetResult couples_1 = ComputeAgreeSetsCouples(db, serial);
  const AgreeSetResult ids_1 = ComputeAgreeSetsIdentifiers(db, serial);

  for (size_t threads : {2u, 8u}) {
    AgreeSetOptions options;
    options.num_threads = threads;
    const AgreeSetResult couples = ComputeAgreeSetsCouples(db, options);
    EXPECT_EQ(couples.sets, couples_1.sets) << threads << " threads";
    EXPECT_EQ(couples.contains_empty, couples_1.contains_empty);
    EXPECT_EQ(couples.couples_examined, couples_1.couples_examined);
    EXPECT_EQ(couples.chunks_processed, couples_1.chunks_processed);

    const AgreeSetResult ids = ComputeAgreeSetsIdentifiers(db, options);
    EXPECT_EQ(ids.sets, ids_1.sets) << threads << " threads";
    EXPECT_EQ(ids.contains_empty, ids_1.contains_empty);
    EXPECT_EQ(ids.couples_examined, ids_1.couples_examined);
  }
}

// Regression: when the couple count barely exceeds the thread count,
// ceil division hands the last lanes a start past the range end (e.g.
// 9 couples, 8 threads → per-lane 2, lane 5 starts at 10); an unclamped
// lane range underflowed to a ~2^64-element allocation
// (std::length_error). Mirrors `fdtool mine data/customers.csv
// --threads=8`.
TEST(AgreeSetsParallel, MoreThreadsThanLaneCapacityDoesNotOverflow) {
  Result<Relation> r = MakeRelation({{"1", "a", "p"},
                                     {"1", "b", "p"},
                                     {"2", "b", "q"},
                                     {"2", "c", "q"},
                                     {"3", "c", "r"},
                                     {"3", "a", "r"},
                                     {"4", "d", "p"},
                                     {"4", "e", "q"}});
  ASSERT_TRUE(r.ok());
  const StrippedPartitionDatabase db = Db(r.value());
  AgreeSetOptions serial;
  serial.num_threads = 1;
  const AgreeSetResult couples_1 = ComputeAgreeSetsCouples(db, serial);
  const AgreeSetResult ids_1 = ComputeAgreeSetsIdentifiers(db, serial);
  for (size_t threads : {7u, 8u, 13u, 64u}) {
    AgreeSetOptions options;
    options.num_threads = threads;
    const AgreeSetResult couples = ComputeAgreeSetsCouples(db, options);
    EXPECT_EQ(couples.sets, couples_1.sets) << threads << " threads";
    const AgreeSetResult ids = ComputeAgreeSetsIdentifiers(db, options);
    EXPECT_EQ(ids.sets, ids_1.sets) << threads << " threads";
  }
}

TEST(AgreeSetsParallel, ThreadCountInvarianceUnderChunking) {
  const Relation r = RandomRelation(8, 200, 3, 31);
  const StrippedPartitionDatabase db = Db(r);
  AgreeSetOptions serial;
  serial.num_threads = 1;
  serial.max_couples_per_chunk = 97;
  const AgreeSetResult expected = ComputeAgreeSetsCouples(db, serial);
  for (size_t threads : {2u, 8u}) {
    AgreeSetOptions options = serial;
    options.num_threads = threads;
    const AgreeSetResult got = ComputeAgreeSetsCouples(db, options);
    EXPECT_EQ(got.sets, expected.sets) << threads << " threads";
    EXPECT_EQ(got.chunks_processed, expected.chunks_processed);
  }
}

// A context tripped before the run stops every lane at its first couple,
// so even the degraded result is identical at every thread count.
TEST(AgreeSetsParallel, PreCancelledContextIsDeterministicAcrossThreads) {
  const Relation r = RandomRelation(6, 120, 3, 7);
  const StrippedPartitionDatabase db = Db(r);
  for (size_t threads : {1u, 2u, 8u}) {
    RunContext ctx;
    ctx.RequestCancel();
    AgreeSetOptions options;
    options.num_threads = threads;
    options.run_context = &ctx;

    const AgreeSetResult couples = ComputeAgreeSetsCouples(db, options);
    EXPECT_EQ(couples.status.code(), StatusCode::kCancelled)
        << threads << " threads";
    EXPECT_TRUE(couples.sets.empty());
    EXPECT_EQ(couples.chunks_processed, 0u);

    const AgreeSetResult ids = ComputeAgreeSetsIdentifiers(db, options);
    EXPECT_EQ(ids.status.code(), StatusCode::kCancelled);
    EXPECT_TRUE(ids.sets.empty());
  }
}

// A memory budget below the charged working set trips at the first check
// site — before any couple is processed — identically for any thread
// count (the mid-run analogue of the pre-cancelled case: the run is
// under way when the charge lands).
TEST(AgreeSetsParallel, MemoryBudgetTripIsDeterministicAcrossThreads) {
  const Relation r = RandomRelation(6, 120, 3, 7);
  const StrippedPartitionDatabase db = Db(r);
  for (size_t threads : {1u, 2u, 8u}) {
    RunContext ctx;
    ctx.SetMemoryBudget(1);  // below any real working set
    AgreeSetOptions options;
    options.num_threads = threads;
    options.run_context = &ctx;

    const AgreeSetResult couples = ComputeAgreeSetsCouples(db, options);
    EXPECT_EQ(couples.status.code(), StatusCode::kCapacityExceeded)
        << threads << " threads";
    EXPECT_TRUE(couples.sets.empty());
  }
  for (size_t threads : {1u, 2u, 8u}) {
    RunContext ctx;
    ctx.SetMemoryBudget(1);
    AgreeSetOptions options;
    options.num_threads = threads;
    options.run_context = &ctx;
    const AgreeSetResult ids = ComputeAgreeSetsIdentifiers(db, options);
    EXPECT_EQ(ids.status.code(), StatusCode::kCapacityExceeded)
        << threads << " threads";
    EXPECT_TRUE(ids.sets.empty());
  }
}

// The label table, and Algorithm 3's ec lists, are charged before they
// are built: a budget below the table's size stops either algorithm
// before a single couple is generated.
TEST(AgreeSetsBudget, BudgetBelowTheLabelTableStopsBeforeAnyCouple) {
  const Relation r = RandomRelation(6, 120, 3, 7);
  const StrippedPartitionDatabase db = Db(r);
  const size_t label_bytes = ClassLabelTable::BytesFor(db);
  EXPECT_EQ(label_bytes, ClassLabelTable::Build(db).bytes());
  for (const bool identifiers : {false, true}) {
    RunContext ctx;
    ctx.SetMemoryBudget(label_bytes - 1);
    AgreeSetOptions options;
    options.run_context = &ctx;
    const AgreeSetResult agree = identifiers
                                     ? ComputeAgreeSetsIdentifiers(db, options)
                                     : ComputeAgreeSetsCouples(db, options);
    EXPECT_EQ(agree.status.code(), StatusCode::kCapacityExceeded)
        << (identifiers ? "identifiers" : "couples");
    EXPECT_EQ(agree.couples_examined, 0u)
        << (identifiers ? "identifiers" : "couples");
    EXPECT_TRUE(agree.sets.empty());
  }
}

// The couple keys and the radix sort's scratch copy are charged too,
// before they are generated: a budget that affords the label table (and
// Algorithm 3's ec lists) but not the keys still stops either algorithm
// before a single couple.
TEST(AgreeSetsBudget, BudgetBelowTheCoupleKeysStopsBeforeAnyCouple) {
  const Relation r = RandomRelation(6, 120, 3, 7);
  const StrippedPartitionDatabase db = Db(r);
  const size_t label_bytes = ClassLabelTable::BytesFor(db);
  const size_t ec_bytes = db.TotalMemberships() * sizeof(uint64_t);
  // An ungoverned Algorithm 2 run reports the label table plus the keys.
  const size_t key_bytes =
      ComputeAgreeSetsCouples(db).working_bytes - label_bytes;
  ASSERT_GT(key_bytes, std::max(label_bytes, ec_bytes));
  for (const bool identifiers : {false, true}) {
    RunContext ctx;
    ctx.SetMemoryBudget(label_bytes + ec_bytes);
    AgreeSetOptions options;
    options.run_context = &ctx;
    const AgreeSetResult agree = identifiers
                                     ? ComputeAgreeSetsIdentifiers(db, options)
                                     : ComputeAgreeSetsCouples(db, options);
    EXPECT_EQ(agree.status.code(), StatusCode::kCapacityExceeded)
        << (identifiers ? "identifiers" : "couples");
    EXPECT_EQ(agree.couples_examined, 0u)
        << (identifiers ? "identifiers" : "couples");
    EXPECT_TRUE(agree.sets.empty());
  }
}

TEST(MaximalEquivalenceClasses, ThreadCountInvariance) {
  const Relation r = RandomRelation(10, 300, 3, 99);
  const StrippedPartitionDatabase db = Db(r);
  const std::vector<EquivalenceClass> serial =
      MaximalEquivalenceClasses(db, 1);
  for (size_t threads : {2u, 8u}) {
    EXPECT_EQ(MaximalEquivalenceClasses(db, threads), serial)
        << threads << " threads";
  }
}

/// Max⊆ over every stripped class by brute force: a class is kept unless
/// another one strictly contains it, and equal classes are kept once.
std::vector<EquivalenceClass> BruteForceMaximalClasses(
    const StrippedPartitionDatabase& db) {
  std::vector<EquivalenceClass> all;
  for (const StrippedPartition& p : db.partitions()) {
    all.insert(all.end(), p.classes().begin(), p.classes().end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  std::vector<EquivalenceClass> kept;
  for (const EquivalenceClass& c : all) {
    bool dominated = false;
    for (const EquivalenceClass& other : all) {
      if (other.size() > c.size() &&
          std::includes(other.begin(), other.end(), c.begin(), c.end())) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(c);
  }
  return kept;
}

// The label-table MC against the definition, on the verification
// generator's adversarial shapes: constant columns, duplicate rows and
// planted FDs give identical classes across attributes (equal-size
// containment), whose one surviving copy must not depend on lanes.
TEST(MaximalEquivalenceClasses, MatchesBruteForceOnAdversarialRelations) {
  size_t checked = 0, with_identical_classes = 0;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    Result<GeneratedCase> generated = GenerateAdversarialCase(seed);
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    const StrippedPartitionDatabase db = Db(generated.value().relation);
    size_t classes = 0;
    for (const StrippedPartition& p : db.partitions()) {
      classes += p.num_classes();
    }
    if (classes > 3000) continue;  // keeps the quadratic oracle cheap
    ++checked;
    const std::vector<EquivalenceClass> expected = BruteForceMaximalClasses(db);
    std::vector<EquivalenceClass> distinct;
    for (const StrippedPartition& p : db.partitions()) {
      distinct.insert(distinct.end(), p.classes().begin(), p.classes().end());
    }
    std::sort(distinct.begin(), distinct.end());
    if (std::adjacent_find(distinct.begin(), distinct.end()) !=
        distinct.end()) {
      ++with_identical_classes;
    }
    for (size_t threads : {1u, 2u, 8u}) {
      std::vector<EquivalenceClass> got = MaximalEquivalenceClasses(db, threads);
      // Largest first, then lexicographic.
      for (size_t i = 1; i < got.size(); ++i) {
        ASSERT_TRUE(got[i - 1].size() > got[i].size() ||
                    (got[i - 1].size() == got[i].size() && got[i - 1] < got[i]))
            << "seed " << seed;
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << "seed " << seed << " (" << generated.value().label
                               << "), " << threads << " threads";
    }
  }
  EXPECT_GT(checked, 32u);
  EXPECT_GT(with_identical_classes, 4u);
}

TEST(AgreeSetResult, AllPrependsEmptySet) {
  AgreeSetResult r;
  r.sets = {AttributeSet::FromLetters("A")};
  r.contains_empty = true;
  const std::vector<AttributeSet> all = r.All();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_TRUE(all[0].Empty());
  r.contains_empty = false;
  EXPECT_EQ(r.All().size(), 1u);
}

TEST(AgreeSetAlgorithm, Names) {
  EXPECT_STREQ(ToString(AgreeSetAlgorithm::kNaive), "naive");
  EXPECT_STREQ(ToString(AgreeSetAlgorithm::kCouples), "couples");
  EXPECT_STREQ(ToString(AgreeSetAlgorithm::kIdentifiers), "identifiers");
}

// Differential sweep: the three algorithms agree on random relations of
// varying shape (Lemma 1 and Lemma 2 in practice).
struct SweepParam {
  size_t attrs;
  size_t tuples;
  size_t domain;
  uint64_t seed;
};

class AgreeSetSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AgreeSetSweep, AlgorithmsAgree) {
  const SweepParam p = GetParam();
  const Relation r = RandomRelation(p.attrs, p.tuples, p.domain, p.seed);
  const StrippedPartitionDatabase db = Db(r);

  const AgreeSetResult naive = ComputeAgreeSetsNaive(r);
  const AgreeSetResult couples = ComputeAgreeSetsCouples(db);
  const AgreeSetResult identifiers = ComputeAgreeSetsIdentifiers(db);

  EXPECT_EQ(couples.sets, naive.sets)
      << "couples=" << SetsToString(couples.sets)
      << " naive=" << SetsToString(naive.sets);
  EXPECT_EQ(identifiers.sets, naive.sets);
  EXPECT_EQ(couples.contains_empty, naive.contains_empty);
  EXPECT_EQ(identifiers.contains_empty, naive.contains_empty);
  // Couple-based algorithms examine the same (deduplicated) couples.
  EXPECT_EQ(couples.couples_examined, identifiers.couples_examined);
  // And never more than the naive all-pairs count.
  EXPECT_LE(couples.couples_examined, naive.couples_examined);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AgreeSetSweep,
    ::testing::Values(
        SweepParam{2, 10, 2, 1}, SweepParam{3, 20, 2, 2},
        SweepParam{4, 30, 3, 3}, SweepParam{5, 50, 4, 4},
        SweepParam{6, 40, 5, 5}, SweepParam{3, 15, 10, 6},
        SweepParam{4, 60, 2, 7}, SweepParam{7, 25, 3, 8},
        SweepParam{5, 80, 8, 9}, SweepParam{2, 100, 3, 10},
        SweepParam{8, 30, 4, 11}, SweepParam{4, 5, 2, 12}));

}  // namespace
}  // namespace depminer
