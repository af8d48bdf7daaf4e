// The search-space pruning layer end to end: the partition-product cache
// (hits, LRU eviction, byte accounting, budget-trip degradation), the
// per-miner arity-cap equivalence (capped run == unbounded cover filtered
// to |lhs| <= k), TANE's forced-epsilon=0 approximate path, the capped
// transversal searches, the redundancy ranking, and the MiningOptions
// validation. Suite names start with "Pruning" so the tsan preset's
// filter picks the whole file up.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mining_options.h"
#include "common/run_context.h"
#include "common/trace.h"
#include "core/dep_miner.h"
#include "core/mine_by_name.h"
#include "fastfds/fastfds.h"
#include "fd/fd_diff.h"
#include "fd/ranking.h"
#include "fd/satisfaction.h"
#include "fdep/fdep.h"
#include "hypergraph/berge_transversals.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/levelwise_transversals.h"
#include "partition/partition_database.h"
#include "partition/partition_product.h"
#include "relation/relation_builder.h"
#include "tane/tane.h"
#include "test_util.h"

namespace depminer {
namespace {

using ::depminer::testing::PaperExampleRelation;
using ::depminer::testing::RandomRelation;
using ::depminer::testing::Sets;

AttributeSet SetOf(std::initializer_list<AttributeId> ids) {
  AttributeSet set;
  for (AttributeId id : ids) set.Add(id);
  return set;
}

// ---------------------------------------------------------------- cache

TEST(PruningCache, SingleAttributesAliasTheBaseDatabase) {
  const Relation r = PaperExampleRelation();
  const StrippedPartitionDatabase db =
      StrippedPartitionDatabase::FromRelation(r);
  PartitionCache cache(&db);
  std::shared_ptr<const StrippedPartition> p = cache.Get(SetOf({0}));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p.get(), &db.partition(0)) << "singles must alias, not copy";
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().inserts, 0u) << "aliases are never stored";
}

TEST(PruningCache, GetComputesInsertsAndHitsOnRepeat) {
  const Relation r = PaperExampleRelation();
  const StrippedPartitionDatabase db =
      StrippedPartitionDatabase::FromRelation(r);
  PartitionCache cache(&db);

  const AttributeSet bc = SetOf({1, 2});
  std::shared_ptr<const StrippedPartition> first = cache.Get(bc);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().inserts, 1u);
  EXPECT_GT(cache.stats().bytes, 0u);

  std::shared_ptr<const StrippedPartition> again = cache.Get(bc);
  EXPECT_EQ(again.get(), first.get()) << "a hit returns the same partition";
  EXPECT_EQ(cache.stats().hits, 1u);

  // The cached product must equal a from-scratch computation.
  PartitionProductWorkspace workspace(r.num_tuples());
  const StrippedPartition direct =
      workspace.Product(db.partition(1), db.partition(2));
  EXPECT_TRUE(*first == direct);
}

TEST(PruningCache, PrefixChainsAreReusedAcrossOverlappingSets) {
  const Relation r = RandomRelation(6, 80, 3, 7);
  const StrippedPartitionDatabase db =
      StrippedPartitionDatabase::FromRelation(r);
  PartitionCache cache(&db);
  (void)cache.Get(SetOf({0, 1, 2}));  // inserts {0,1} and {0,1,2}
  EXPECT_EQ(cache.stats().inserts, 2u);
  const size_t misses_before = cache.stats().misses;
  (void)cache.Get(SetOf({0, 1, 2, 3}));  // must extend the cached chain
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
  EXPECT_EQ(cache.stats().inserts, 3u)
      << "only {0,1,2,3} is new; the {0,1,2} prefix chain must be reused";
}

TEST(PruningCache, LruEvictionReleasesBytesOldestFirst) {
  const Relation r = RandomRelation(8, 120, 2, 3);
  const StrippedPartitionDatabase db =
      StrippedPartitionDatabase::FromRelation(r);
  // Budget two entries, roughly: probe one pair to size the budget.
  PartitionCache probe(&db);
  (void)probe.Get(SetOf({0, 1}));
  const size_t entry_bytes = probe.stats().bytes;
  ASSERT_GT(entry_bytes, 0u);

  PartitionCache::Config config;
  config.max_bytes = entry_bytes * 2 + entry_bytes / 2;
  PartitionCache cache(&db, config);
  (void)cache.Get(SetOf({0, 1}));
  (void)cache.Get(SetOf({2, 3}));
  (void)cache.Get(SetOf({4, 5}));  // evicts the LRU entry {0,1}
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, config.max_bytes);

  const size_t misses_before = cache.stats().misses;
  (void)cache.Get(SetOf({2, 3}));  // still resident
  EXPECT_EQ(cache.stats().misses, misses_before);
  (void)cache.Get(SetOf({0, 1}));  // evicted: recomputed, still correct
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(PruningCache, ChargesAndReleasesRunContextBytes) {
  const Relation r = PaperExampleRelation();
  const StrippedPartitionDatabase db =
      StrippedPartitionDatabase::FromRelation(r);
  RunContext ctx;
  ctx.SetMemoryBudget(64 * 1024 * 1024);
  {
    PartitionCache::Config config;
    config.run_context = &ctx;
    PartitionCache cache(&db, config);
    (void)cache.Get(SetOf({0, 1}));
    (void)cache.Get(SetOf({2, 3}));
    EXPECT_EQ(ctx.bytes_used(), cache.stats().bytes);
    EXPECT_GT(ctx.bytes_used(), 0u);
  }
  // Destruction releases every charged byte.
  EXPECT_EQ(ctx.bytes_used(), 0u);
}

TEST(PruningCache, BudgetTripDegradesToUncachedRecomputation) {
  const Relation r = RandomRelation(6, 100, 3, 11);
  const StrippedPartitionDatabase db =
      StrippedPartitionDatabase::FromRelation(r);
  RunContext ctx;
  ctx.SetMemoryBudget(1);  // the first charge overruns the budget
  PartitionCache::Config config;
  config.run_context = &ctx;
  PartitionCache cache(&db, config);

  // The first insert charges its bytes; the overrun is observed at the
  // *next* insert (trips are polled, not synchronous), which degrades
  // the cache and releases every charged byte.
  (void)cache.Get(SetOf({0, 1}));
  EXPECT_EQ(cache.stats().inserts, 1u);
  std::shared_ptr<const StrippedPartition> p = cache.Get(SetOf({2, 3}));
  ASSERT_NE(p, nullptr) << "a degraded cache still computes, uncached";
  EXPECT_TRUE(cache.stats().degraded);
  EXPECT_EQ(cache.stats().bytes, 0u) << "degrading releases charged bytes";
  EXPECT_EQ(ctx.bytes_used(), 0u);

  // Correctness is preserved: the uncached product is the real product.
  PartitionProductWorkspace workspace(r.num_tuples());
  const StrippedPartition direct =
      workspace.Product(db.partition(2), db.partition(3));
  EXPECT_TRUE(*p == direct);

  // Degradation is sticky: later inserts are refused.
  (void)cache.Get(SetOf({4, 5}));
  EXPECT_EQ(cache.stats().inserts, 1u);
  EXPECT_TRUE(cache.stats().degraded);
}

TEST(PruningCache, TaneWithCacheBitIdenticalAcrossThreadCounts) {
  const Relation r = RandomRelation(7, 160, 3, 19);
  Result<TaneResult> reference = TaneDiscover(r);
  ASSERT_TRUE(reference.ok());
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    const StrippedPartitionDatabase db =
        StrippedPartitionDatabase::FromRelation(r, threads);
    PartitionCache cache(&db);
    TaneOptions options;
    options.num_threads = threads;
    options.partition_cache = &cache;
    Result<TaneResult> cached = TaneDiscover(r, options);
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(cached.value().fds.fds(), reference.value().fds.fds())
        << "cached TANE diverged at " << threads << " threads";
    EXPECT_GT(cache.stats().hits + cache.stats().misses, 0u);
  }
}

// ------------------------------------------------- arity-cap equivalence

FdSet FilterToArity(const FdSet& cover, size_t num_attributes, size_t cap) {
  std::vector<FunctionalDependency> kept;
  for (const FunctionalDependency& fd : cover.fds()) {
    if (fd.lhs.Count() <= cap) kept.push_back(fd);
  }
  return FdSet(num_attributes, kept);
}

TEST(PruningArity, EveryMinerCappedEqualsFilteredUnbounded) {
  const Relation r = RandomRelation(6, 90, 3, 23);
  for (const MinerSpec& miner : Miners()) {
    const Result<MineOutcome> unbounded = MineByName(r, miner.name);
    ASSERT_TRUE(unbounded.ok()) << miner.name;
    for (const size_t cap : {size_t{1}, size_t{2}, size_t{3}}) {
      MiningOptions capped;
      capped.max_lhs_arity = cap;
      const Result<MineOutcome> out =
          MineByName(r, miner.name, {1, nullptr, capped});
      ASSERT_TRUE(out.ok()) << miner.name << " k=" << cap;
      EXPECT_EQ(out.value().fds.fds(),
                FilterToArity(unbounded.value().fds, r.num_attributes(), cap)
                    .fds())
          << miner.name << " diverged from the filtered cover at k=" << cap;
    }
  }
}

TEST(PruningArity, CapReportsPrunedCandidates) {
  const Relation r = RandomRelation(8, 100, 2, 5);
  TaneOptions tane_options;
  tane_options.mining.max_lhs_arity = 1;
  Result<TaneResult> tane = TaneDiscover(r, tane_options);
  ASSERT_TRUE(tane.ok());
  EXPECT_GT(tane.value().stats.candidates_pruned, 0u)
      << "a binding cap must count what it kept un-generated";

  // The paper example needs lhs of size 2 (BC -> A and friends), so a
  // cap of 1 must block level-2 transversal joins before generation.
  DepMinerOptions dm_options;
  dm_options.build_armstrong = false;
  dm_options.mining.max_lhs_arity = 1;
  Result<DepMinerResult> dm = MineDependencies(PaperExampleRelation(), dm_options);
  ASSERT_TRUE(dm.ok());
  EXPECT_GT(dm.value().lhs.stats.candidates_pruned, 0u);
}

TEST(PruningArity, ArmstrongConstructionRefusedUnderCap) {
  const Relation r = PaperExampleRelation();
  DepMinerOptions options;
  options.build_armstrong = true;
  options.mining.max_lhs_arity = 2;
  Result<DepMinerResult> mined = MineDependencies(r, options);
  ASSERT_TRUE(mined.ok());
  EXPECT_FALSE(mined.value().armstrong.has_value());
  EXPECT_EQ(mined.value().armstrong_status.code(),
            StatusCode::kInvalidArgument)
      << "a capped cover no longer determines MAX(dep(r))";
}

TEST(PruningArity, NonTaneMinersRejectErrorThreshold) {
  const Relation r = PaperExampleRelation();
  MiningOptions approximate;
  approximate.max_g3_error = 0.1;

  DepMinerOptions dm;
  dm.mining = approximate;
  EXPECT_EQ(MineDependencies(r, dm).status().code(),
            StatusCode::kInvalidArgument);

  FastFdsOptions ff;
  ff.mining = approximate;
  EXPECT_EQ(FastFdsDiscover(r, ff).status().code(),
            StatusCode::kInvalidArgument);

  FdepOptions fdep;
  fdep.mining = approximate;
  EXPECT_EQ(FdepDiscover(r, fdep).status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------------ approximate path

TEST(PruningAfd, ForcedErrorValidationAtZeroEqualsExact) {
  for (const uint64_t seed : {3u, 17u, 41u}) {
    const Relation r = RandomRelation(6, 70, 3, seed);
    Result<TaneResult> exact = TaneDiscover(r);
    ASSERT_TRUE(exact.ok());
    TaneOptions forced_options;
    forced_options.mining.force_error_validation = true;
    Result<TaneResult> forced = TaneDiscover(r, forced_options);
    ASSERT_TRUE(forced.ok());
    EXPECT_EQ(forced.value().fds.fds(), exact.value().fds.fds())
        << "the g3 path at epsilon=0 must equal the exact comparison "
        << "(seed " << seed << ")";
  }
}

TEST(PruningAfd, PositiveThresholdEmitsOnlyFdsWithinError) {
  const Relation r = RandomRelation(5, 60, 3, 29);
  TaneOptions options;
  options.mining.max_g3_error = 0.2;
  Result<TaneResult> afd = TaneDiscover(r, options);
  ASSERT_TRUE(afd.ok());
  ASSERT_GT(afd.value().fds.size(), 0u);
  for (const FunctionalDependency& fd : afd.value().fds.fds()) {
    EXPECT_LE(G3Error(r, fd.lhs, fd.rhs), 0.2)
        << fd.ToString() << " exceeds the threshold";
  }
  // The approximate cover contains every exact FD (g3 = 0 <= epsilon),
  // so it implies the whole exact minimal cover.
  Result<TaneResult> exact = TaneDiscover(r);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(DiffFdSets(exact.value().fds, afd.value().fds).lost.empty());
}

// ------------------------------------------------- transversal-level caps

TEST(PruningTransversals, LevelwiseCapEqualsFilteredUnbounded) {
  const std::vector<AttributeSet> edges = Sets({"AB", "CD", "AE", "BD"});
  const Hypergraph hypergraph(5, edges);
  LevelwiseStats stats;
  const std::vector<AttributeSet> unbounded =
      LevelwiseMinimalTransversals(hypergraph, &stats);
  for (const size_t cap : {size_t{1}, size_t{2}, size_t{3}}) {
    LevelwiseStats capped_stats;
    const std::vector<AttributeSet> capped = LevelwiseMinimalTransversals(
        hypergraph, &capped_stats, nullptr, cap);
    std::vector<AttributeSet> expected;
    for (const AttributeSet& t : unbounded) {
      if (t.Count() <= cap) expected.push_back(t);
    }
    EXPECT_EQ(capped, expected) << "levelwise diverged at cap " << cap;
  }
}

TEST(PruningTransversals, BergeCapEqualsFilteredUnbounded) {
  const std::vector<AttributeSet> edges = Sets({"AB", "CD", "AE", "BD"});
  const Hypergraph hypergraph(5, edges);
  std::vector<AttributeSet> unbounded = BergeMinimalTransversals(hypergraph);
  std::sort(unbounded.begin(), unbounded.end());
  for (const size_t cap : {size_t{1}, size_t{2}, size_t{3}}) {
    std::vector<AttributeSet> capped =
        BergeMinimalTransversals(hypergraph, nullptr, cap);
    std::sort(capped.begin(), capped.end());
    std::vector<AttributeSet> expected;
    for (const AttributeSet& t : unbounded) {
      if (t.Count() <= cap) expected.push_back(t);
    }
    EXPECT_EQ(capped, expected) << "Berge diverged at cap " << cap;
  }
}

// ---------------------------------------------------------------- ranking

TEST(PruningRanking, OrderIsRedundancyDescAndDeterministic) {
  const Relation r = PaperExampleRelation();
  Result<TaneResult> mined = TaneDiscover(r);
  ASSERT_TRUE(mined.ok());
  const StrippedPartitionDatabase db =
      StrippedPartitionDatabase::FromRelation(r);

  const RankingResult ranked = RankFds(mined.value().fds, db);
  ASSERT_EQ(ranked.ranked.size(), mined.value().fds.size());
  for (size_t i = 1; i < ranked.ranked.size(); ++i) {
    EXPECT_GE(ranked.ranked[i - 1].redundancy, ranked.ranked[i].redundancy);
  }

  // Cached and uncached ranking agree exactly.
  PartitionCache cache(&db);
  const RankingResult cached = RankFds(mined.value().fds, db, 0, &cache);
  ASSERT_EQ(cached.ranked.size(), ranked.ranked.size());
  for (size_t i = 0; i < ranked.ranked.size(); ++i) {
    EXPECT_EQ(cached.ranked[i].fd, ranked.ranked[i].fd);
    EXPECT_EQ(cached.ranked[i].redundancy, ranked.ranked[i].redundancy);
  }
}

TEST(PruningRanking, TopKIsAPrefixOfTheFullRanking) {
  const Relation r = PaperExampleRelation();
  Result<TaneResult> mined = TaneDiscover(r);
  ASSERT_TRUE(mined.ok());
  const StrippedPartitionDatabase db =
      StrippedPartitionDatabase::FromRelation(r);
  const RankingResult full = RankFds(mined.value().fds, db);
  const RankingResult top3 = RankFds(mined.value().fds, db, 3);
  ASSERT_EQ(top3.ranked.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(top3.ranked[i].fd, full.ranked[i].fd);
  }
  // A k past the cover size returns everything.
  const RankingResult all =
      RankFds(mined.value().fds, db, mined.value().fds.size() + 10);
  EXPECT_EQ(all.ranked.size(), mined.value().fds.size());
}

TEST(PruningRanking, RedundancyIsThePartitionError) {
  // One constant-ish column: lhs {B} groups everything, so B -> A carries
  // the maximum redundancy Σ(|c|−1) over π̂_B.
  Result<Relation> r = MakeRelation({
      {"1", "x"}, {"2", "x"}, {"3", "x"}, {"4", "x"},
  });
  ASSERT_TRUE(r.ok());
  Result<TaneResult> mined = TaneDiscover(r.value());
  ASSERT_TRUE(mined.ok());
  const StrippedPartitionDatabase db =
      StrippedPartitionDatabase::FromRelation(r.value());
  const RankingResult ranked = RankFds(mined.value().fds, db);
  ASSERT_FALSE(ranked.ranked.empty());
  // ∅ -> B (B is constant) scores |r| − 1 = 3, the maximum.
  EXPECT_EQ(ranked.ranked.front().redundancy, 3u);
  EXPECT_EQ(ranked.ranked.front().fd.lhs.Count(), 0u);
}

#if DEPMINER_TRACING_ENABLED
TEST(PruningRanking, CacheCountersCountTheRankingPass) {
  const Relation r = RandomRelation(8, 40, 4, 41);
  for (const char* algo : {"depminer", "tane"}) {
    MineRequest request;
    request.mining.top_k = 3;
    TraceSession session;
    session.Start();
    Result<MineOutcome> mined = MineByName(r, algo, request);
    session.Stop();
    ASSERT_TRUE(mined.ok()) << algo;
    EXPECT_EQ(mined.value().ranked.size(), 3u) << algo;
    // Ranking probes the cache once per FD with a non-empty lhs.
    size_t probes = 0;
    for (const FunctionalDependency& fd : mined.value().fds.fds()) {
      if (!fd.lhs.Empty()) ++probes;
    }
    ASSERT_GT(probes, 0u) << algo;
    const std::map<std::string, uint64_t>& counters = session.counters();
    ASSERT_EQ(counters.count("partition_cache.hits"), 1u) << algo;
    EXPECT_GE(counters.at("partition_cache.hits") +
                  counters.at("partition_cache.misses"),
              probes)
        << algo;
  }
  // An unranked TANE mine builds no cache, so it reports none.
  TraceSession session;
  session.Start();
  ASSERT_TRUE(MineByName(r, "tane").ok());
  session.Stop();
  EXPECT_EQ(session.counters().count("partition_cache.hits"), 0u);
}

// A ranked Dep-Miner mine strips r̂ once, for the ranking's cache, and
// mines that same database: its output is the unranked cover ranked
// afterwards, byte for byte.
TEST(PruningRanking, RankedDepMinerStripsOnce) {
  const Relation r = RandomRelation(8, 40, 4, 41);
  for (const char* algo : {"depminer", "depminer2"}) {
    MineRequest request;
    request.mining.top_k = 3;
    TraceSession session;
    session.Start();
    Result<MineOutcome> ranked = MineByName(r, algo, request);
    session.Stop();
    ASSERT_TRUE(ranked.ok()) << algo;
    size_t strips = 0;
    for (const TraceEvent& e : session.events()) {
      strips += std::string(e.name) == "phase/strip";
    }
    EXPECT_EQ(strips, 1u) << algo;

    Result<MineOutcome> expected = MineByName(r, algo);
    ASSERT_TRUE(expected.ok()) << algo;
    expected.value().ranked =
        RankFds(expected.value().fds,
                StrippedPartitionDatabase::FromRelation(r), 3)
            .ranked;
    EXPECT_EQ(RenderCover(ranked.value(), r.schema()),
              RenderCover(expected.value(), r.schema()))
        << algo;
  }
}
#endif  // DEPMINER_TRACING_ENABLED

// ---------------------------------------------------------------- options

TEST(PruningOptions, ValidateRejectsOutOfRangeError) {
  MiningOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.max_g3_error = 0.999;
  EXPECT_TRUE(options.Validate().ok());
  options.max_g3_error = 1.0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.max_g3_error = -0.1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(PruningOptions, WithinArityTreatsZeroAsUnbounded) {
  MiningOptions options;
  EXPECT_TRUE(options.WithinArity(1000));
  options.max_lhs_arity = 2;
  EXPECT_TRUE(options.WithinArity(2));
  EXPECT_FALSE(options.WithinArity(3));
}

}  // namespace
}  // namespace depminer
