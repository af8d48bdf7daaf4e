// Metamorphic properties of all five miners: transformations of the input
// relation that provably leave dep(r) — and with it the canonical set of
// minimal non-trivial FDs — invariant. Run at 1 and 8 pool lanes for the
// thread-aware miners. Column permutation, which maps dep(r) through a
// known renaming, is in column_permutation_test.cc.
//
//   - row shuffling        (dep(r) is set-of-tuples semantics)
//   - duplicate-row injection (agree sets gain only R, already implied)
//   - empty / single-row relations (every FD holds; all miners agree)

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "metamorphic_util.h"
#include "relation/relation_builder.h"
#include "relation/relation_ops.h"
#include "test_util.h"

namespace depminer {
namespace {

using ::depminer::testing::MetamorphicBaseRelations;
using ::depminer::testing::MineCover;
using ::depminer::testing::MinerParam;
using ::depminer::testing::MinerParamName;

/// Deterministic row permutation of `r`.
Relation ShuffleRows(const Relation& r, uint64_t seed) {
  std::vector<TupleId> order(r.num_tuples());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  Result<Relation> shuffled = SelectRows(r, order);
  EXPECT_TRUE(shuffled.ok());
  return std::move(shuffled).value();
}

/// The parameter prints as gtest's byte dump, which starts with the
/// address of the name's buffer, so the tail of each ctest name here
/// changes from build to build. Giving MinerParam a label, as
/// column_permutation_test.cc does, would rename all 24 cases.
class Metamorphic : public ::testing::TestWithParam<MinerParam> {};

TEST_P(Metamorphic, RowShufflingLeavesTheCoverInvariant) {
  for (const Relation& r : MetamorphicBaseRelations()) {
    const FdSet expected = MineCover(GetParam(), r);
    for (uint64_t seed : {1ull, 2ull}) {
      const FdSet shuffled = MineCover(GetParam(), ShuffleRows(r, seed));
      EXPECT_EQ(shuffled.fds(), expected.fds())
          << "row shuffle (seed " << seed << ") changed the cover";
    }
  }
}

TEST_P(Metamorphic, DuplicateRowInjectionLeavesTheCoverInvariant) {
  for (const Relation& r : MetamorphicBaseRelations()) {
    const FdSet expected = MineCover(GetParam(), r);
    // Duplicate every row once, then a prefix once more.
    Result<Relation> doubled = ConcatRelations(r, r);
    ASSERT_TRUE(doubled.ok());
    std::vector<TupleId> prefix;
    for (TupleId t = 0; t < r.num_tuples() / 2; ++t) prefix.push_back(t);
    if (!prefix.empty()) {
      Result<Relation> extra = SelectRows(r, prefix);
      ASSERT_TRUE(extra.ok());
      doubled = ConcatRelations(doubled.value(), extra.value());
      ASSERT_TRUE(doubled.ok());
    }
    const FdSet mined = MineCover(GetParam(), doubled.value());
    EXPECT_EQ(mined.fds(), expected.fds())
        << "duplicate rows changed the cover";
  }
}

TEST_P(Metamorphic, EmptyAndSingleRowRelationsMatchTheReference) {
  // In both cases every FD holds vacuously; all miners must emit the
  // same canonical cover as the reference implementation (Dep-Miner
  // serial), and duplicating a single row must not change it.
  for (size_t attrs : {1u, 3u, 5u}) {
    RelationBuilder empty_builder(Schema::Default(attrs));
    Result<Relation> empty = std::move(empty_builder).Finish();
    ASSERT_TRUE(empty.ok());

    std::vector<std::string> row(attrs, "x");
    Result<Relation> single = MakeRelation(Schema::Default(attrs), {row});
    ASSERT_TRUE(single.ok());
    Result<Relation> twice =
        MakeRelation(Schema::Default(attrs), {row, row});
    ASSERT_TRUE(twice.ok());

    const MinerParam reference{"depminer", 1};
    for (const Relation* r :
         {&empty.value(), &single.value(), &twice.value()}) {
      const FdSet expected = MineCover(reference, *r);
      const FdSet mined = MineCover(GetParam(), *r);
      EXPECT_EQ(mined.fds(), expected.fds())
          << attrs << " attributes, " << r->num_tuples() << " tuple(s)";
    }
    // dep(single row) = dep(two identical rows).
    EXPECT_EQ(MineCover(GetParam(), single.value()).fds(),
              MineCover(GetParam(), twice.value()).fds());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMiners, Metamorphic,
    ::testing::Values(MinerParam{"depminer", 1}, MinerParam{"depminer", 8},
                      MinerParam{"depminer2", 1},
                      MinerParam{"depminer2", 8}, MinerParam{"tane", 1},
                      MinerParam{"tane", 8}, MinerParam{"fastfds", 1},
                      MinerParam{"fdep", 1}),
    MinerParamName<MinerParam>);

}  // namespace
}  // namespace depminer
