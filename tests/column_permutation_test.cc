// Column permutation commutes with mining: dep(π(r)) = π(dep(r)), so the
// canonical cover mined from a relation with permuted columns is the
// cover of the original mapped through the same renaming. Checked for all
// five miners, at 1 and 8 pool lanes for the thread-aware ones; the
// invariance properties are in metamorphic_test.cc.
//
// The parameter prints as its label ("tane/8t"). ctest names each
// discovered case after the printed parameter, and a plain MinerParam
// prints as a byte dump that starts with the address of the name's
// buffer, so names built from it differ from build to build.

#include <gtest/gtest.h>

#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "metamorphic_util.h"
#include "relation/relation_builder.h"

namespace depminer {
namespace {

using ::depminer::testing::MetamorphicBaseRelations;
using ::depminer::testing::MineCover;
using ::depminer::testing::MinerParam;
using ::depminer::testing::MinerParamName;

struct LabeledMinerParam : MinerParam {};

void PrintTo(const LabeledMinerParam& p, std::ostream* os) {
  *os << p.name << "/" << p.threads << "t";
}

/// Relation with attribute `perm[j]` of `r` at position `j`, names moved
/// along with the data.
Relation PermuteColumns(const Relation& r,
                        const std::vector<AttributeId>& perm) {
  std::vector<std::string> names(perm.size());
  for (size_t j = 0; j < perm.size(); ++j) {
    names[j] = r.schema().name(perm[j]);
  }
  RelationBuilder builder{Schema(names)};
  std::vector<std::string> row(perm.size());
  for (TupleId t = 0; t < r.num_tuples(); ++t) {
    for (size_t j = 0; j < perm.size(); ++j) {
      row[j] = r.Value(t, perm[j]);
    }
    EXPECT_TRUE(builder.AddRow(row).ok());
  }
  Result<Relation> permuted = std::move(builder).Finish();
  EXPECT_TRUE(permuted.ok());
  return std::move(permuted).value();
}

/// Maps a cover through the same column permutation: attribute `perm[j]`
/// is renamed to `j`.
FdSet MapCover(const FdSet& cover, const std::vector<AttributeId>& perm) {
  std::vector<AttributeId> inverse(perm.size());
  for (size_t j = 0; j < perm.size(); ++j) inverse[perm[j]] = j;
  FdSet mapped(cover.num_attributes());
  for (const FunctionalDependency& fd : cover.fds()) {
    FunctionalDependency m;
    m.rhs = inverse[fd.rhs];
    for (AttributeId a = 0; a < perm.size(); ++a) {
      if (fd.lhs.Contains(a)) m.lhs.Add(inverse[a]);
    }
    mapped.Add(m);
  }
  mapped.Normalize();
  return mapped;
}

class Metamorphic : public ::testing::TestWithParam<LabeledMinerParam> {};

TEST_P(Metamorphic, ColumnPermutationRenamesTheCover) {
  for (const Relation& r : MetamorphicBaseRelations()) {
    const FdSet expected = MineCover(GetParam(), r);
    std::vector<AttributeId> perm(r.num_attributes());
    std::iota(perm.begin(), perm.end(), 0);
    Rng rng(5);
    for (size_t rounds = 0; rounds < 2; ++rounds) {
      for (size_t i = perm.size(); i > 1; --i) {
        std::swap(perm[i - 1], perm[rng.Below(i)]);
      }
      const FdSet mined = MineCover(GetParam(), PermuteColumns(r, perm));
      EXPECT_EQ(mined.fds(), MapCover(expected, perm).fds())
          << "column permutation did not commute with mining";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMiners, Metamorphic,
    ::testing::Values(LabeledMinerParam{{"depminer", 1}},
                      LabeledMinerParam{{"depminer", 8}},
                      LabeledMinerParam{{"depminer2", 1}},
                      LabeledMinerParam{{"depminer2", 8}},
                      LabeledMinerParam{{"tane", 1}},
                      LabeledMinerParam{{"tane", 8}},
                      LabeledMinerParam{{"fastfds", 1}},
                      LabeledMinerParam{{"fdep", 1}}),
    MinerParamName<LabeledMinerParam>);

}  // namespace
}  // namespace depminer
