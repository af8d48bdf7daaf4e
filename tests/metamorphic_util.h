#pragma once

// Shared by metamorphic_test and column_permutation_test: the miners under
// test behind one calling convention, and the base relations the
// transformations are applied to.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dep_miner.h"
#include "fastfds/fastfds.h"
#include "fdep/fdep.h"
#include "tane/tane.h"
#include "test_util.h"

namespace depminer::testing {

/// A miner by name ("depminer", "depminer2", "tane", "fastfds", "fdep")
/// and its pool lane count. gtest prints it as a byte dump.
struct MinerParam {
  std::string name;
  size_t threads;
};

/// "tane_8t": the suffix of the parameterized test names.
template <typename Param>
std::string MinerParamName(const ::testing::TestParamInfo<Param>& info) {
  return info.param.name + "_" + std::to_string(info.param.threads) + "t";
}

/// Canonical minimal cover from the given miner. All five emit exactly
/// the set of minimal non-trivial FDs, so outputs are comparable with
/// plain equality, not just cover equivalence.
inline FdSet MineCover(const MinerParam& p, const Relation& r) {
  if (p.name == "tane") {
    TaneOptions options;
    options.num_threads = p.threads;
    Result<TaneResult> mined = TaneDiscover(r, options);
    EXPECT_TRUE(mined.ok()) << mined.status().ToString();
    return mined.ok() ? mined.value().fds : FdSet();
  }
  if (p.name == "fastfds") {
    Result<FastFdsResult> mined = FastFdsDiscover(r);
    EXPECT_TRUE(mined.ok()) << mined.status().ToString();
    return mined.ok() ? mined.value().fds : FdSet();
  }
  if (p.name == "fdep") {
    Result<FdepResult> mined = FdepDiscover(r);
    EXPECT_TRUE(mined.ok()) << mined.status().ToString();
    return mined.ok() ? mined.value().fds : FdSet();
  }
  DepMinerOptions options;
  options.build_armstrong = false;
  options.num_threads = p.threads;
  options.agree_set_algorithm = p.name == "depminer2"
                                    ? AgreeSetAlgorithm::kIdentifiers
                                    : AgreeSetAlgorithm::kCouples;
  Result<DepMinerResult> mined = MineDependencies(r, options);
  EXPECT_TRUE(mined.ok()) << mined.status().ToString();
  return mined.ok() ? mined.value().fds : FdSet();
}

/// The relations each transformation is applied to: the paper's example
/// and two small random ones.
inline std::vector<Relation> MetamorphicBaseRelations() {
  std::vector<Relation> bases;
  bases.push_back(PaperExampleRelation());
  bases.push_back(RandomRelation(4, 20, 3, 11));
  bases.push_back(RandomRelation(5, 16, 2, 23));
  return bases;
}

}  // namespace depminer::testing
