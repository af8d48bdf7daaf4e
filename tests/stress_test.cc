// Larger-scale differential stress tests: beyond the oracle-sized sweeps,
// these cross-check the production algorithms against each other on
// relations too big for exhaustive discovery, across the generator's
// regimes (uniform, correlated, skewed, fixed-domain, embedded FDs).

#include <gtest/gtest.h>

#include "core/armstrong.h"
#include "core/dep_miner.h"
#include "datagen/embedded_fd.h"
#include "datagen/synthetic.h"
#include "fastfds/fastfds.h"
#include "fd/satisfaction.h"
#include "tane/tane.h"
#include "test_util.h"

namespace depminer {
namespace {

using ::depminer::testing::Fd;

struct StressCase {
  size_t attrs;
  size_t tuples;
  double rate;
  double zipf;
  size_t fixed_domain;
  uint64_t seed;
};

/// Prints as `a12_t2000_c0.3_z0_d0_s102` (attributes, tuples, identical
/// rate, Zipf exponent, fixed domain, seed), which ctest puts in each
/// case's id in place of gtest's index; the default byte dump would put
/// the struct's 48 bytes there.
void PrintTo(const StressCase& c, std::ostream* os) {
  *os << 'a' << c.attrs << "_t" << c.tuples << "_c" << c.rate << "_z"
      << c.zipf << "_d" << c.fixed_domain << "_s" << c.seed;
}

class StressSweep : public ::testing::TestWithParam<StressCase> {};

TEST_P(StressSweep, AllProductionAlgorithmsAgree) {
  const StressCase c = GetParam();
  SyntheticConfig config;
  config.num_attributes = c.attrs;
  config.num_tuples = c.tuples;
  config.identical_rate = c.rate;
  config.zipf_exponent = c.zipf;
  config.fixed_domain = c.fixed_domain;
  config.seed = c.seed;
  Result<Relation> data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok());
  const Relation& r = data.value();

  DepMinerOptions couples;
  couples.build_armstrong = true;
  Result<DepMinerResult> dm = MineDependencies(r, couples);
  ASSERT_TRUE(dm.ok());

  DepMinerOptions ids;
  ids.agree_set_algorithm = AgreeSetAlgorithm::kIdentifiers;
  ids.build_armstrong = false;
  Result<DepMinerResult> dm2 = MineDependencies(r, ids);
  ASSERT_TRUE(dm2.ok());

  Result<TaneResult> tane = TaneDiscover(r);
  ASSERT_TRUE(tane.ok());
  Result<FastFdsResult> fast = FastFdsDiscover(r);
  ASSERT_TRUE(fast.ok());

  EXPECT_EQ(dm.value().fds.fds(), dm2.value().fds.fds());
  EXPECT_EQ(dm.value().fds.fds(), tane.value().fds.fds());
  EXPECT_EQ(dm.value().fds.fds(), fast.value().fds.fds());

  // Spot-check 25 FDs hold and are minimal.
  size_t checked = 0;
  for (const FunctionalDependency& fd : dm.value().fds.fds()) {
    if (checked++ >= 25) break;
    EXPECT_TRUE(Holds(r, fd)) << fd.ToString();
    EXPECT_TRUE(IsMinimalFd(r, fd)) << fd.ToString();
  }

  // Armstrong relation (when it exists) verifies and re-mines equal.
  if (dm.value().armstrong.has_value()) {
    EXPECT_TRUE(IsArmstrongFor(*dm.value().armstrong, dm.value().all_max_sets));
    Result<DepMinerResult> remined = MineDependencies(*dm.value().armstrong);
    ASSERT_TRUE(remined.ok());
    EXPECT_EQ(remined.value().fds.fds(), dm.value().fds.fds());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, StressSweep,
    ::testing::Values(
        StressCase{12, 2000, 0.0, 0.0, 0, 101},   // uniform, wide
        StressCase{12, 2000, 0.3, 0.0, 0, 102},   // paper c=30%
        StressCase{12, 2000, 0.5, 0.0, 0, 103},   // paper c=50%
        StressCase{10, 3000, 0.2, 1.1, 0, 104},   // Zipf-skewed
        StressCase{10, 3000, 0.0, 0.0, 40, 105},  // tiny fixed domain
        StressCase{16, 1500, 0.4, 0.0, 0, 106},   // wider schema
        StressCase{8, 5000, 0.6, 0.0, 0, 107},    // tall and correlated
        StressCase{14, 1000, 0.0, 0.8, 200, 108}  // skew + fixed domain
        ));

TEST(StressEmbedded, PlantedFdsSurviveFullPipeline) {
  EmbeddedFdConfig config;
  config.num_attributes = 10;
  config.num_tuples = 2000;
  config.fds = {Fd("AB", 'C'), Fd("C", 'D'), Fd("E", 'F'), Fd("FG", 'H')};
  config.domain_size = 60;
  config.seed = 424242;
  Result<Relation> data = GenerateWithEmbeddedFds(config);
  ASSERT_TRUE(data.ok());
  Result<DepMinerResult> mined = MineDependencies(data.value());
  ASSERT_TRUE(mined.ok());
  for (const FunctionalDependency& fd : config.fds) {
    EXPECT_TRUE(mined.value().fds.Implies(fd)) << fd.ToString();
  }
  Result<TaneResult> tane = TaneDiscover(data.value());
  ASSERT_TRUE(tane.ok());
  EXPECT_EQ(tane.value().fds.fds(), mined.value().fds.fds());
}

}  // namespace
}  // namespace depminer
