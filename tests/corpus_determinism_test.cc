// The tentpole safety net: on every dataset shape of the paper-scale
// corpus (run at a seconds-cheap scale), every threaded miner must
// produce a bit-identical cover at 1, 2 and 8 threads — the morsel
// engine's merge-in-morsel-order guarantee.
// The full-size corpus gets the same thread-count check on every
// bench_scale run (scripts/bench_scale.sh refuses to report times for
// non-identical results); this suite keeps the property in the ctest
// gate where a regression fails fast.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/mine_by_name.h"
#include "datagen/synthetic.h"

namespace depminer {
namespace {

/// Seconds-cheap slice of the corpus grid: same sweep structure, tuple
/// counts floored to 64–400.
constexpr double kTestScale = 0.001;

std::vector<CorpusSpec> TestCorpus() { return PaperScaleCorpus(kTestScale); }

std::string CoverSignature(const Result<MineOutcome>& mined) {
  EXPECT_TRUE(mined.ok()) << mined.status().ToString();
  if (!mined.ok()) return "";
  EXPECT_TRUE(mined.value().complete);
  std::string sig;
  for (const FunctionalDependency& fd : mined.value().fds.fds()) {
    sig += fd.ToString();
    sig += '\n';
  }
  return sig;
}

TEST(CorpusDeterminism, EveryMinerBitIdenticalAcrossThreadCounts) {
  for (const CorpusSpec& spec : TestCorpus()) {
    Result<Relation> data = GenerateSynthetic(spec.config);
    ASSERT_TRUE(data.ok()) << spec.name << ": " << data.status().ToString();
    for (const MinerSpec& miner : Miners()) {
      // Serial miners have no thread counts to compare; running them here
      // would only burn time (FDEP alone spends a minute on the wide
      // dense_attrs45 point, whose near-key shape yields a half-million-FD
      // cover).
      if (!miner.threaded) continue;
      const std::string reference =
          CoverSignature(MineByName(data.value(), miner.name));
      for (const size_t threads : {size_t{2}, size_t{8}}) {
        const MineRequest request{threads, nullptr, {}};
        EXPECT_EQ(CoverSignature(MineByName(data.value(), miner.name, request)),
                  reference)
            << miner.name << " diverged at " << threads << " threads on "
            << spec.name;
      }
    }
  }
}

}  // namespace
}  // namespace depminer
