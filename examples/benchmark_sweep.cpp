// Algorithm comparison on a configurable synthetic workload: runs
// Dep-Miner (Algorithm 2), Dep-Miner 2 (Algorithm 3) and TANE on the same
// relation, verifies they produce the same cover, and prints per-phase
// timings — a single benchmark "cell" with full visibility, useful for
// exploring where the crossovers the paper reports come from.
//
//   ./benchmark_sweep [--attrs=20] [--tuples=5000] [--rate=30] [--seed=42]

#include <cstdio>

#include "depminer.h"

using namespace depminer;

int main(int argc, char** argv) {
  ArgParser args;
  (void)args.Parse(argc, argv);
  SyntheticConfig config;
  config.num_attributes = static_cast<size_t>(args.GetInt("attrs", 20));
  config.num_tuples = static_cast<size_t>(args.GetInt("tuples", 5000));
  config.identical_rate = args.GetDouble("rate", 30.0) / 100.0;
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  Result<Relation> data = GenerateSynthetic(config);
  if (!data.ok()) {
    std::fprintf(stderr, "error: %s\n", data.status().ToString().c_str());
    return 1;
  }
  const Relation& relation = data.value();
  std::printf("Workload: |R|=%zu, |r|=%zu, c=%.0f%%, seed=%llu\n",
              config.num_attributes, config.num_tuples,
              config.identical_rate * 100,
              static_cast<unsigned long long>(config.seed));

  FdSet reference;
  for (AgreeSetAlgorithm algorithm :
       {AgreeSetAlgorithm::kCouples, AgreeSetAlgorithm::kIdentifiers}) {
    DepMinerOptions options;
    options.agree_set_algorithm = algorithm;
    Stopwatch timer;
    Result<DepMinerResult> mined = MineDependencies(relation, options);
    const double total = timer.ElapsedSeconds();
    if (!mined.ok()) {
      std::fprintf(stderr, "error: %s\n", mined.status().ToString().c_str());
      return 1;
    }
    const char* name = algorithm == AgreeSetAlgorithm::kCouples
                           ? "Dep-Miner  (Alg. 2)"
                           : "Dep-Miner 2 (Alg. 3)";
    const DepMinerStats& stats = mined.value().stats;
    std::printf(
        "\n%s: %.3f s total\n  agree %.3f s (%zu couples, %zu agree sets), "
        "cmax %.3f s (%zu maximal sets), lhs %.3f s, armstrong %.3f s\n",
        name, total, stats.agree_seconds, stats.num_couples,
        stats.num_agree_sets, stats.max_seconds, stats.num_max_sets,
        stats.lhs_seconds, stats.armstrong_seconds);
    if (reference.Empty()) {
      reference = mined.value().fds;
    } else if (mined.value().fds.fds() != reference.fds()) {
      std::fprintf(stderr, "FD MISMATCH between Dep-Miner variants\n");
      return 1;
    }
  }

  Stopwatch timer;
  Result<TaneResult> tane = TaneDiscover(relation);
  const double tane_total = timer.ElapsedSeconds();
  if (!tane.ok()) {
    std::fprintf(stderr, "error: %s\n", tane.status().ToString().c_str());
    return 1;
  }
  const TaneStats& stats = tane.value().stats;
  std::printf(
      "\nTANE: %.3f s total\n  %zu levels, %zu candidates, %zu partition "
      "products, peak partitions %.1f MB\n",
      tane_total, stats.levels, stats.candidates_generated,
      stats.partition_products,
      static_cast<double>(stats.peak_partition_bytes) / (1024.0 * 1024.0));
  if (tane.value().fds.fds() != reference.fds()) {
    std::fprintf(stderr, "FD MISMATCH between TANE and Dep-Miner\n");
    return 1;
  }

  std::printf("\nAll three algorithms found the same %zu minimal FDs.\n",
              reference.size());
  return 0;
}
