// Ablation: the subset-dominance kernel against the quadratic scans it
// replaced.
//
// Two measurements. First, Max⊆/Min⊆ in isolation on random families of
// growing size: the kernel as shipped (the O(|S|²) survivor scan below
// its index cutoff, the inverted posting-list index of
// common/dominance.h at and above it), the scan alone, and the index
// alone at every size, so the cutoff can be read off the table. Same
// survivors on every path.
// Second, the full CMAX_SET stage (core/max_sets.h): the single-pass
// shared-index kernel versus the pre-kernel per-attribute loop
// (`ComputeMaxSetsNaive`), on every bundled dataset in data/ plus one
// synthetic relation. The bundled datasets are tiny, so each is mined in
// an iteration loop and per-iteration times are reported; the synthetic
// row provides a family large enough for the index to matter.
//
// Flags: --sizes=64,256,512,1024,2048,4096
//                                  random-family sizes for part one
//        --attrs=N                 attribute count for random families
//        --density=PERCENT         attribute membership probability
//        --reps=N                  timed repetitions per family size;
//                                  the *median* is reported (single runs
//                                  at the µs scale are noise)
//        --iters=N                 CMAX repetitions per bundled dataset
//        --seed=N
//        --json=PATH               machine-readable results
//        (scripts/bench_cmax.sh writes BENCH_cmax_dominance.json)

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/arg_parser.h"
#include "common/attribute_set.h"
#include "common/dominance.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/agree_sets.h"
#include "core/max_sets.h"
#include "datagen/synthetic.h"
#include "relation/csv.h"
#include "report/json_writer.h"

using namespace depminer;

namespace {

std::vector<AttributeSet> RandomFamily(size_t size, size_t attrs,
                                       uint64_t density_pct, Rng* rng) {
  std::vector<AttributeSet> family;
  family.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    AttributeSet s;
    for (AttributeId a = 0; a < attrs; ++a) {
      if (rng->Below(100) < density_pct) s.Add(a);
    }
    family.push_back(s);
  }
  return family;
}

std::vector<AttributeSet> Canonical(std::vector<AttributeSet> sets) {
  SortSets(&sets);
  return sets;
}

/// Max⊆ (maximal) or Min⊆ through the posting index at any family size:
/// the index branch of the kernel, without its small-family cutoff.
std::vector<AttributeSet> IndexFilter(std::vector<AttributeSet> sets,
                                      bool maximal) {
  std::sort(sets.begin(), sets.end());
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  std::stable_sort(sets.begin(), sets.end(),
                   [maximal](const AttributeSet& a, const AttributeSet& b) {
                     return maximal ? a.Count() > b.Count()
                                    : a.Count() < b.Count();
                   });
  const DominanceIndex index(sets, maximal
                                       ? DominanceIndex::Order::kNonIncreasing
                                       : DominanceIndex::Order::kNonDecreasing);
  std::vector<uint64_t> scratch(std::max<size_t>(index.words_per_bitmap(), 1));
  std::vector<AttributeSet> out;
  for (const AttributeSet& s : sets) {
    const bool dominated =
        maximal ? index.HasProperSupersetOf(s, nullptr, scratch.data())
                : index.HasProperSubsetOf(s, nullptr, scratch.data());
    if (!dominated) out.push_back(s);
  }
  return out;
}

/// One Max⊆/Min⊆ measurement row.
struct FamilyRow {
  size_t size = 0;
  double max_kernel_s = 0;
  double max_naive_s = 0;
  double max_index_s = 0;
  double min_kernel_s = 0;
  double min_naive_s = 0;
  double min_index_s = 0;
};

/// One CMAX_SET measurement row.
struct DatasetRow {
  std::string name;
  size_t tuples = 0;
  size_t attrs = 0;
  size_t agree_sets = 0;
  size_t iters = 0;
  double cmax_kernel_s = 0;  // per iteration
  double cmax_naive_s = 0;   // per iteration
};

double Speedup(double naive_s, double kernel_s) {
  return kernel_s > 0 ? naive_s / kernel_s : 0.0;
}

/// Median of `reps` timed runs of `fn` (each run re-filters the family
/// from scratch). A warm-up run precedes the timed ones so the first
/// measurement does not pay cold caches and lazy allocation.
template <typename Fn>
double MedianSeconds(size_t reps, Fn&& fn) {
  fn();  // warm-up, untimed
  std::vector<double> samples;
  samples.reserve(reps);
  for (size_t i = 0; i < reps; ++i) {
    Stopwatch timer;
    fn();
    samples.push_back(timer.ElapsedSeconds());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Times kernel vs naive CMAX on one agree-set result, `iters` times
/// each, and cross-checks the outputs. Returns false on mismatch.
bool MeasureCmax(const AgreeSetResult& agree, size_t iters, DatasetRow* row) {
  row->attrs = agree.num_attributes;
  row->agree_sets = agree.sets.size();
  row->iters = iters;

  Stopwatch timer;
  MaxSetResult kernel;
  for (size_t i = 0; i < iters; ++i) kernel = ComputeMaxSets(agree);
  row->cmax_kernel_s = timer.ElapsedSeconds() / static_cast<double>(iters);

  timer.Restart();
  MaxSetResult naive;
  for (size_t i = 0; i < iters; ++i) naive = ComputeMaxSetsNaive(agree);
  row->cmax_naive_s = timer.ElapsedSeconds() / static_cast<double>(iters);

  return kernel.max_sets == naive.max_sets &&
         kernel.cmax_sets == naive.cmax_sets;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser;
  (void)parser.Parse(argc, argv);
  const std::vector<int64_t> sizes =
      parser.GetIntList("sizes", {64, 256, 512, 1024, 2048, 4096});
  const size_t attrs = static_cast<size_t>(parser.GetInt("attrs", 40));
  const uint64_t density =
      static_cast<uint64_t>(parser.GetInt("density", 50));
  const size_t reps =
      std::max<size_t>(1, static_cast<size_t>(parser.GetInt("reps", 15)));
  const size_t iters = static_cast<size_t>(parser.GetInt("iters", 2000));
  const uint64_t seed = static_cast<uint64_t>(parser.GetInt("seed", 42));
  const std::string json_path = parser.GetString("json", "");

  // Part one: Max⊆/Min⊆ on random families of growing size. The kernel
  // (survivor scan below the index cutoff, posting index above — see
  // common/dominance.cc) vs the scan alone vs the index alone; medians
  // of `reps` runs so the small families are not pure noise.
  std::printf("== Ablation: Max⊆/Min⊆ kernel vs naive scan vs index "
              "(|R|=%zu, d=%llu%%, median of %zu) ==\n",
              attrs, static_cast<unsigned long long>(density), reps);
  std::printf("%-8s %-14s %-12s %-12s %-14s %-12s %-12s\n", "sets",
              "max_kernel_s", "max_naive_s", "max_index_s", "min_kernel_s",
              "min_naive_s", "min_index_s");

  Rng rng(seed);
  std::vector<FamilyRow> family_rows;
  for (int64_t size : sizes) {
    FamilyRow row;
    row.size = static_cast<size_t>(size);
    const std::vector<AttributeSet> family =
        RandomFamily(row.size, attrs, density, &rng);

    row.max_kernel_s = MedianSeconds(reps, [&] { MaximalSets(family); });
    row.max_naive_s = MedianSeconds(reps, [&] { MaximalSetsNaive(family); });
    row.max_index_s = MedianSeconds(reps, [&] { IndexFilter(family, true); });
    row.min_kernel_s = MedianSeconds(reps, [&] { MinimalSets(family); });
    row.min_naive_s = MedianSeconds(reps, [&] { MinimalSetsNaive(family); });
    row.min_index_s = MedianSeconds(reps, [&] { IndexFilter(family, false); });

    const std::vector<AttributeSet> max = Canonical(MaximalSetsNaive(family));
    const std::vector<AttributeSet> min = Canonical(MinimalSetsNaive(family));
    if (Canonical(MaximalSets(family)) != max ||
        Canonical(IndexFilter(family, true)) != max ||
        Canonical(MinimalSets(family)) != min ||
        Canonical(IndexFilter(family, false)) != min) {
      std::fprintf(stderr, "MISMATCH at %zu sets\n", row.size);
      return 1;
    }
    std::printf("%-8zu %-14.6f %-12.6f %-12.6f %-14.6f %-12.6f %-12.6f\n",
                row.size, row.max_kernel_s, row.max_naive_s, row.max_index_s,
                row.min_kernel_s, row.min_naive_s, row.min_index_s);
    family_rows.push_back(row);
  }

  // Part two: the CMAX_SET stage on the bundled datasets plus one
  // synthetic relation. The largest bundled dataset (most cells) is the
  // acceptance anchor recorded at the top level of the JSON.
  std::printf("\n== Ablation: CMAX_SET kernel vs naive ==\n");
  std::printf("%-26s %-8s %-7s %-11s %-15s %-14s %-10s\n", "dataset",
              "tuples", "attrs", "agree_sets", "cmax_kernel_s",
              "cmax_naive_s", "speedup");

  std::vector<DatasetRow> dataset_rows;
  std::string largest_name;
  size_t largest_cells = 0;
  const char* kDatasets[] = {"courses.csv", "customers.csv",
                             "employees.csv", "orders.csv"};
  for (const char* name : kDatasets) {
    const std::string path = std::string(DEPMINER_BENCH_DATA_DIR "/") + name;
    Result<Relation> data = ReadCsvRelation(path);
    if (!data.ok()) {
      std::fprintf(stderr, "%s: %s\n", name,
                   data.status().ToString().c_str());
      return 1;
    }
    const Relation& r = data.value();
    DatasetRow row;
    row.name = name;
    row.tuples = r.num_tuples();
    const AgreeSetResult agree = ComputeAgreeSetsIdentifiers(
        StrippedPartitionDatabase::FromRelation(r));
    if (!MeasureCmax(agree, iters, &row)) {
      std::fprintf(stderr, "MISMATCH on %s\n", name);
      return 1;
    }
    if (row.tuples * row.attrs > largest_cells) {
      largest_cells = row.tuples * row.attrs;
      largest_name = name;
    }
    std::printf("%-26s %-8zu %-7zu %-11zu %-15.6f %-14.6f %-10.2f\n",
                row.name.c_str(), row.tuples, row.attrs, row.agree_sets,
                row.cmax_kernel_s, row.cmax_naive_s,
                Speedup(row.cmax_naive_s, row.cmax_kernel_s));
    dataset_rows.push_back(row);
  }

  {
    SyntheticConfig config;
    config.num_attributes = 30;
    config.num_tuples = 3000;
    config.identical_rate = 0.5;
    config.seed = seed;
    Result<Relation> data = GenerateSynthetic(config);
    if (!data.ok()) {
      std::fprintf(stderr, "datagen: %s\n", data.status().ToString().c_str());
      return 1;
    }
    const Relation& r = data.value();
    DatasetRow row;
    row.name = "synthetic-30x3000-c50";
    row.tuples = r.num_tuples();
    const AgreeSetResult agree = ComputeAgreeSetsIdentifiers(
        StrippedPartitionDatabase::FromRelation(r, DefaultThreadCount()));
    // The synthetic family is thousands of sets; a handful of
    // repetitions is enough.
    if (!MeasureCmax(agree, std::min<size_t>(iters, 5), &row)) {
      std::fprintf(stderr, "MISMATCH on %s\n", row.name.c_str());
      return 1;
    }
    std::printf("%-26s %-8zu %-7zu %-11zu %-15.6f %-14.6f %-10.2f\n",
                row.name.c_str(), row.tuples, row.attrs, row.agree_sets,
                row.cmax_kernel_s, row.cmax_naive_s,
                Speedup(row.cmax_naive_s, row.cmax_kernel_s));
    dataset_rows.push_back(row);
  }

  if (!json_path.empty()) {
    JsonWriter json;
    json.OpenObject();
    json.Key("bench").Value("cmax_dominance");
    json.Key("attrs").Value(static_cast<uint64_t>(attrs));
    json.Key("density_pct").Value(static_cast<uint64_t>(density));
    json.Key("seed").Value(static_cast<uint64_t>(seed));
    json.Key("hardware_threads")
        .Value(static_cast<uint64_t>(DefaultThreadCount()));
    json.Key("reps").Value(static_cast<uint64_t>(reps));
    json.Key("families").OpenArray();
    for (const FamilyRow& row : family_rows) {
      json.OpenObject();
      json.Key("sets").Value(static_cast<uint64_t>(row.size));
      json.Key("max_kernel_s").Value(row.max_kernel_s);
      json.Key("max_naive_s").Value(row.max_naive_s);
      json.Key("max_index_s").Value(row.max_index_s);
      json.Key("min_kernel_s").Value(row.min_kernel_s);
      json.Key("min_naive_s").Value(row.min_naive_s);
      json.Key("min_index_s").Value(row.min_index_s);
      json.Key("max_speedup")
          .Value(Speedup(row.max_naive_s, row.max_kernel_s));
      json.Key("min_speedup")
          .Value(Speedup(row.min_naive_s, row.min_kernel_s));
      json.Key("identical").Value(true);
      json.CloseObject();
    }
    json.CloseArray();
    json.Key("datasets").OpenArray();
    double largest_speedup = 0;
    for (const DatasetRow& row : dataset_rows) {
      json.OpenObject();
      json.Key("name").Value(row.name);
      json.Key("tuples").Value(static_cast<uint64_t>(row.tuples));
      json.Key("attrs").Value(static_cast<uint64_t>(row.attrs));
      json.Key("agree_sets").Value(static_cast<uint64_t>(row.agree_sets));
      json.Key("iters").Value(static_cast<uint64_t>(row.iters));
      json.Key("cmax_kernel_s").Value(row.cmax_kernel_s);
      json.Key("cmax_naive_s").Value(row.cmax_naive_s);
      json.Key("cmax_speedup")
          .Value(Speedup(row.cmax_naive_s, row.cmax_kernel_s));
      json.Key("identical").Value(true);
      json.CloseObject();
      if (row.name == largest_name) {
        largest_speedup = Speedup(row.cmax_naive_s, row.cmax_kernel_s);
      }
    }
    json.CloseArray();
    json.Key("largest_dataset").Value(largest_name);
    json.Key("largest_dataset_cmax_speedup").Value(largest_speedup);
    json.CloseObject();
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", json.str().c_str());
    std::fclose(f);
    std::printf("json written to %s\n", json_path.c_str());
  }
  return 0;
}
