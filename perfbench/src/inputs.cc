// The workloads' inputs: the generated relation, its CSV text, and the
// reference cover every op's output is checked against.

#include <fstream>

#include "bench.h"
#include "common/rng.h"
#include "core/dep_miner.h"
#include "datagen/synthetic.h"
#include "relation/csv.h"
#include "tane/tane.h"

namespace perfbench {

using namespace depminer;

namespace {

/// The corpus seed the serve workloads take their relation's structure
/// from; the run seed only shuffles its rows.
constexpr uint64_t kServeCorpusSeed = 42;

/// `relation` with its rows in a seed-keyed random order.
Relation ShuffleRows(const Relation& relation, uint64_t seed) {
  std::vector<TupleId> order(relation.num_tuples());
  for (TupleId t = 0; t < order.size(); ++t) order[t] = t;
  Rng rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  std::vector<std::vector<ValueCode>> columns(relation.num_attributes());
  std::vector<std::vector<std::string>> dictionaries;
  for (AttributeId a = 0; a < relation.num_attributes(); ++a) {
    const std::vector<ValueCode>& column = relation.Column(a);
    columns[a].reserve(order.size());
    for (const TupleId t : order) columns[a].push_back(column[t]);
    dictionaries.push_back(relation.Dictionary(a));
  }
  return Relation(relation.schema(), std::move(columns),
                  std::move(dictionaries));
}

/// The workload's relation.
///  - mine_paper: the corpus's paper-regime tuple-sweep point (25k x 15,
///    c=0.5) at the run seed.
///  - mine_dense: the corpus's wide low-domain shape (256 tuples, domain
///    20) cut to 25 attributes, which keeps its LHS-dominated split at
///    ~0.6 s an op instead of ~20 s.
///  - serve_*: the mine_paper point at the corpus seed, rows shuffled by
///    the run seed. A cache hit costs in proportion to the cover, whose
///    size varies by +-18% across corpus seeds (3,140 to 4,507 FDs over
///    seeds 1-16); shuffling gives every seed new bytes and a new
///    fingerprint but the same cover, so seeds do not change the work.
Result<Relation> GenerateRelation(const Args& args) {
  if (args.workload == "mine_dense") {
    SyntheticConfig config;
    config.num_attributes = args.smoke ? 12 : 25;
    config.num_tuples = args.smoke ? 64 : 256;
    config.fixed_domain = 20;
    config.seed = args.seed;
    return GenerateSynthetic(config);
  }
  const bool serve = args.workload.rfind("serve_", 0) == 0;
  for (const CorpusSpec& spec : PaperScaleCorpus(
           args.smoke ? 0.02 : 1.0, serve ? kServeCorpusSeed : args.seed)) {
    if (spec.name.rfind("tuples_", 0) != 0) continue;
    Result<Relation> relation = GenerateSynthetic(spec.config);
    if (!serve || !relation.ok()) return relation;
    return ShuffleRows(relation.value(), args.seed);
  }
  return Status::NotFound("corpus has no tuple-sweep point");
}

}  // namespace

bool PrepareInputs(const Args& args, const std::string& run_dir,
                   Inputs* inputs, RunReport* report) {
  Result<Relation> generated = GenerateRelation(args);
  if (!generated.ok()) {
    report->Fail("datagen: " + generated.status().ToString());
    return false;
  }
  inputs->csv = CsvToString(generated.value());
  Result<Relation> parsed = ParseCsvRelation(inputs->csv);
  if (!parsed.ok()) {
    report->Fail("csv: " + parsed.status().ToString());
    return false;
  }
  inputs->relation = std::move(parsed).value();
  if (args.workload.rfind("mine_", 0) == 0) {
    inputs->csv_path = run_dir + "/input.csv";
    std::ofstream out(inputs->csv_path, std::ios::binary | std::ios::trunc);
    out << inputs->csv;
    if (!out.flush()) {
      report->Fail("cannot write " + inputs->csv_path);
      return false;
    }
  }
  DepMinerOptions options;
  options.build_armstrong = false;
  options.num_threads = 1;
  Result<DepMinerResult> mined = MineDependencies(inputs->relation, options);
  if (!mined.ok() || !mined.value().complete) {
    report->Fail("reference mine failed");
    return false;
  }
  inputs->reference =
      RenderCover(mined.value().fds, inputs->relation.schema());
  inputs->fds = mined.value().stats.num_fds;
  inputs->couples = mined.value().stats.num_couples;
  inputs->agree_sets = mined.value().stats.num_agree_sets;
  return true;
}

void CrossCheckReference(const Inputs& inputs, RunReport* report) {
  TaneOptions options;
  options.num_threads = 1;
  Result<TaneResult> tane = TaneDiscover(inputs.relation, options);
  if (!tane.ok() || !tane.value().complete ||
      RenderCover(tane.value().fds, inputs.relation.schema()) !=
          inputs.reference) {
    report->correct = false;
    report->Fail("reference cover differs from TANE's");
  }
}

}  // namespace perfbench
