// Quickstart: discover the minimal functional dependencies and the
// real-world Armstrong relation of a dataset.
//
// With no arguments it runs on the paper's §3 employee/department example
// so the output can be compared line by line with the paper; pass a CSV
// path to analyze your own data:
//
//   ./quickstart [data.csv] [--no-header] [--delimiter=';']

#include <cstdio>

#include "depminer.h"

using namespace depminer;

namespace {

Result<Relation> LoadInput(const ArgParser& args) {
  if (!args.positional().empty()) {
    CsvOptions options;
    options.has_header = !args.GetBool("no-header", false);
    if (args.Has("delimiter")) {
      DEPMINER_RETURN_NOT_OK(
          SetCsvDelimiter(args.GetString("delimiter", ""), &options));
    }
    return ReadCsvRelation(args.positional()[0], options);
  }
  // The paper's running example (§3, Example 1).
  return MakeRelation(Schema({"empnum", "depnum", "year", "depname", "mgr"}),
                      {
                          {"1", "1", "85", "Biochemistry", "5"},
                          {"1", "5", "94", "Admission", "12"},
                          {"2", "2", "92", "Computer Sce", "2"},
                          {"3", "2", "98", "Computer Sce", "2"},
                          {"4", "3", "98", "Geophysics", "2"},
                          {"5", "1", "75", "Biochemistry", "5"},
                          {"6", "5", "88", "Admission", "12"},
                      });
}

void PrintRelation(const Relation& r, const char* title) {
  std::printf("%s (%zu tuples):\n", title, r.num_tuples());
  std::printf("  ");
  for (size_t a = 0; a < r.num_attributes(); ++a) {
    std::printf("%s%s", a ? " | " : "",
                r.schema().name(static_cast<AttributeId>(a)).c_str());
  }
  std::printf("\n");
  for (TupleId t = 0; t < r.num_tuples(); ++t) {
    std::printf("  %s\n", r.TupleToString(t).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  (void)args.Parse(argc, argv);

  Result<Relation> input = LoadInput(args);
  if (!input.ok()) {
    std::fprintf(stderr, "error: %s\n", input.status().ToString().c_str());
    return 1;
  }
  const Relation& relation = input.value();
  PrintRelation(relation, "Input relation");

  Result<DepMinerResult> mined = MineDependencies(relation);
  if (!mined.ok()) {
    std::fprintf(stderr, "error: %s\n", mined.status().ToString().c_str());
    return 1;
  }
  const DepMinerResult& result = mined.value();

  std::printf("\nMinimal non-trivial functional dependencies (%zu):\n",
              result.fds.size());
  for (const FunctionalDependency& fd : result.fds.fds()) {
    std::printf("  %s\n", fd.ToString(relation.schema()).c_str());
  }

  std::printf("\nMaximal sets MAX(dep(r)):\n");
  for (const AttributeSet& m : result.all_max_sets) {
    std::printf("  %s\n", m.ToString(relation.schema().names()).c_str());
  }

  if (result.armstrong.has_value()) {
    std::printf("\n");
    PrintRelation(*result.armstrong,
                  "Real-world Armstrong relation (same FDs, values from the "
                  "input)");
  } else {
    std::printf("\nNo real-world Armstrong relation: %s\n",
                result.armstrong_status.ToString().c_str());
  }

  const DepMinerStats& stats = result.stats;
  std::printf(
      "\nPipeline statistics: %zu couples, %zu agree sets, %zu maximal "
      "sets, %zu FDs in %.3f s\n",
      stats.num_couples, stats.num_agree_sets, stats.num_max_sets,
      stats.num_fds, stats.Total());
  return 0;
}
