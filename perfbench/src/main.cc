// perfbench: the repository's mine/serve benchmark program.
//
//   perfbench --workload mine_paper|mine_dense|serve_hit|serve_churn
//             --seed N --seconds S --trace 0|1 [--smoke] [--tamper]
//             [--work-root DIR]
//
// Prints one provenance JSON line, then as its last line the result:
// {"correct", "attempted", "failed", "metrics"}, with the end-to-end
// metrics under --trace 0 and the per-layer metrics under --trace 1.
// perfbench/README.md defines every workload and metric.

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "common/log.h"

namespace {

using perfbench::Args;
using perfbench::RunReport;

/// A second seed to re-check any claim made at the default seed on.
constexpr uint64_t kRecheckSeed = 7;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--smoke") {
      args->smoke = true;
    } else if (flag == "--tamper") {
      args->tamper = true;
    } else if (flag == "--workload" || flag == "--seed" ||
               flag == "--seconds" || flag == "--trace" ||
               flag == "--work-root") {
      const char* v = value();
      if (v == nullptr) return false;
      char* end = nullptr;
      if (flag == "--workload") {
        args->workload = v;
      } else if (flag == "--work-root") {
        args->work_root = v;
      } else if (flag == "--seed") {
        args->seed = std::strtoull(v, &end, 10);
      } else if (flag == "--seconds") {
        args->seconds = std::strtod(v, &end);
        if (!(args->seconds > 0)) return false;
      } else {
        if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
        args->trace = v[0] == '1';
      }
      if (end != nullptr && *end != '\0') return false;
    } else {
      return false;
    }
  }
  return args->workload == "mine_paper" || args->workload == "mine_dense" ||
         args->workload == "serve_hit" || args->workload == "serve_churn";
}

std::string Number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "mine_paper|mine_dense|serve_hit|serve_churn --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--tamper] "
                 "[--work-root DIR]\n");
    return 2;
  }
  // The daemon logs its life cycle at info; only trouble belongs on stderr.
  depminer::SetLogLevel(depminer::LogLevel::kWarn);
  if (args.smoke) args.seconds = std::min(args.seconds, 1.0);

  const std::string run_dir = args.work_root + "/run-" + args.workload + "-" +
                              std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);
  std::filesystem::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", run_dir.c_str());
    return 1;
  }

  RunReport report;
  perfbench::Inputs inputs;
  bool ran = perfbench::PrepareInputs(args, run_dir, &inputs, &report);
  if (ran) {
    if (args.tamper) inputs.reference[0] ^= 1;
    if (args.workload.rfind("mine_", 0) == 0) {
      perfbench::RunMine(args, inputs, &report);
    } else {
      perfbench::RunServe(args, inputs, run_dir, &report);
    }
    ran = !report.metrics.empty();
  }
  std::filesystem::remove_all(run_dir, ec);
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  if (!ran) {
    std::fprintf(stderr, "perfbench: %s did not run\n", args.workload.c_str());
    return 1;
  }

  std::map<std::string, double> facts = report.facts;
  facts["seed"] = static_cast<double>(args.seed);
  facts["recheck_seed"] = static_cast<double>(kRecheckSeed);
  facts["nproc"] = std::thread::hardware_concurrency();
  facts["lanes_per_op"] = 1;
  facts["run_seconds"] = args.seconds;
  facts["trace"] = args.trace;
  facts["smoke"] = args.smoke;
  facts["tuples"] = static_cast<double>(inputs.relation.num_tuples());
  facts["attributes"] = static_cast<double>(inputs.relation.num_attributes());
  facts["csv_bytes"] = static_cast<double>(inputs.csv.size());
  facts["couples"] = static_cast<double>(inputs.couples);
  facts["agree_sets"] = static_cast<double>(inputs.agree_sets);
  facts["fds"] = static_cast<double>(inputs.fds);
  std::string line =
      "{\"provenance\": {\"workload\": \"" + args.workload + "\"";
  for (const auto& [key, value] : facts) {
    line += ", \"" + key + "\": " + Number(value);
  }
  std::printf("%s}}\n", line.c_str());

  bool finite = true;
  std::string metrics;
  for (const auto& [name, metric] : report.metrics) {
    finite = finite && std::isfinite(metric.value);
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + name +
               "\": {\"value\": " +
               Number(std::isfinite(metric.value) ? metric.value : 0) +
               ", \"unit\": \"" + metric.unit + "\"}";
  }
  if (!finite) std::fprintf(stderr, "perfbench: a metric is not finite\n");
  const bool correct = report.correct && finite && report.failed == 0 &&
                       report.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
