// Streaming discovery: mine a CSV from its stripped partition database
// alone, the encoded relation released once r̂ is built from it — the
// paper's limited-memory operating model (§1: "its feasibility does not
// depend on the volume of handled data").
//
// With no arguments the example first *generates* a moderately large CSV
// on disk, then mines it through the one-pass streaming extractor and
// compares against the conventional load-then-mine path. Pass a CSV path
// to stream your own file.
//
//   ./streaming_mine [data.csv] [--tuples=100000] [--attrs=15] [--rate=40]

#include <cstdio>

#include "depminer.h"

using namespace depminer;

int main(int argc, char** argv) {
  ArgParser args;
  (void)args.Parse(argc, argv);

  std::string path;
  bool generated = false;
  if (!args.positional().empty()) {
    path = args.positional()[0];
  } else {
    SyntheticConfig config;
    config.num_attributes = static_cast<size_t>(args.GetInt("attrs", 15));
    config.num_tuples = static_cast<size_t>(args.GetInt("tuples", 100000));
    config.identical_rate = args.GetDouble("rate", 40.0) / 100.0;
    config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
    Result<Relation> data = GenerateSynthetic(config);
    if (!data.ok()) {
      std::fprintf(stderr, "error: %s\n", data.status().ToString().c_str());
      return 1;
    }
    path = "/tmp/depminer_streaming_demo.csv";
    Status st = WriteCsvRelation(data.value(), path);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    generated = true;
    std::printf("generated %s: %zu attributes x %zu tuples\n", path.c_str(),
                config.num_attributes, config.num_tuples);
  }

  // Route 1: one-pass streaming extraction + mining.
  Stopwatch timer;
  Result<StreamingMineResult> streamed = MineCsvStreaming(path);
  const double stream_seconds = timer.ElapsedSeconds();
  if (!streamed.ok()) {
    std::fprintf(stderr, "error: %s\n", streamed.status().ToString().c_str());
    return 1;
  }
  std::printf("\nstreaming route: %.3f s, %zu FDs, %zu tuples seen, "
              "%zu stripped memberships retained\n",
              stream_seconds, streamed.value().fds.size(),
              streamed.value().extract.num_tuples,
              streamed.value().extract.partitions.TotalMemberships());
  if (streamed.value().armstrong.has_value()) {
    std::printf("Armstrong sample: %zu tuples (from retained value "
                "samples)\n",
                streamed.value().armstrong->num_tuples());
  } else {
    std::printf("Armstrong sample unavailable: %s\n",
                streamed.value().armstrong_status.ToString().c_str());
  }

  // Route 2: conventional load-then-mine, to confirm equivalence.
  timer.Restart();
  Result<Relation> loaded = ReadCsvRelation(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  Result<DepMinerResult> mined = MineDependencies(loaded.value());
  const double load_seconds = timer.ElapsedSeconds();
  if (!mined.ok()) {
    std::fprintf(stderr, "error: %s\n", mined.status().ToString().c_str());
    return 1;
  }
  std::printf("\nload-then-mine route: %.3f s, %zu FDs\n", load_seconds,
              mined.value().fds.size());

  const bool identical =
      streamed.value().fds.fds() == mined.value().fds.fds();
  std::printf("\ncovers identical: %s\n", identical ? "yes" : "NO");
  if (generated) std::remove(path.c_str());
  return identical ? 0 : 1;
}
