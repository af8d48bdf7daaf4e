#pragma once

// Shared types of the mine/serve benchmark program: the run's arguments,
// the generated inputs, latency samples, the metric sink and the span
// recorder of the traced pass. See perfbench/README.md for the workloads
// and metric definitions.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fd/fd_set.h"
#include "relation/relation.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs and short windows: the benchmark's self-test.
  bool smoke = false;
  /// Corrupts the reference cover so every output check must fail; the
  /// self-test uses it to prove the checks are live.
  bool tamper = false;
  /// Scratch directory for inputs, catalogs and sockets (created, then
  /// removed at exit) and the parent of `traces/`.
  std::string work_root = ".bench_build";
};

/// One metric as printed: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What a workload run reports back to main().
struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when a check outside the per-op ones failed (reference
  /// cross-check, reconciliation, set-up).
  bool correct = true;
  std::vector<std::string> problems;  ///< first few failures, for stderr
  Metrics metrics;
  /// Provenance and untraced context, printed as its own JSON line.
  std::map<std::string, double> facts;

  void Fail(const std::string& what) {
    if (problems.size() < 8) problems.push_back(what);
  }
};

/// A workload's generated input and its checked reference output.
struct Inputs {
  depminer::Relation relation;  ///< as parsed back from `csv`
  std::string csv;              ///< the CSV text every op starts from
  std::string csv_path;         ///< `csv` on disk (mine workloads)
  std::string reference;        ///< the cover text every op must produce
  size_t fds = 0;
  size_t couples = 0;
  size_t agree_sets = 0;
};

/// Latencies of one closed-loop client.
struct ClientSamples {
  std::vector<double> op_ms;
  double busy_ms = 0;  ///< sum of op_ms: the client's measured wall time
};

/// Median and the percentiles the end-to-end metrics use (linear
/// interpolation between order statistics).
double Percentile(std::vector<double> values, double q);

/// Fills op_ms.p50, op_ms.p75 and ops_per_s from the window's clients.
void AddLatencyMetrics(const std::vector<ClientSamples>& clients,
                       Metrics* metrics);

/// Starts measuring peak memory: returns free heap pages to the kernel and
/// resets the kernel's peak resident set to the current one. False when
/// the kernel refuses the reset (PeakRssMb then reports the peak since
/// process start).
bool ResetPeakRss();

/// Peak resident set since the last ResetPeakRss, in MB (10^6 bytes).
double PeakRssMb();

/// The cover as `fdtool mine` prints it: one `fd.ToString(schema)` line
/// per FD, in FdSet order.
std::string RenderCover(const depminer::FdSet& fds,
                        const depminer::Schema& schema);

/// One traced interval. `parent` indexes the same recorder (-1 = root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t op = 0;
  int32_t parent = -1;
  int tid = 0;
};

/// The benchmark's own span buffer: one per thread, merged when the traced
/// pass ends. The library's TraceSession is deliberately not used — it
/// would switch on the library's internal spans and time a different
/// program.
class SpanRecorder {
 public:
  explicit SpanRecorder(int tid) : tid_(tid) { spans_.reserve(1 << 14); }

  int32_t Begin(const char* name, uint32_t op, int32_t parent = -1);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int tid_;
  std::vector<Span> spans_;
};

/// Runs `call` under a span and returns its result; the result is built
/// before the span closes, and destroyed after it.
template <typename F>
auto InSpan(SpanRecorder* recorder, const char* name, uint32_t op,
            int32_t parent, F&& call) {
  struct Close {
    SpanRecorder* recorder;
    int32_t index;
    ~Close() { recorder->End(index); }
  } close{recorder, recorder->Begin(name, op, parent)};
  return call();
}

/// Duration of a span in ms.
double SpanMs(const Span& span);

/// Per-op totals of each span name's self time: name → op → ms. A span's
/// self time is its duration minus the part of it its children cover.
using SelfTimes = std::map<std::string, std::map<uint32_t, double>>;
SelfTimes SelfTimeByOp(const std::vector<const SpanRecorder*>& recorders);

/// The per-layer metric names and units, all 0: every traced run prints
/// all of them, 0 where the workload does not pass through the layer.
Metrics ZeroLayerMetrics();

/// Sets each layer's `<layer>.ms`-style metric to the median over `ops`
/// of its per-op self time (an op without the layer counts 0).
void AddLayerMetrics(const SelfTimes& self, const std::vector<uint32_t>& ops,
                     Metrics* metrics);

/// Writes the spans as chrome-trace JSON to
/// `<work_root>/traces/<workload>.json`.
void WriteTraceFile(const std::vector<const SpanRecorder*>& recorders,
                    const Args& args, RunReport* report);

// Workload entry points (inputs.cc, mine.cc, serve.cc).

/// Builds the workload's relation, CSV text and reference cover.
bool PrepareInputs(const Args& args, const std::string& run_dir,
                   Inputs* inputs, RunReport* report);

/// Cross-checks the reference cover against TANE's, byte for byte.
void CrossCheckReference(const Inputs& inputs, RunReport* report);

void RunMine(const Args& args, const Inputs& inputs, RunReport* report);

void RunServe(const Args& args, const Inputs& inputs,
              const std::string& run_dir, RunReport* report);

/// The mine layers of a traced op (shared by the mine ops and the serve
/// replay): strip → agree sets → CMAX → LHS → FD output, each under its
/// own span, one lane, as MineDependencies runs them. Records the layers'
/// counts into `counts` and returns the cover.
depminer::FdSet TracedMineLayers(const depminer::Relation& relation,
                                 SpanRecorder* recorder, uint32_t op,
                                 int32_t parent, Metrics* counts);

}  // namespace perfbench
