// The mine path: what `fdtool mine` does after argument parsing —
// ReadCsvRelation, MineDependencies (Alg. 2, one lane, no Armstrong
// relation), one FunctionalDependency::ToString line per FD — timed as one
// op, and the same op replayed layer by layer under spans.

#include <algorithm>

#include "bench.h"
#include "core/dep_miner.h"
#include "relation/csv.h"

namespace perfbench {

using namespace depminer;

namespace {

/// One untraced mine op. Everything it allocates is released before it
/// returns, inside the caller's timer, as in a `fdtool mine` process.
std::string MineOnce(const std::string& path, Status* status) {
  Result<Relation> relation = ReadCsvRelation(path);
  if (!relation.ok()) {
    *status = relation.status();
    return std::string();
  }
  DepMinerOptions options;
  options.build_armstrong = false;
  options.num_threads = 1;
  Result<DepMinerResult> mined = MineDependencies(relation.value(), options);
  if (!mined.ok()) {
    *status = mined.status();
    return std::string();
  }
  return RenderCover(mined.value().fds, relation.value().schema());
}

bool CheckCover(const std::string& text, const std::string& reference,
                const Status& status, const char* what, RunReport* report) {
  if (!status.ok()) {
    report->Fail(std::string(what) + ": " + status.ToString());
    return false;
  }
  if (text != reference) {
    report->Fail(std::string(what) + ": cover differs from the reference");
    return false;
  }
  return true;
}

/// One traced mine op; returns the rendered cover.
std::string TracedMineOp(const std::string& path, SpanRecorder* recorder,
                         uint32_t op, Metrics* counts, Status* status) {
  const int32_t root = recorder->Begin("op", op);
  std::string text;
  {
    Result<Relation> relation = InSpan(recorder, "relation", op, root,
                                       [&] { return ReadCsvRelation(path); });
    if (!relation.ok()) {
      *status = relation.status();
    } else {
      const FdSet fds =
          TracedMineLayers(relation.value(), recorder, op, root, counts);
      text = InSpan(recorder, "render", op, root, [&] {
        return RenderCover(fds, relation.value().schema());
      });
    }
  }
  recorder->End(root);
  return text;
}

/// The traced pass: the same op through the layers the façade is built
/// from, one span each; `untraced_p50` is the untraced window's median.
void TracedPass(const Args& args, const Inputs& inputs, double untraced_p50,
                RunReport* report) {
  Metrics& m = report->metrics;
  m = ZeroLayerMetrics();
  SpanRecorder recorder(0);
  std::vector<uint32_t> ops;
  const Clock::time_point traced = Clock::now();
  uint32_t op = 0;
  do {
    Status status;
    const std::string text =
        TracedMineOp(inputs.csv_path, &recorder, op, &m, &status);
    ++report->attempted;
    if (!CheckCover(text, inputs.reference, status, "traced op", report)) {
      ++report->failed;
    }
    m["render.kb"].value = text.size() / 1e3;
    ops.push_back(op++);
  } while (MsSince(traced) < args.seconds * 1000 / 2);

  const auto self = SelfTimeByOp({&recorder});
  std::vector<double> op_ms, covered_pct;
  for (const Span& s : recorder.spans()) {
    if (s.parent >= 0) continue;
    const double ms = SpanMs(s);
    op_ms.push_back(ms);
    covered_pct.push_back(100.0 * (ms - self.at("op").at(s.op)) / ms);
  }
  AddLayerMetrics(self, ops, &m);
  const double relation_ms = m["relation.ms"].value;
  m["relation.mb_per_s"].value =
      relation_ms > 0 ? inputs.csv.size() / 1e3 / relation_ms : 0;
  m["trace.layer_sum_pct"].value = Percentile(covered_pct, 0.5);
  m["trace.overhead_pct"].value =
      100.0 * (Percentile(op_ms, 0.5) - untraced_p50) / untraced_p50;
  // ROADMAP rule: a traced op's layer spans cover >= 95% of its wall time.
  const double worst =
      *std::min_element(covered_pct.begin(), covered_pct.end());
  if (worst < 95.0) {
    report->correct = false;
    report->Fail("traced op layers cover only " + std::to_string(worst) +
                 "% of its wall time");
  }
  WriteTraceFile({&recorder}, args, report);
}

}  // namespace

FdSet TracedMineLayers(const Relation& relation, SpanRecorder* recorder,
                       uint32_t op, int32_t parent, Metrics* counts) {
  auto span = [&](const char* name, auto&& call) {
    return InSpan(recorder, name, op, parent, call);
  };
  const StrippedPartitionDatabase db = span("partition", [&] {
    return StrippedPartitionDatabase::FromRelation(relation, 1);
  });
  AgreeSetOptions options;
  options.num_threads = 1;
  const AgreeSetResult agree =
      span("agree", [&] { return ComputeAgreeSetsCouples(db, options); });
  size_t all_max_sets = 0;
  const MaxSetResult max_sets = span("cmax", [&] {
    // MineDependencies derives MAX(dep(r)) inside its CMAX phase too.
    MaxSetResult result = ComputeMaxSets(agree, 1);
    all_max_sets = result.AllMaxSets().size();
    return result;
  });
  const LhsResult lhs = span("lhs", [&] { return ComputeLhs(max_sets, 1); });
  FdSet fds = span("output", [&] { return OutputFds(lhs); });
  Metrics& c = *counts;
  const double couples = static_cast<double>(agree.couples_examined);
  const double candidates = static_cast<double>(lhs.stats.candidates_generated);
  c["partition.memberships"].value = static_cast<double>(db.TotalMemberships());
  c["agree.couples"].value = couples;
  c["agree.sets"].value = static_cast<double>(agree.sets.size());
  c["agree.yield_ppm"].value =
      couples > 0 ? agree.sets.size() * 1e6 / couples : 0;
  c["agree.working_mb"].value = agree.working_bytes / 1e6;
  c["cmax.max_sets"].value = static_cast<double>(all_max_sets);
  c["lhs.candidates"].value = candidates;
  c["lhs.transversals"].value =
      static_cast<double>(lhs.stats.transversals_found);
  c["lhs.yield_pct"].value =
      candidates > 0 ? lhs.stats.transversals_found * 100.0 / candidates : 0;
  c["output.fds"].value = static_cast<double>(fds.size());
  return fds;
}

void RunMine(const Args& args, const Inputs& inputs, RunReport* report) {
  Metrics& m = report->metrics;
  // Set-up is one warm-up op (cold allocator and page cache); setup_s is
  // the median of several, the first before the window and the others
  // after it, as on the serve workloads.
  std::vector<double> setup_ms;
  auto set_up = [&] {
    Status status;
    const Clock::time_point start = Clock::now();
    const std::string text = MineOnce(inputs.csv_path, &status);
    setup_ms.push_back(MsSince(start));
    if (!CheckCover(text, inputs.reference, status, "warm-up op", report)) {
      report->correct = false;
    }
  };
  report->facts["peak_rss_reset"] = ResetPeakRss();
  set_up();

  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<ClientSamples> clients(1);
  const Clock::time_point window = Clock::now();
  do {
    Status status;
    const Clock::time_point start = Clock::now();
    const std::string text = MineOnce(inputs.csv_path, &status);
    const double ms = MsSince(start);
    clients[0].op_ms.push_back(ms);
    clients[0].busy_ms += ms;
    ++report->attempted;
    if (!CheckCover(text, inputs.reference, status, "mine op", report)) {
      ++report->failed;
    }
  } while (MsSince(window) < window_s * 1000);

  Metrics e2e;
  AddLatencyMetrics(clients, &e2e);
  e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  report->facts["ops"] = static_cast<double>(clients[0].op_ms.size());
  report->facts["clients"] = 1;
  if (args.trace) TracedPass(args, inputs, e2e.at("op_ms.p50").value, report);
  for (int rep = 1; rep < (args.smoke ? 1 : 3); ++rep) set_up();
  e2e["setup_s"] = {Percentile(setup_ms, 0.5) / 1000, "s"};
  CrossCheckReference(inputs, report);
  if (!args.trace) {
    m = e2e;
  } else {
    for (const auto& [name, metric] : e2e) {
      report->facts["untraced." + name] = metric.value;
    }
  }
}

}  // namespace perfbench
