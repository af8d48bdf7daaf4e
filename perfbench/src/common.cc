// Metrics, the peak-RSS window, the span recorder and the chrome-trace
// writer shared by the mine and serve workloads.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "bench.h"

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void AddLatencyMetrics(const std::vector<ClientSamples>& clients,
                       Metrics* metrics) {
  std::vector<double> all;
  double ops_per_s = 0;
  for (const ClientSamples& c : clients) {
    all.insert(all.end(), c.op_ms.begin(), c.op_ms.end());
    // Closed loop: each client's throughput over the time it spent inside
    // ops (output checks run between ops and are excluded), summed.
    if (c.busy_ms > 0) ops_per_s += c.op_ms.size() * 1000.0 / c.busy_ms;
  }
  (*metrics)["op_ms.p50"] = {Percentile(all, 0.5), "ms"};
  (*metrics)["op_ms.p75"] = {Percentile(all, 0.75), "ms"};
  (*metrics)["ops_per_s"] = {ops_per_s, "1/s"};
}

bool ResetPeakRss() {
  // Free heap pages left by input generation and the reference mine go
  // back to the kernel first, so the measured peak does not carry heaps
  // that only they used.
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;  // 5: reset VmHWM to VmRSS
  return std::fclose(f) == 0 && written;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        std::sscanf(line + 6, "%ld", &kb);
      }
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) * 1024.0 / 1e6;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

std::string RenderCover(const depminer::FdSet& fds,
                        const depminer::Schema& schema) {
  std::string text;
  for (const depminer::FunctionalDependency& fd : fds.fds()) {
    text += fd.ToString(schema);
    text += '\n';
  }
  return text;
}

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

bool WriteChromeTrace(const std::vector<const SpanRecorder*>& recorders,
                      const std::string& path) {
  int64_t origin = INT64_MAX;
  for (const SpanRecorder* r : recorders) {
    for (const Span& s : r->spans()) origin = std::min(origin, s.start_ns);
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  char buf[512];
  for (const SpanRecorder* r : recorders) {
    for (const Span& s : r->spans()) {
      const char* parent = s.parent >= 0 ? r->spans()[s.parent].name : "";
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,"
                    "\"parent\":\"%s\"}}",
                    first ? "" : ",\n", s.name, s.tid,
                    static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.op,
                    parent);
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

/// The layer metric a span's self time is charged to; nullptr for spans
/// that are not a layer (the op itself, the client's calls).
const char* LayerMetricOf(const std::string& span) {
  static const std::map<std::string, const char*> kLayers = {
      {"relation", "relation.ms"},
      {"partition", "partition.ms"},
      {"agree", "agree.ms"},
      {"cmax", "cmax.ms"},
      {"lhs", "lhs.ms"},
      {"output", "output.ms"},
      {"render", "render.ms"},
      {"catalog.put", "catalog.put_ms"},
      {"catalog.get", "catalog.get_ms"},
      {"cache.lookup", "cache.lookup_ms"},
      {"cache.store", "cache.store_ms"},
  };
  if (span.rfind("protocol.", 0) == 0) return "protocol.ms";
  const auto it = kLayers.find(span);
  return it == kLayers.end() ? nullptr : it->second;
}

}  // namespace

int32_t SpanRecorder::Begin(const char* name, uint32_t op, int32_t parent) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = parent;
  span.tid = tid_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::End(int32_t index) { spans_[index].end_ns = NowNs(); }

double SpanMs(const Span& span) {
  return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
}


SelfTimes SelfTimeByOp(const std::vector<const SpanRecorder*>& recorders) {
  SelfTimes out;
  for (const SpanRecorder* r : recorders) {
    const std::vector<Span>& spans = r->spans();
    // Children of one parent run one after another on one thread, so
    // their clipped durations add up to the covered part of the parent.
    std::vector<int64_t> covered(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent < 0) continue;
      const Span& p = spans[s.parent];
      const int64_t lo = std::max(s.start_ns, p.start_ns);
      const int64_t hi = std::min(s.end_ns, p.end_ns);
      if (hi > lo) covered[s.parent] += hi - lo;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out[s.name][s.op] +=
          static_cast<double>(s.end_ns - s.start_ns - covered[i]) / 1e6;
    }
  }
  return out;
}

void AddLayerMetrics(const SelfTimes& self, const std::vector<uint32_t>& ops,
                     Metrics* metrics) {
  std::map<std::string, std::map<uint32_t, double>> by_metric;
  for (const auto& [span, by_op] : self) {
    const char* metric = LayerMetricOf(span);
    if (metric == nullptr) continue;
    for (const auto& [op, ms] : by_op) by_metric[metric][op] += ms;
  }
  for (const auto& [metric, by_op] : by_metric) {
    std::vector<double> per_op;
    for (const uint32_t op : ops) {
      const auto it = by_op.find(op);
      per_op.push_back(it == by_op.end() ? 0 : it->second);
    }
    (*metrics)[metric].value = Percentile(per_op, 0.5);
  }
}

void WriteTraceFile(const std::vector<const SpanRecorder*>& recorders,
                    const Args& args, RunReport* report) {
  const std::string dir = args.work_root + "/traces";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  // One file per workload, overwritten by its latest traced run.
  const std::string path = dir + "/" + args.workload + ".json";
  if (ec || !WriteChromeTrace(recorders, path)) {
    report->correct = false;
    report->Fail("cannot write trace " + path);
  }
}

Metrics ZeroLayerMetrics() {
  static const std::pair<const char*, const char*> kLayerMetrics[] = {
      {"relation.ms", "ms"},
      {"relation.mb_per_s", "MB/s"},
      {"partition.ms", "ms"},
      {"partition.memberships", "count"},
      {"agree.ms", "ms"},
      {"agree.couples", "count"},
      {"agree.sets", "count"},
      {"agree.yield_ppm", "ppm"},
      {"agree.working_mb", "MB"},
      {"cmax.ms", "ms"},
      {"cmax.max_sets", "count"},
      {"lhs.ms", "ms"},
      {"lhs.candidates", "count"},
      {"lhs.transversals", "count"},
      {"lhs.yield_pct", "%"},
      {"output.ms", "ms"},
      {"output.fds", "count"},
      {"render.ms", "ms"},
      {"render.kb", "KB"},
      {"catalog.put_ms", "ms"},
      {"catalog.get_ms", "ms"},
      {"catalog.bytes_per_csv_byte", "ratio"},
      {"cache.lookup_ms", "ms"},
      {"cache.store_ms", "ms"},
      {"cache.entry_kb", "KB"},
      {"protocol.ms", "ms"},
      {"protocol.kb", "KB"},
      {"server.mine_ms", "ms"},
      {"server.put_ms", "ms"},
      {"server.transport_ms", "ms"},
      {"server.cache_hit_pct", "%"},
      {"server.errors", "count"},
      {"server.rejected", "count"},
      {"trace.layer_sum_pct", "%"},
      {"trace.overhead_pct", "%"},
  };
  Metrics metrics;
  for (const auto& [name, unit] : kLayerMetrics) metrics[name] = {0, unit};
  return metrics;
}

}  // namespace perfbench
