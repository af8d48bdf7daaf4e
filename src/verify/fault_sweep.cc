#include "verify/fault_sweep.h"

#include <chrono>
#include <cstdio>

#include <unistd.h>

#include "common/log.h"
#include "common/progress.h"
#include "common/run_context.h"
#include "fault/fault.h"
#include "fd/satisfaction.h"
#include "relation/csv.h"
#include "storage/streaming.h"
#include "verify/generator.h"
#include "verify/oracle.h"

namespace depminer {

namespace {

StatusCode ExpectedCode(FaultKind kind) {
  switch (kind) {
    case FaultKind::kAlloc:
      return StatusCode::kCapacityExceeded;
    case FaultKind::kDeadline:
      return StatusCode::kDeadlineExceeded;
    case FaultKind::kIoError:
    case FaultKind::kShortRead:
    case FaultKind::kEintr:
      return StatusCode::kIoError;
    case FaultKind::kStall:
      return StatusCode::kOk;
  }
  return StatusCode::kOk;
}

/// Sites injected at the ingestion boundary (driven through a temp CSV
/// and `ExtractFromCsv`) rather than inside a miner.
bool IsIngestSite(const FaultSite& site) {
  const std::string name = site.name;
  return name.rfind("io/", 0) == 0 || name == "alloc/streaming";
}

void Find(FaultSweepReport* report, uint64_t seed, const std::string& site,
          std::string miner, std::string detail) {
  report->findings.push_back({seed, site, std::move(miner),
                              std::move(detail)});
}

/// Checks one faulted miner run against the sweep's contract (see the
/// header). `base` is the same miner's unfaulted cover.
void CheckMinerRun(const Relation& relation, const FaultSite& site,
                   uint64_t fires, const Result<MineOutcome>& mined,
                   const MineOutcome& base, uint64_t seed,
                   const std::string& label, FaultSweepReport* report) {
  const bool must_be_clean = fires == 0 || site.kind == FaultKind::kStall;
  const StatusCode expected = ExpectedCode(site.kind);
  if (!mined.ok()) {
    if (must_be_clean) {
      Find(report, seed, site.name, label,
           "run failed although no error fault fired: " +
               mined.status().ToString());
    } else if (mined.status().code() != expected) {
      Find(report, seed, site.name, label,
           std::string("injected ") + site.name +
               " surfaced with the wrong code: " + mined.status().ToString());
    }
    return;
  }
  const MineOutcome& out = mined.value();
  if (must_be_clean) {
    if (!out.complete) {
      Find(report, seed, site.name, label,
           "run degraded although no error fault fired: " +
               out.run_status.ToString());
    } else if (!out.fds.EquivalentTo(base.fds)) {
      Find(report, seed, site.name, label,
           "cover diverged from the unfaulted baseline");
    }
    return;
  }
  if (out.complete) {
    // The fault landed after the run's last check (e.g. on the final
    // TANE level): completing is fine, but only with the right answer.
    if (!out.fds.EquivalentTo(base.fds)) {
      Find(report, seed, site.name, label,
           "completed under a fired fault with a diverged cover");
    }
    return;
  }
  if (out.run_status.code() != expected) {
    Find(report, seed, site.name, label,
         std::string("degraded run carries the wrong status: ") +
             out.run_status.ToString());
  }
  // The core soundness clause: a partial cover must never invent
  // dependencies.
  for (const FunctionalDependency& fd : out.fds.fds()) {
    if (!Holds(relation, fd)) {
      Find(report, seed, site.name, label,
           "partial result emits an FD that does not hold: " +
               fd.ToString(relation.schema()));
    }
  }
}

bool SameExtract(const StreamingExtract& a, const StreamingExtract& b) {
  if (a.num_tuples != b.num_tuples) return false;
  if (a.schema.num_attributes() != b.schema.num_attributes()) return false;
  for (size_t i = 0; i < a.schema.num_attributes(); ++i) {
    const AttributeId id = static_cast<AttributeId>(i);
    if (a.schema.name(id) != b.schema.name(id)) return false;
    if (!(a.partitions.partition(id) == b.partitions.partition(id))) {
      return false;
    }
  }
  return a.distinct_counts == b.distinct_counts;
}

}  // namespace

std::string FaultSweepReport::ToString() const {
  std::string out = std::to_string(cases_run) + " cases, " +
                    std::to_string(runs) + " governed runs, " +
                    std::to_string(faults_fired) + " with a fired fault";
  if (findings.empty()) return out + ", all expectations held";
  out += ", " + std::to_string(findings.size()) + " finding(s):";
  for (const FaultFinding& f : findings) {
    out += "\n  seed " + std::to_string(f.seed) + " [" + f.site + " @ " +
           f.miner + "]: " + f.detail;
  }
  return out;
}

Result<FaultSweepReport> RunFaultSweep(const FaultSweepOptions& options) {
  FaultSweepReport report;
  DEPMINER_PROGRESS_PHASE("faultsweep", "seeds", options.iterations);

  std::vector<const FaultSite*> sites;
  if (options.sites.empty()) {
    for (const FaultSite& s : FaultSiteRegistry()) {
      if (std::string(s.name) != "job/stall") sites.push_back(&s);
    }
  } else {
    for (const std::string& name : options.sites) {
      const FaultSite* s = FindFaultSite(name);
      if (s == nullptr) {
        return Status::InvalidArgument("unknown fault site '" + name + "'");
      }
      sites.push_back(s);
    }
  }

  const std::vector<MinerSpec> miners = Miners();

  for (size_t i = 0; i < options.iterations; ++i) {
    const uint64_t seed = options.start_seed + i;
    Result<GeneratedCase> generated = GenerateAdversarialCase(seed);
    if (!generated.ok()) {
      Find(&report, seed, "", "generator", generated.status().ToString());
      continue;
    }
    const Relation& relation = generated.value().relation;
    ++report.cases_run;

    // Unfaulted, ungoverned baselines. A miner whose baseline fails is
    // the differential oracle's problem, not the sweep's — skip it here.
    std::vector<Result<MineOutcome>> baselines;
    baselines.reserve(miners.size());
    for (const MinerSpec& miner : miners) {
      const size_t t = miner.threaded ? options.num_threads : 1;
      baselines.push_back(
          MineByName(relation, miner.name, {t, nullptr, {}}));
    }

    for (const FaultSite* site : sites) {
      if (IsIngestSite(*site)) continue;  // handled below
      for (size_t m = 0; m < miners.size(); ++m) {
        const MinerSpec& miner = miners[m];
        const Result<MineOutcome>& base = baselines[m];
        if (!base.ok() || !base.value().complete) continue;
        const size_t t = miner.threaded ? options.num_threads : 1;
        const std::string label = MinerLabel(miner, t);

        FaultPlan plan;
        plan.site = site->name;
        plan.trigger_hit = seed % 3;
        plan.stall_ms = 1;
        RunContext ctx;
        // Arm a far-away deadline so the context is `limited()` — the
        // configuration a governed production run has, and the one in
        // which the deadline/jitter site is reachable.
        ctx.SetTimeout(std::chrono::hours(1));

        uint64_t fires = 0;
        Result<MineOutcome> mined = Status::NotFound("unset");
        {
          FaultScope scope(plan);
          mined = MineByName(relation, miner.name, {t, &ctx, {}});
          fires = scope.fires();
        }
        ++report.runs;
        if (fires > 0) ++report.faults_fired;
        CheckMinerRun(relation, *site, fires, mined, base.value(), seed,
                      label, &report);
      }
    }

    // Ingestion sites, driven through a temp CSV.
    if (!options.scratch_dir.empty() && relation.num_attributes() > 0) {
      const std::string csv_path =
          options.scratch_dir + "/fault-sweep-" +
          std::to_string(static_cast<long>(::getpid())) + "-" +
          std::to_string(seed) + ".csv";
      Status written = WriteCsvRelation(relation, csv_path);
      if (!written.ok()) return written;

      StreamingOptions sopt;
      sopt.value_sample_size = 0;
      Result<StreamingExtract> base_extract = ExtractFromCsv(csv_path, sopt);

      for (const FaultSite* site : sites) {
        if (!IsIngestSite(*site)) continue;
        if (!base_extract.ok()) continue;

        FaultPlan plan;
        plan.site = site->name;
        plan.trigger_hit = 0;  // small files see only a handful of reads
        plan.repeat = (seed % 2) != 0;
        RunContext ctx;
        ctx.SetTimeout(std::chrono::hours(1));
        StreamingOptions governed = sopt;
        governed.run_context = &ctx;

        uint64_t fires = 0;
        Result<StreamingExtract> extract = Status::NotFound("unset");
        {
          FaultScope scope(plan);
          extract = ExtractFromCsv(csv_path, governed);
          fires = scope.fires();
        }
        ++report.runs;
        if (fires > 0) ++report.faults_fired;

        // A transiently-faulted read must be retried into a byte-exact
        // extraction; only a *persistent* error (repeat plan, or the
        // bounded EINTR budget exhausted) or an allocation failure may
        // surface — and then as the right code, never as silent
        // truncation.
        const bool must_succeed =
            fires == 0 || site->kind == FaultKind::kShortRead ||
            (!plan.repeat && (site->kind == FaultKind::kIoError ||
                              site->kind == FaultKind::kEintr));
        if (must_succeed) {
          if (!extract.ok()) {
            Find(&report, seed, site->name, "ingest",
                 "recoverable read fault surfaced as an error: " +
                     extract.status().ToString());
          } else if (!SameExtract(extract.value(), base_extract.value())) {
            Find(&report, seed, site->name, "ingest",
                 "extraction diverged after a recoverable read fault");
          }
        } else if (extract.ok()) {
          if (!SameExtract(extract.value(), base_extract.value())) {
            Find(&report, seed, site->name, "ingest",
                 "extraction diverged under a persistent fault");
          }
        } else if (extract.status().code() != ExpectedCode(site->kind)) {
          Find(&report, seed, site->name, "ingest",
               "persistent fault surfaced with the wrong code: " +
                   extract.status().ToString());
        }
      }
      std::remove(csv_path.c_str());
    }

    DEPMINER_PROGRESS_TICK(1);
    if (options.log_every != 0 && (i + 1) % options.log_every == 0) {
      Log(LogLevel::kInfo, "faultsweep",
          "fault-sweep: " + std::to_string(i + 1) + "/" +
              std::to_string(options.iterations) + " seeds, " +
              std::to_string(report.runs) + " runs, " +
              std::to_string(report.faults_fired) + " fired, " +
              std::to_string(report.findings.size()) + " findings",
          {LogNum("seeds", static_cast<uint64_t>(i + 1)),
           LogNum("of", static_cast<uint64_t>(options.iterations)),
           LogNum("runs", static_cast<uint64_t>(report.runs)),
           LogNum("fired", static_cast<uint64_t>(report.faults_fired)),
           LogNum("findings",
                  static_cast<uint64_t>(report.findings.size()))});
    }
  }
  return report;
}

}  // namespace depminer
