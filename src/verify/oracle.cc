#include "verify/oracle.h"

#include <functional>

#include "common/run_context.h"
#include "core/armstrong.h"
#include "core/dep_miner.h"
#include "fd/fd_diff.h"
#include "fd/naive_discovery.h"
#include "fd/satisfaction.h"

namespace depminer {

const char* ToString(CheckKind kind) {
  switch (kind) {
    case CheckKind::kMinerError: return "miner-error";
    case CheckKind::kMinerDivergence: return "miner-divergence";
    case CheckKind::kNondeterministic: return "nondeterministic";
    case CheckKind::kUnsoundFd: return "unsound-fd";
    case CheckKind::kTrivialFd: return "trivial-fd";
    case CheckKind::kNotLeftReduced: return "not-left-reduced";
    case CheckKind::kMissedFd: return "missed-fd";
    case CheckKind::kDegradedRun: return "degraded-run";
    case CheckKind::kArmstrongError: return "armstrong-error";
    case CheckKind::kArmstrongSize: return "armstrong-size";
    case CheckKind::kArmstrongRejected: return "armstrong-rejected";
    case CheckKind::kArmstrongDiverged: return "armstrong-diverged";
    case CheckKind::kArityDivergence: return "arity-divergence";
    case CheckKind::kAfdDivergence: return "afd-divergence";
  }
  return "unknown";
}

std::string Divergence::ToString() const {
  std::string out = depminer::ToString(kind);
  if (!miner.empty()) out += " [" + miner + "]";
  out += ": " + detail;
  return out;
}

std::string OracleReport::ToString() const {
  if (divergences.empty()) return "ok";
  std::string out;
  for (const Divergence& d : divergences) {
    if (!out.empty()) out += "\n";
    out += d.ToString();
  }
  return out;
}

namespace {


void Report(OracleReport* report, CheckKind kind, std::string miner,
            std::string detail) {
  report->divergences.push_back(
      {kind, std::move(miner), std::move(detail)});
}

/// The three deterministic governance trips. Each arms exactly one limit
/// and trips it *before* the run starts, so every lane of every miner
/// observes the trip at its first poll — the configuration whose output
/// the library guarantees to be thread-count-independent.
enum class Trip { kCancelled, kDeadline, kBudget };

const char* TripName(Trip t) {
  switch (t) {
    case Trip::kCancelled: return "cancelled";
    case Trip::kDeadline: return "deadline";
    case Trip::kBudget: return "budget";
  }
  return "?";
}

StatusCode TripCode(Trip t) {
  switch (t) {
    case Trip::kCancelled: return StatusCode::kCancelled;
    case Trip::kDeadline: return StatusCode::kDeadlineExceeded;
    case Trip::kBudget: return StatusCode::kCapacityExceeded;
  }
  return StatusCode::kOk;
}

void ArmTripped(RunContext* ctx, Trip t) {
  switch (t) {
    case Trip::kCancelled:
      ctx->RequestCancel();
      break;
    case Trip::kDeadline:
      ctx->SetDeadline(RunContext::Clock::now() -
                       std::chrono::milliseconds(1));
      break;
    case Trip::kBudget:
      ctx->SetMemoryBudget(1);
      ctx->ChargeBytes(4096);
      break;
  }
}

/// Checks one governed run for coherent degradation and records the
/// output (when one was produced) for cross-thread comparison.
void CheckDegradedOutcome(const Relation& relation,
                          const Result<MineOutcome>& mined, Trip trip,
                          const std::string& label, OracleReport* report) {
  if (!mined.ok()) {
    // Acceptable: a pre-tripped context surfaced as the entry check's
    // error status — but it must carry the trip's code.
    if (mined.status().code() != TripCode(trip)) {
      Report(report, CheckKind::kDegradedRun, label,
             std::string("pre-tripped (") + TripName(trip) +
                 ") run failed with the wrong code: " +
                 mined.status().ToString());
    }
    return;
  }
  const MineOutcome& out = mined.value();
  if (out.complete) {
    // Also acceptable: the run finished before its first poll (tiny
    // inputs). The full-result equivalence is covered by the ungoverned
    // differential pass; nothing more to check here.
    return;
  }
  if (out.run_status.code() != TripCode(trip)) {
    Report(report, CheckKind::kDegradedRun, label,
           std::string("incomplete run under ") + TripName(trip) +
               " carries the wrong status: " + out.run_status.ToString());
  }
  // Soundness of graceful degradation: partial covers must never invent
  // dependencies — every emitted FD is final and must hold.
  for (const FunctionalDependency& fd : out.fds.fds()) {
    if (!Holds(relation, fd)) {
      Report(report, CheckKind::kDegradedRun, label,
             "partial result under " + std::string(TripName(trip)) +
                 " emits an FD that does not hold: " +
                 fd.ToString(relation.schema()));
    }
  }
}

}  // namespace

std::string MinerLabel(const MinerSpec& miner, size_t threads) {
  if (!miner.threaded) return miner.name;
  return std::string(miner.name) + "/" + std::to_string(threads) + "t";
}

void CheckCoverAgainstRelation(const Relation& relation, const FdSet& cover,
                               const std::string& miner_label,
                               bool check_completeness,
                               OracleReport* report) {
  const Schema& schema = relation.schema();
  for (const FunctionalDependency& fd : cover.fds()) {
    if (fd.IsTrivial()) {
      Report(report, CheckKind::kTrivialFd, miner_label,
             fd.ToString(schema));
      continue;
    }
    if (!Holds(relation, fd)) {
      Report(report, CheckKind::kUnsoundFd, miner_label,
             fd.ToString(schema) + " does not hold");
      continue;
    }
    if (!IsMinimalFd(relation, fd)) {
      Report(report, CheckKind::kNotLeftReduced, miner_label,
             fd.ToString(schema) + " has an extraneous lhs attribute");
    }
  }
  if (check_completeness) {
    // The quadratic/exponential definition: everything the exhaustive
    // oracle finds must be implied by the cover. (The spurious direction
    // is covered by the Holds check above.)
    const FdSet reference = NaiveFdDiscovery(relation);
    for (const FunctionalDependency& fd : reference.fds()) {
      if (!cover.Implies(fd)) {
        Report(report, CheckKind::kMissedFd, miner_label,
               "minimal FD " + fd.ToString(schema) +
                   " holds but is not implied by the cover");
      }
    }
  }
}

OracleReport RunDifferentialOracle(const Relation& relation,
                                   const OracleOptions& options) {
  OracleReport report;
  const Schema& schema = relation.schema();
  const std::vector<MinerSpec> miners = Miners();
  std::vector<size_t> threads = options.thread_counts;
  if (threads.empty()) threads.push_back(1);

  // Phase 1: ungoverned runs — per-miner determinism across thread
  // counts, then cross-miner implication equivalence of the canonical
  // minimal covers.
  bool have_reference = false;
  FdSet reference_cover;        // canonical minimal cover of the reference
  std::string reference_label;
  // Per-miner ungoverned outputs, kept for the pruning cross-checks of
  // phase 4 (capped-vs-filtered and forced-ε=0 runs diff against them).
  std::vector<FdSet> exact_outputs(miners.size());
  std::vector<char> have_exact(miners.size(), 0);
  for (size_t m = 0; m < miners.size(); ++m) {
    const MinerSpec& miner = miners[m];
    bool have_first = false;
    FdSet first_output;
    std::string first_label;
    const size_t count = miner.threaded ? threads.size() : 1;
    for (size_t i = 0; i < count; ++i) {
      const size_t t = miner.threaded ? threads[i] : 1;
      const std::string label = MinerLabel(miner, t);
      Result<MineOutcome> mined =
          MineByName(relation, miner.name, {t, nullptr, {}});
      ++report.miner_runs;
      if (!mined.ok()) {
        Report(&report, CheckKind::kMinerError, label,
               mined.status().ToString());
        continue;
      }
      const MineOutcome& out = mined.value();
      if (!out.complete) {
        Report(&report, CheckKind::kMinerError, label,
               "ungoverned run reported itself incomplete: " +
                   out.run_status.ToString());
        continue;
      }
      if (!have_first) {
        have_first = true;
        first_output = out.fds;
        first_label = label;
        // The library's stronger guarantee: one miner's output is
        // bit-identical at any thread count.
      } else if (!(out.fds.fds() == first_output.fds())) {
        Report(&report, CheckKind::kNondeterministic, label,
               "output differs from " + first_label + ": [" +
                   out.fds.ToString() + "] vs [" +
                   first_output.ToString() + "]");
        continue;
      }
      if (i == 0) {
        exact_outputs[m] = out.fds;
        have_exact[m] = 1;
        const FdSet canonical = out.fds.MinimalCover();
        if (!have_reference) {
          have_reference = true;
          reference_cover = canonical;
          reference_label = label;
          CheckCoverAgainstRelation(
              relation, out.fds, label,
              options.check_reference_oracle &&
                  relation.num_attributes() <=
                      options.reference_max_attributes &&
                  relation.num_tuples() <= options.reference_max_tuples,
              &report);
        } else {
          const FdSetDiff diff = DiffFdSets(reference_cover, canonical);
          if (!diff.Equivalent()) {
            Report(&report, CheckKind::kMinerDivergence, label,
                   "cover is not equivalent to " + reference_label +
                       "'s:\n" + diff.ToString(schema));
          }
          // Equivalence alone would let a non-minimal-but-equivalent
          // cover slip through; hold every miner to the same semantic
          // contract (completeness is already pinned by the reference).
          CheckCoverAgainstRelation(relation, out.fds, label,
                                    /*check_completeness=*/false, &report);
        }
      }
    }
  }

  // Phase 2: coherent degradation under deterministically pre-tripped
  // contexts, including thread-count independence of partial output.
  if (options.check_tripped_contexts) {
    for (const Trip trip : {Trip::kCancelled, Trip::kDeadline,
                            Trip::kBudget}) {
      for (const MinerSpec& miner : miners) {
        bool have_first = false;
        FdSet first_output;
        std::string first_label;
        const size_t count = miner.threaded ? threads.size() : 1;
        for (size_t i = 0; i < count; ++i) {
          const size_t t = miner.threaded ? threads[i] : 1;
          const std::string label =
              MinerLabel(miner, t) + "+" + TripName(trip);
          RunContext ctx;
          ArmTripped(&ctx, trip);
          Result<MineOutcome> mined =
              MineByName(relation, miner.name, {t, &ctx, {}});
          ++report.miner_runs;
          CheckDegradedOutcome(relation, mined, trip, label, &report);
          if (!mined.ok()) continue;
          const FdSet& fds = mined.value().fds;
          if (!have_first) {
            have_first = true;
            first_output = fds;
            first_label = label;
          } else if (!(fds.fds() == first_output.fds())) {
            Report(&report, CheckKind::kNondeterministic, label,
                   "partial output under " + std::string(TripName(trip)) +
                       " differs from " + first_label);
          }
        }
      }
    }
  }

  // Phase 3: the Armstrong round-trip (paper Definition 1, Proposition
  // 1): dep(r̄) ≡ dep(r), |r̄| = |MAX(dep(r))| + 1, IsArmstrongFor agrees.
  if (options.check_armstrong && have_reference) {
    DepMinerOptions mine_options;
    mine_options.build_armstrong = true;
    Result<DepMinerResult> mined = MineDependencies(relation, mine_options);
    if (!mined.ok()) {
      Report(&report, CheckKind::kArmstrongError, "depminer",
             mined.status().ToString());
      return report;
    }
    const std::vector<AttributeSet>& max_sets = mined.value().all_max_sets;

    auto check_construction = [&](const Relation& armstrong,
                                  const std::string& which) {
      if (armstrong.num_tuples() != max_sets.size() + 1) {
        Report(&report, CheckKind::kArmstrongSize, which,
               "|r̄| = " + std::to_string(armstrong.num_tuples()) +
                   ", expected |MAX|+1 = " +
                   std::to_string(max_sets.size() + 1));
      }
      if (!IsArmstrongFor(armstrong, max_sets)) {
        Report(&report, CheckKind::kArmstrongRejected, which,
               "GEN(F) ⊆ ag(r̄) ⊆ CL(F) does not hold");
      }
      DepMinerOptions remine;
      remine.build_armstrong = false;
      Result<DepMinerResult> round = MineDependencies(armstrong, remine);
      if (!round.ok()) {
        Report(&report, CheckKind::kArmstrongError, which,
               "re-mining failed: " + round.status().ToString());
        return;
      }
      const FdSetDiff diff =
          DiffFdSets(reference_cover, round.value().fds.MinimalCover());
      if (!diff.Equivalent()) {
        Report(&report, CheckKind::kArmstrongDiverged, which,
               "dep(r̄) ≢ dep(r):\n" + diff.ToString(schema));
      }
    };

    Result<Relation> synthetic =
        BuildSyntheticArmstrong(schema, max_sets);
    if (!synthetic.ok()) {
      Report(&report, CheckKind::kArmstrongError, "synthetic",
             synthetic.status().ToString());
    } else {
      check_construction(synthetic.value(), "synthetic");
    }

    if (mined.value().armstrong.has_value()) {
      check_construction(*mined.value().armstrong, "real-world");
    } else {
      // Absence is only legitimate when Proposition 1 genuinely fails.
      if (mined.value().armstrong_status.code() !=
          StatusCode::kFailedPrecondition) {
        Report(&report, CheckKind::kArmstrongError, "real-world",
               "construction missing for a non-Proposition-1 reason: " +
                   mined.value().armstrong_status.ToString());
      } else if (RealWorldArmstrongExists(relation, max_sets).ok()) {
        Report(&report, CheckKind::kArmstrongError, "real-world",
               "Proposition 1 holds but the construction was refused: " +
                   mined.value().armstrong_status.ToString());
      }
    }
  }

  // Phase 4: pruning cross-checks against each miner's own ungoverned
  // output. (a) An arity-capped run must be bit-identical to that output
  // filtered to |lhs| ≤ k — the cap prunes candidates before generation
  // but provably never changes what survives. (b) A run with the g₃
  // validation path forced at ε = 0 must be implication-equivalent to
  // the exact cover (TANE takes the real approximate path; the other
  // miners ignore the flag).
  if (options.check_pruning) {
    for (size_t m = 0; m < miners.size(); ++m) {
      if (!have_exact[m]) continue;
      const MinerSpec& miner = miners[m];
      const FdSet& exact = exact_outputs[m];
      const size_t t = miner.threaded ? threads[0] : 1;
      const std::string label = MinerLabel(miner, t);

      MiningOptions capped;
      capped.max_lhs_arity = options.arity_cap;
      Result<MineOutcome> capped_out =
          MineByName(relation, miner.name, {t, nullptr, capped});
      ++report.miner_runs;
      if (!capped_out.ok() || !capped_out.value().complete) {
        Report(&report, CheckKind::kArityDivergence, label,
               "arity-capped run failed: " +
                   (capped_out.ok() ? capped_out.value().run_status
                                    : capped_out.status())
                       .ToString());
      } else {
        std::vector<FunctionalDependency> filtered;
        for (const FunctionalDependency& fd : exact.fds()) {
          if (fd.lhs.Count() <= options.arity_cap) filtered.push_back(fd);
        }
        const FdSet expected(exact.num_attributes(), std::move(filtered));
        if (!(capped_out.value().fds.fds() == expected.fds())) {
          Report(&report, CheckKind::kArityDivergence, label,
                 "capped (k=" + std::to_string(options.arity_cap) +
                     ") output [" + capped_out.value().fds.ToString() +
                     "] != filtered unbounded cover [" +
                     expected.ToString() + "]");
        }
      }

      MiningOptions forced;
      forced.force_error_validation = true;
      Result<MineOutcome> afd_out =
          MineByName(relation, miner.name, {t, nullptr, forced});
      ++report.miner_runs;
      if (!afd_out.ok() || !afd_out.value().complete) {
        Report(&report, CheckKind::kAfdDivergence, label,
               "forced ε=0 run failed: " +
                   (afd_out.ok() ? afd_out.value().run_status
                                 : afd_out.status())
                       .ToString());
      } else {
        const FdSetDiff diff = DiffFdSets(exact.MinimalCover(),
                                          afd_out.value().fds.MinimalCover());
        if (!diff.Equivalent()) {
          Report(&report, CheckKind::kAfdDivergence, label,
                 "ε=0 approximate cover is not equivalent to the exact "
                 "one:\n" +
                     diff.ToString(schema));
        }
      }
    }
  }

  return report;
}

}  // namespace depminer
