#include "core/dep_miner.h"

#include "common/progress.h"
#include "common/trace.h"
#include "core/armstrong.h"

namespace depminer {

namespace {

/// Marks `out` interrupted with the stage's tripping status and returns
/// it as a *value*: the phases that completed keep their artifacts and
/// timings (graceful degradation), the caller inspects `complete`.
DepMinerResult Interrupted(DepMinerResult&& out, Status cause) {
  out.complete = false;
  out.run_status = std::move(cause);
  return std::move(out);
}

}  // namespace

Result<DepMinerResult> MineDependencies(const Relation& relation,
                                        const DepMinerOptions& options) {
  DEPMINER_CHECK_RUN(options.run_context);
  double strip_seconds = 0;
  std::optional<StrippedPartitionDatabase> db;
  {
    PhaseTimer strip_timer("phase/strip", &strip_seconds);
    DEPMINER_PROGRESS_PHASE("strip", "attributes", relation.num_attributes());
    db = StrippedPartitionDatabase::FromRelation(relation,
                                                 options.num_threads);
    DEPMINER_PROGRESS_TICK(relation.num_attributes());
  }

  Result<DepMinerResult> result = MineDependencies(*db, &relation, options);
  if (result.ok()) result.value().stats.strip_seconds += strip_seconds;
  return result;
}

Result<DepMinerResult> MineDependencies(const StrippedPartitionDatabase& db,
                                        const Relation* relation,
                                        const DepMinerOptions& options) {
  if (db.num_attributes() == 0) {
    return Status::InvalidArgument("relation has no attributes");
  }
  if (db.num_attributes() > AttributeSet::kMaxAttributes) {
    return Status::CapacityExceeded("too many attributes");
  }
  Status mining_status = options.mining.Validate();
  if (!mining_status.ok()) return mining_status;
  if (options.mining.max_g3_error > 0.0) {
    return Status::InvalidArgument(
        "approximate (g3-thresholded) discovery is TANE-only");
  }

  RunContext* ctx = options.run_context;
  DepMinerResult out;

  // Step 1 (Algorithm 1, line 1): AGREE_SET. Each phase is timed by a
  // span-owned PhaseTimer that *accumulates* into its stat when the
  // block closes — a phase re-entered (retry after a tripped context on
  // the same result) sums its attempts instead of overwriting them, the
  // double-counting hazard the old restarted Stopwatch had.
  {
    PhaseTimer agree_timer("phase/agree", &out.stats.agree_seconds);
    // The couples/identifiers engines re-declare the phase with the real
    // couple total once they have enumerated it.
    DEPMINER_PROGRESS_PHASE("agree", "couples", 0);
    switch (options.agree_set_algorithm) {
      case AgreeSetAlgorithm::kNaive: {
        if (relation == nullptr) {
          return Status::InvalidArgument(
              "naive agree-set computation needs the relation");
        }
        out.agree_sets = ComputeAgreeSetsNaive(*relation, ctx);
        break;
      }
      case AgreeSetAlgorithm::kCouples: {
        AgreeSetOptions agree_options;
        agree_options.max_couples_per_chunk = options.max_couples_per_chunk;
        agree_options.num_threads = options.num_threads;
        agree_options.run_context = ctx;
        out.agree_sets = ComputeAgreeSetsCouples(db, agree_options);
        break;
      }
      case AgreeSetAlgorithm::kIdentifiers: {
        AgreeSetOptions agree_options;
        agree_options.num_threads = options.num_threads;
        agree_options.run_context = ctx;
        out.agree_sets = ComputeAgreeSetsIdentifiers(db, agree_options);
        break;
      }
    }
  }
  out.stats.num_couples = out.agree_sets.couples_examined;
  out.stats.num_agree_sets = out.agree_sets.sets.size();
  out.stats.chunks = out.agree_sets.chunks_processed;
  out.stats.agree_working_bytes = out.agree_sets.working_bytes;
  if (!out.agree_sets.status.ok()) {
    // A partial ag(r) would make every downstream artifact silently
    // wrong (missing agree sets inflate the FD cover), so the pipeline
    // stops here; only the stats describe the interrupted phase.
    return Interrupted(std::move(out), out.agree_sets.status);
  }

  // Step 2 (line 2): CMAX_SET.
  {
    PhaseTimer max_timer("phase/cmax", &out.stats.max_seconds);
    DEPMINER_PROGRESS_PHASE("cmax", "attributes", db.num_attributes());
    out.max_sets = ComputeMaxSets(out.agree_sets, options.num_threads, ctx);
    out.all_max_sets = out.max_sets.AllMaxSets();
    DEPMINER_PROGRESS_TICK(db.num_attributes());
  }
  out.stats.num_max_sets = out.all_max_sets.size();
  if (!out.max_sets.status.ok()) {
    // Attributes skipped by an interrupted CMAX_SET have empty max/cmax
    // families, which the transversal phase would read as "∅ → A holds";
    // the result carries the trip because a budget verdict is only
    // observable while the stage's charge is held.
    return Interrupted(std::move(out), out.max_sets.status);
  }

  // Step 3 (line 3): LEFT_HAND_SIDE.
  {
    PhaseTimer lhs_timer("phase/lhs", &out.stats.lhs_seconds);
    // Transversal node count is unknown up front (total=0); the levelwise
    // search ticks per candidate level.
    DEPMINER_PROGRESS_PHASE("lhs", "nodes", 0);
    out.lhs = ComputeLhs(out.max_sets, options.num_threads, ctx,
                         options.mining.max_lhs_arity);
  }

  // Step 4 (line 4): FD_OUTPUT. On an interrupted lhs phase this keeps
  // the FDs of the attributes whose transversal search completed — they
  // are final, since attributes are independent.
  {
    PhaseTimer output_timer("phase/output", nullptr);
    out.fds = OutputFds(out.lhs);
  }
  out.stats.num_fds = out.fds.size();
  if (!out.lhs.status.ok()) {
    return Interrupted(std::move(out), out.lhs.status);
  }

  // Step 5 (line 5): ARMSTRONG_RELATION.
  if (options.build_armstrong && options.mining.max_lhs_arity != 0) {
    // A capped cover no longer determines MAX(dep(r)) — the Armstrong
    // construction would encode the wrong dependency set.
    out.armstrong_status = Status::InvalidArgument(
        "Armstrong construction is unavailable under an arity cap");
  } else if (options.build_armstrong) {
    if (relation == nullptr) {
      out.armstrong_status = Status::InvalidArgument(
          "real-world Armstrong construction needs the relation values");
    } else {
      PhaseTimer armstrong_timer("phase/armstrong",
                                 &out.stats.armstrong_seconds);
      DEPMINER_PROGRESS_PHASE("armstrong", "rows", 0);
      Result<Relation> armstrong =
          BuildRealWorldArmstrong(*relation, out.all_max_sets, ctx);
      armstrong_timer.Stop();
      if (armstrong.ok()) {
        out.armstrong = std::move(armstrong).value();
        out.armstrong_status = Status::OK();
      } else {
        out.armstrong_status = armstrong.status();
        const StatusCode code = armstrong.status().code();
        if (code == StatusCode::kDeadlineExceeded ||
            code == StatusCode::kCancelled) {
          return Interrupted(std::move(out), armstrong.status());
        }
      }
    }
  }

  return out;
}

}  // namespace depminer
