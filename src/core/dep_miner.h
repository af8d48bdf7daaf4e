#pragma once

#include <optional>
#include <vector>

#include "common/mining_options.h"
#include "common/run_context.h"
#include "common/status.h"
#include "core/agree_sets.h"
#include "core/lhs.h"
#include "core/max_sets.h"
#include "fd/fd_set.h"
#include "relation/relation.h"

namespace depminer {

/// Configuration of a Dep-Miner run.
struct DepMinerOptions {
  /// Which agree-set computation to use. kCouples is the evaluation's
  /// "Dep-Miner", kIdentifiers its "Dep-Miner 2".
  AgreeSetAlgorithm agree_set_algorithm = AgreeSetAlgorithm::kCouples;
  /// Memory threshold for kCouples (0 = unlimited); see AgreeSetOptions.
  size_t max_couples_per_chunk = 0;
  /// Also build the real-world Armstrong relation (paper: "without
  /// additional execution time" — it is a few tuples assembled from the
  /// already-computed maximal sets).
  bool build_armstrong = true;
  /// Pool lanes for the parallel pipeline stages: stripped-partition
  /// extraction, couple enumeration, the agree-set scans of Algorithms
  /// 2 and 3, and the per-attribute transversal searches. 1 = serial;
  /// DefaultThreadCount() for all cores. Output is bit-identical for
  /// any value.
  size_t num_threads = 1;
  /// Optional resource governance (deadline, cancellation, memory
  /// budget). Checked at chunk/level granularity by every pipeline stage;
  /// when it trips, `MineDependencies` returns a *value* with
  /// `DepMinerResult::complete == false`, the tripping status in
  /// `run_status`, and every artifact completed so far intact.
  RunContext* run_context = nullptr;
  /// Cross-miner search-space pruning knobs. `max_lhs_arity` caps the
  /// per-attribute transversal search (lhs families are then the
  /// unbounded ones filtered to |X| ≤ k). `max_g3_error > 0` is
  /// rejected — approximate discovery is TANE-only. With an arity cap
  /// the Armstrong relation is not built (the capped cover no longer
  /// determines MAX(dep(r))).
  MiningOptions mining;
};

/// Per-phase wall-clock timings and size statistics of a run, mirroring
/// the pipeline of Figure 1. Total() is the end-to-end discovery time the
/// paper's tables report.
struct DepMinerStats {
  double strip_seconds = 0;      ///< stripped partition database extraction
  double agree_seconds = 0;      ///< AGREE_SET / AGREE_SET 2
  double max_seconds = 0;        ///< CMAX_SET
  double lhs_seconds = 0;        ///< LEFT_HAND_SIDE
  double armstrong_seconds = 0;  ///< ARMSTRONG_RELATION

  size_t num_couples = 0;
  size_t num_agree_sets = 0;  ///< distinct, excluding ∅
  size_t num_max_sets = 0;    ///< |MAX(dep(r))|
  size_t num_fds = 0;
  size_t chunks = 0;
  /// Working-set estimate of the agree-set phase (couple list or ec
  /// lists) — the memory counterpart of TANE's peak_partition_bytes.
  size_t agree_working_bytes = 0;

  double Total() const {
    return strip_seconds + agree_seconds + max_seconds + lhs_seconds +
           armstrong_seconds;
  }
};

/// Result of a Dep-Miner run: every artifact of the paper's Figure 1
/// pipeline.
struct DepMinerResult {
  FdSet fds;                      ///< minimal non-trivial FDs (a cover)
  AgreeSetResult agree_sets;
  MaxSetResult max_sets;
  LhsResult lhs;
  std::vector<AttributeSet> all_max_sets;  ///< MAX(dep(r)), deduplicated
  /// Real-world Armstrong relation, when requested and it exists
  /// (Proposition 1); `armstrong_status` explains absence otherwise.
  std::optional<Relation> armstrong;
  Status armstrong_status;
  DepMinerStats stats;
  /// Graceful degradation under a `RunContext`: false when the run was
  /// interrupted (deadline / cancellation / memory budget). `run_status`
  /// then carries the tripping status (`kDeadlineExceeded`, `kCancelled`
  /// or `kCapacityExceeded`), `stats` covers the phases that ran, and the
  /// artifacts hold everything completed before the trip — in particular
  /// `fds` keeps the per-attribute lhs families whose transversal search
  /// finished (see `LhsResult::attribute_complete`). Always true when no
  /// context (or an unarmed one) governs the run.
  bool complete = true;
  Status run_status;
};

/// Algorithm 1: the combined discovery of minimal FDs and a real-world
/// Armstrong relation.
///
///   Result<DepMinerResult> out = MineDependencies(relation);
///   for (const FunctionalDependency& fd : out.value().fds.fds()) ...
Result<DepMinerResult> MineDependencies(const Relation& relation,
                                        const DepMinerOptions& options = {});

/// Variant starting from an already-extracted stripped partition database
/// (the preprocessing the paper treats as given). `relation` is still
/// needed if `build_armstrong` is set, to harvest real-world values; pass
/// nullptr otherwise.
Result<DepMinerResult> MineDependencies(const StrippedPartitionDatabase& db,
                                        const Relation* relation,
                                        const DepMinerOptions& options = {});

}  // namespace depminer
