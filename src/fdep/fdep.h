#pragma once

#include "common/mining_options.h"
#include "common/run_context.h"
#include "common/status.h"
#include "fd/fd_set.h"
#include "relation/relation.h"

namespace depminer {

/// Options for an FDEP run.
struct FdepOptions {
  /// Search-space pruning knobs. `max_lhs_arity` drops contradicted
  /// size-k hypotheses instead of specializing them (their replacements
  /// would all exceed k); the output equals the unbounded cover filtered
  /// to |X| ≤ k. `max_g3_error > 0` is rejected (TANE-only).
  MiningOptions mining;
  /// Optional resource governance; see FdepDiscover.
  RunContext* run_context = nullptr;
};

/// Statistics of an FDEP run.
struct FdepStats {
  size_t negative_cover_size = 0;  ///< maximal invalid FD lhs, over all rhs
  size_t specializations = 0;      ///< candidate replacements explored
  /// Specializations the arity cap kept from being generated.
  size_t candidates_pruned = 0;
};

/// Result of an FDEP run.
struct FdepResult {
  FdSet fds;
  FdepStats stats;
  /// False when a governing RunContext tripped mid-run; `fds` then holds
  /// the positive covers of the attributes finished before the trip and
  /// `run_status` the cause.
  bool complete = true;
  Status run_status;
};

/// FDEP — bottom-up induction of functional dependencies (Savnik & Flach
/// [SF93], cited in the paper's related work), third baseline.
///
/// FDEP first builds the *negative cover*: for every pair of tuples, the
/// agree set X invalidates X → A for each A outside X; the maximal
/// invalid left-hand sides per attribute are exactly Dep-Miner's maximal
/// sets. The positive cover is then computed by specialization: starting
/// from the most general hypothesis ∅ → A, every hypothesis contradicted
/// by an invalid lhs is replaced by its minimal specializations (add one
/// attribute outside the contradicting set), keeping only the minimal
/// surviving hypotheses.
///
/// Produces the same minimal cover as Dep-Miner, TANE and FastFDs
/// (asserted by tests).
///
/// `ctx` (optional) governs the run: it is threaded into the pairwise
/// negative-cover scan and checked per attribute and per maximal invalid
/// lhs during specialization.
Result<FdepResult> FdepDiscover(const Relation& relation,
                                RunContext* ctx = nullptr);

/// Variant with pruning knobs (see FdepOptions).
Result<FdepResult> FdepDiscover(const Relation& relation,
                                const FdepOptions& options);

}  // namespace depminer
