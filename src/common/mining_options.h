#pragma once

#include <cstddef>

#include "common/status.h"

namespace depminer {

/// The cross-miner search-space pruning knobs, embedded by every miner's
/// option struct (`DepMinerOptions::mining`, `TaneOptions::mining`,
/// `FastFdsOptions::mining`, `FdepOptions::mining`) and surfaced by
/// `fdtool mine` as `--arity`, `--error` and `--topk`. See
/// docs/PERFORMANCE.md ("Search-space pruning") for what each knob skips
/// and the equivalence guarantees the verification harness enforces.
struct MiningOptions {
  /// Maximum left-hand-side arity k; 0 (default) = unbounded. A capped
  /// run prunes candidates *before* they are generated — TANE stops
  /// growing its lattice past level k+1, the transversal searches stop at
  /// level k, FastFDs stops branching at DFS depth k, FDEP drops
  /// contradicted size-k hypotheses instead of specializing them — and
  /// its output is exactly the unbounded minimal cover filtered to
  /// |lhs| ≤ k (asserted by the differential oracle).
  size_t max_lhs_arity = 0;
  /// Maximum g₃ error ε ∈ [0, 1) for an FD to be reported; 0 (default)
  /// discovers exact dependencies. Only TANE implements the approximate
  /// path (key-error pruning over stripped partitions); the other miners
  /// reject a positive threshold. At ε = 0 the approximate path is
  /// provably equal to the exact output.
  double max_g3_error = 0.0;
  /// Keep only the N most valuable FDs of the emitted cover, ranked by
  /// redundancy (see fd/ranking.h); 0 (default) = all. Ranking is a
  /// post-pass over the final cover — it never changes which FDs are
  /// *discovered*, only which are reported.
  size_t top_k = 0;
  /// Test-only: take the approximate-FD validation path even when
  /// `max_g3_error` is 0. For TANE this forces the g₃ computation whose
  /// ε=0 verdict must coincide with the exact partition-error comparison
  /// (the equivalence the oracle's AFD cross-check pins down); miners
  /// without an approximate path ignore it.
  bool force_error_validation = false;

  /// Unbounded-arity check: true when no cap is set or `count` fits it.
  bool WithinArity(size_t count) const {
    return max_lhs_arity == 0 || count <= max_lhs_arity;
  }

  /// Validates the knob ranges (`max_g3_error` ∈ [0, 1)); `fdtool`
  /// additionally rejects `--arity=0` and `--topk=0` at parse time, where
  /// "explicitly zero" is distinguishable from "not given".
  Status Validate() const;
};

}  // namespace depminer
