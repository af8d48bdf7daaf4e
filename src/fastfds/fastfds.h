#pragma once

#include "common/mining_options.h"
#include "common/run_context.h"
#include "common/status.h"
#include "fd/fd_set.h"
#include "relation/relation.h"

namespace depminer {

/// Options for a FastFDs run.
struct FastFdsOptions {
  /// Search-space pruning knobs. `max_lhs_arity` stops the cover DFS
  /// from branching past depth k, so covers larger than k are pruned
  /// before their subtrees are visited; the output equals the unbounded
  /// cover filtered to |X| ≤ k. `max_g3_error > 0` is rejected
  /// (TANE-only).
  MiningOptions mining;
  /// Optional resource governance; see FastFdsDiscover.
  RunContext* run_context = nullptr;
};

/// Statistics of a FastFDs run.
struct FastFdsStats {
  size_t difference_sets = 0;  ///< distinct difference sets of r
  size_t search_nodes = 0;     ///< DFS nodes visited over all attributes
  /// DFS branches the arity cap kept from being visited.
  size_t candidates_pruned = 0;
};

/// Result of a FastFDs run.
struct FastFdsResult {
  FdSet fds;
  FastFdsStats stats;
  /// False when a governing RunContext tripped mid-search; `fds` then
  /// holds the covers emitted before the trip and `run_status` the cause.
  bool complete = true;
  Status run_status;
};

/// FastFDs (Wyss, Giannella, Robertson; DaWaK 2001) — the follow-up to
/// Dep-Miner, implemented here as a second independent baseline.
///
/// It shares Dep-Miner's front end (agree sets from stripped partitions)
/// but works with *difference sets* D(r) = {R \ X : X ∈ ag(r)} and finds
/// the minimal left-hand sides per attribute as minimal covers of
/// D_A = Min⊆{D \ {A} : D ∈ D(r), A ∈ D} by a depth-first search with a
/// greedy coverage ordering, instead of the levelwise transversal search
/// of Algorithm 5. The output is the identical minimal FD cover
/// (asserted by tests).
///
/// `ctx` (optional) governs the run: it is threaded into the agree-set
/// front end and checked every ~1024 DFS nodes of the cover search.
Result<FastFdsResult> FastFdsDiscover(const Relation& relation,
                                      RunContext* ctx = nullptr);

/// Variant with pruning knobs (see FastFdsOptions).
Result<FastFdsResult> FastFdsDiscover(const Relation& relation,
                                      const FastFdsOptions& options);

}  // namespace depminer
