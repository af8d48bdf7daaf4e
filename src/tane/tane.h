#pragma once

#include "common/mining_options.h"
#include "common/run_context.h"
#include "common/status.h"
#include "fd/fd_set.h"
#include "partition/partition_database.h"
#include "relation/relation.h"

namespace depminer {

/// Options for a TANE run.
struct TaneOptions {
  /// Ablation switch: disable superkey pruning (the PRUNE procedure of
  /// [HKPT98]). Keys stay in the lattice and are expanded; minimal FDs
  /// with superkey left-hand sides are found through the ordinary
  /// dependency test instead of the key-pruning rule. Results are
  /// identical; cost grows.
  bool enable_key_pruning = true;
  /// Pool lanes for the partition products of each lattice level (the
  /// dominant cost; candidates within one level are independent).
  /// 1 = serial. Output is identical for any value.
  size_t num_threads = 1;
  /// Optional resource governance: checked once per lattice level and
  /// once per partition product (the per-level dominant cost); the live
  /// two-level partition footprint is charged against its memory budget.
  RunContext* run_context = nullptr;
  /// Search-space pruning knobs. `max_g3_error > 0` discovers TANE's
  /// approximate dependencies; 0 discovers exact ones. `max_lhs_arity`
  /// caps lattice depth: level k+1 is still tested (its FDs have lhs
  /// size k) but level k+2 is pruned before generation, so the output
  /// equals the unbounded cover filtered to |X| ≤ k (asserted by the
  /// fuzz oracle).
  MiningOptions mining;
  /// Optional memoized π̂_X store shared across runs and with the top-k
  /// ranking: level products consult it before computing and offer their
  /// results back. Its base database must be built from the same
  /// relation (and outlive the run). nullptr = every product computed
  /// in place, exactly as without a cache.
  PartitionCache* partition_cache = nullptr;
};

/// Statistics of a TANE run, for the bench harness.
struct TaneStats {
  size_t levels = 0;
  size_t candidates_generated = 0;  ///< lattice nodes across all levels
  /// Lattice joins the arity cap kept from being generated (the prefix-
  /// block pairs of the last admitted level).
  size_t candidates_pruned = 0;
  size_t partition_products = 0;
  /// High-water estimate of partition storage: the largest total size (in
  /// bytes, 4 per stored TupleId) of the stripped partitions of two
  /// consecutive live levels. This is TANE's dominant memory cost and the
  /// quantity that made the paper's 256 MB machine fail its TANE runs at
  /// 100k tuples ('*' entries); Dep-Miner's analogue is the couple list.
  size_t peak_partition_bytes = 0;
};

/// Result of a TANE run.
struct TaneResult {
  FdSet fds;  ///< minimal non-trivial (approximate) FDs
  TaneStats stats;
  /// False when a governing RunContext tripped mid-search; `fds` then
  /// holds the (minimal, but possibly not exhaustive) FDs validated on
  /// the levels completed before the trip, and `run_status` the cause.
  bool complete = true;
  Status run_status;
};

/// The TANE algorithm of Huhtala, Kärkkäinen, Porkka and Toivonen
/// [HKPT98], the comparison baseline of the paper's evaluation (§5.1) —
/// re-implemented, as the authors did, from its published description.
///
/// TANE searches the lattice of attribute sets levelwise, testing each
/// X\{A} → A with the partition criterion e(X\{A}) = e(X), and prunes with
/// the rhs⁺ candidate sets C⁺(X) and with superkey pruning. Partitions of
/// level l are products of two level l−1 partitions, computed in linear
/// time.
///
/// For `max_g3_error == 0` the output is a cover of dep(r) identical to
/// Dep-Miner's FD set (asserted by tests).
Result<TaneResult> TaneDiscover(const Relation& relation,
                                const TaneOptions& options = {});

}  // namespace depminer
