#pragma once

#include <vector>

#include "common/attribute_set.h"
#include "common/run_context.h"
#include "core/agree_sets.h"

namespace depminer {

/// Per-attribute maximal sets and their complements (paper Algorithm 4).
///
/// `max_sets[A]` is max(dep(r), A): the ⊆-maximal attribute sets that do
/// *not* determine A. By Lemma 3 these are the ⊆-maximal agree sets
/// avoiding A. The empty agree set participates when present — if no
/// non-empty agree set avoids A but some pair of tuples disagrees
/// everywhere, then ∅ is the largest set not determining A and
/// cmax(dep(r), A) = {R}.
///
/// `cmax_sets[A]` is cmax(dep(r), A) = {R \ X : X ∈ max(dep(r), A)}, a
/// simple hypergraph whose minimal transversals are lhs(dep(r), A).
struct MaxSetResult {
  size_t num_attributes = 0;
  std::vector<std::vector<AttributeSet>> max_sets;
  std::vector<std::vector<AttributeSet>> cmax_sets;

  /// High-water estimate (bytes) of the stage's dominant working
  /// structures: the shared sorted agree-set family, the dominance
  /// index postings and the per-lane query scratch bitmaps. Charged
  /// against the governing `RunContext` for the stage's duration.
  size_t working_bytes = 0;

  /// OK for a completed computation. When the governing `RunContext`
  /// trips (deadline, cancellation, memory budget) the tripping status
  /// is captured here *while the stage's memory charge is still held* —
  /// a memory-budget verdict is not observable from `ctx->Check()` once
  /// the stage has released its buffers, so callers must gate on this
  /// status, not on the context. Attributes not fully derived before the
  /// trip have empty families.
  Status status;

  /// MAX(dep(r)) = ⋃_A max(dep(r), A), deduplicated and sorted. This is
  /// the generator family GEN(dep(r)) used to build Armstrong relations.
  std::vector<AttributeSet> AllMaxSets() const;
};

/// Algorithm 4 (CMAX_SET). `agree` must describe the full ag(r),
/// including the ∅ flag.
///
/// One shared pass instead of n independent quadratic scans: the
/// agree-set family is sorted by descending cardinality once and indexed
/// by one global `DominanceIndex`, whatever its size (unlike
/// `MaximalSets`, this stage has no small-family scan; on the paper's
/// 25k × 15 point ag(r) holds ~105 sets, two bitmap words per probe).
/// Each attribute's max(dep(r), A) is then derived read-only against
/// that index (candidates = sets avoiding A, survivors = candidates with
/// no proper superset avoiding A), so the per-attribute derivations
/// parallelize across `num_threads` pool lanes with bit-identical output
/// for any thread count — every attribute's family is a pure function of
/// ag(r), finalized by the canonical `SortSets`.
///
/// `ctx` (optional) governs the run: the family, index and per-lane
/// scratch buffers are charged against its memory budget up front, and
/// lanes poll it between candidates. On a trip, attributes not fully
/// derived are left empty and the tripping status lands in
/// `MaxSetResult::status`; callers that passed a context must gate on
/// that status, as a partial result here is not a usable CMAX family.
MaxSetResult ComputeMaxSets(const AgreeSetResult& agree,
                            size_t num_threads = 1,
                            RunContext* ctx = nullptr);

/// Reference implementation: the pre-kernel serial per-attribute loop
/// (re-filter the family and run the quadratic Max⊆ scan once per
/// attribute, O(n·|S|²)). Retained as the oracle for the CMAX
/// determinism tests and as the baseline `bench_ablation_dominance`
/// measures the shared-pass kernel against. `ctx` is checked once per
/// attribute; on a trip the remaining attributes are left empty.
MaxSetResult ComputeMaxSetsNaive(const AgreeSetResult& agree,
                                 RunContext* ctx = nullptr);

}  // namespace depminer
