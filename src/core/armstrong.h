#pragma once

#include <vector>

#include "common/attribute_set.h"
#include "common/run_context.h"
#include "common/status.h"
#include "relation/relation.h"

namespace depminer {

/// Builders for Armstrong relations (paper §4).
///
/// An Armstrong relation for F satisfies exactly the dependencies implied
/// by F: it exhibits every FD of dep(r) and a counterexample for every
/// non-dependency. [BDFS84]: r̄ is Armstrong for F iff
/// GEN(F) ⊆ ag(r̄) ⊆ CL(F), and MAX(F) = GEN(F) [MR86, MR94b].
///
/// Both constructions below take C = {X_0 = R} ∪ MAX(dep(r)) and emit one
/// tuple per member of C, so |r̄| = |MAX(dep(r))| + 1.

/// Classical synthetic construction (paper Equation 1, after [BDFS84,
/// MR86]): tuple t_i has t_i[A] = 0 if A ∈ X_i, i otherwise. Values are
/// rendered as decimal strings over the given schema.
///
/// Fails with InvalidArgument when the schema is empty or a max set names
/// an attribute outside it — conditions a Release build must surface as a
/// status, not silently build a corrupt relation from.
Result<Relation> BuildSyntheticArmstrong(
    const Schema& schema, const std::vector<AttributeSet>& max_sets);

/// Equation 2's values of column `a`: its distinct strings in
/// first-occurrence order. Under SQL NULL semantics each NULL has a code
/// of its own, yet they all read as the one token — one value here, or
/// two "distinct" cells of a built relation would agree. Appends the
/// first `limit` of them to `*values` (which may be null when `limit` is
/// 0) and returns how many there are. The relation route and the
/// streamed route (storage/streaming.h) both count and sample through it.
size_t ArmstrongValues(const Relation& relation, AttributeId a, size_t limit,
                       std::vector<std::string>* values);

/// Existence condition for a *real-world* Armstrong relation (paper
/// Proposition 1): for every attribute A the initial relation must carry
/// at least |{X ∈ MAX(dep(r)) : A ∉ X}| + 1 distinct values. Values are
/// counted as strings: under SQL NULL semantics every NULL cell reads as
/// the one token, so all of them are one value.
/// Returns OK, or FailedPrecondition naming the first deficient attribute.
Status RealWorldArmstrongExists(const Relation& relation,
                                const std::vector<AttributeSet>& max_sets);

/// Real-world construction (paper Equation 2, Definition 1): like the
/// synthetic one, but the "0" value of attribute A is its first distinct
/// value in r and the "i" value is the i-th distinct value (distinct
/// strings in first-occurrence order, as RealWorldArmstrongExists counts
/// them) — every cell holds a value actually occurring in r's column A.
///
/// Fails with the Proposition 1 precondition when the initial relation
/// lacks enough distinct values. `ctx` (optional) is checked once per
/// emitted tuple — |r̄| = |MAX(dep(r))| + 1 can be exponential in |R|.
Result<Relation> BuildRealWorldArmstrong(
    const Relation& relation, const std::vector<AttributeSet>& max_sets,
    RunContext* ctx = nullptr);

/// Streaming variant of the real-world construction: builds from
/// per-column value *samples* (the first `ArmstrongValues`) and the full
/// `ArmstrongValues` counts instead of a materialized relation — the
/// storage/streaming.h path. Fails with FailedPrecondition if Proposition
/// 1 is violated (judged on `distinct_counts`), or with CapacityExceeded
/// if a needed value was beyond the retained sample.
Result<Relation> BuildRealWorldArmstrongFromSamples(
    const Schema& schema,
    const std::vector<std::vector<std::string>>& value_samples,
    const std::vector<size_t>& distinct_counts,
    const std::vector<AttributeSet>& max_sets, RunContext* ctx = nullptr);

/// Verifies the defining property via agree sets: every max set (= GEN
/// member) appears in ag(r̄), and every agree set of r̄ is ⊆-contained in R
/// or some max set (ag(r̄) ⊆ CL(F) — each agree set must be closed, and a
/// set is closed iff it is R or an intersection of max sets; containment
/// in this check is exact closure membership). Used by tests.
bool IsArmstrongFor(const Relation& candidate,
                    const std::vector<AttributeSet>& max_sets);

}  // namespace depminer
