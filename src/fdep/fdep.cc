#include "fdep/fdep.h"

#include "common/trace.h"
#include "fault/fault.h"
#include "core/agree_sets.h"
#include "core/max_sets.h"

namespace depminer {

Result<FdepResult> FdepDiscover(const Relation& relation, RunContext* ctx) {
  FdepOptions options;
  options.run_context = ctx;
  return FdepDiscover(relation, options);
}

Result<FdepResult> FdepDiscover(const Relation& relation,
                                const FdepOptions& options) {
  RunContext* ctx = options.run_context;
  const size_t n = relation.num_attributes();
  if (n == 0) return Status::InvalidArgument("relation has no attributes");
  if (n > AttributeSet::kMaxAttributes) {
    return Status::CapacityExceeded("too many attributes");
  }
  Status mining_status = options.mining.Validate();
  if (!mining_status.ok()) return mining_status;
  if (options.mining.max_g3_error > 0.0) {
    return Status::InvalidArgument(
        "approximate (g3-thresholded) discovery is TANE-only");
  }
  DEPMINER_CHECK_RUN(ctx);

  FdepResult result;
  PhaseTimer phase_timer("phase/fdep", nullptr);

  // Negative cover: FDEP compares every pair of tuples (its defining
  // O(n·p²) bottom-up step — deliberately kept, it is what distinguishes
  // the baseline); the maximal agree sets avoiding A are the maximal
  // invalid left-hand sides for A.
  const AgreeSetResult agree = ComputeAgreeSetsNaive(relation, ctx);
  if (!agree.status.ok()) {
    // A partial negative cover would under-constrain specialization and
    // admit invalid FDs, so induction never starts.
    result.complete = false;
    result.run_status = agree.status;
    return result;
  }
  const MaxSetResult negative = ComputeMaxSets(agree, /*num_threads=*/1, ctx);
  if (!negative.status.ok()) {
    // Attributes skipped by an interrupted CMAX_SET have an *empty* list
    // of invalid lhs, which specialization would read as "∅ → A holds".
    result.complete = false;
    result.run_status = negative.status;
    return result;
  }
  for (const auto& per_attr : negative.max_sets) {
    result.stats.negative_cover_size += per_attr.size();
  }
  DEPMINER_TRACE_COUNTER("fdep.negative_cover",
                         result.stats.negative_cover_size);
  DEPMINER_TRACE_SPAN(specialize_span, "fdep/specialize");

  const AttributeSet universe = AttributeSet::Universe(n);
  std::vector<FunctionalDependency> found;
  bool interrupted = false;
  for (AttributeId a = 0; a < n && !interrupted; ++a) {
    // Positive cover by specialization: start from the most general
    // hypothesis ∅ → A; each maximal invalid lhs M contradicts every
    // hypothesis H ⊆ M, which is replaced by its minimal specializations
    // H ∪ {b}, b ∉ M ∪ {A}; non-minimal survivors are dropped.
    std::vector<AttributeSet> hypotheses = {AttributeSet()};
    for (const AttributeSet& m : negative.max_sets[a]) {
      // One alloc poll per refinement round: a firing fault models the
      // specialization frontier failing to grow.
      DEPMINER_FAULT_ALLOC("alloc/fdep", ctx);
      if (ctx != nullptr && ctx->limited()) {
        Status st = ctx->Check();
        if (!st.ok()) {
          // Hypotheses not yet refined against every invalid lhs are not
          // FDs; the attribute's partial state is dropped wholesale.
          result.complete = false;
          result.run_status = std::move(st);
          interrupted = true;
          break;
        }
      }
      const size_t cap = options.mining.max_lhs_arity;
      std::vector<AttributeSet> next;
      next.reserve(hypotheses.size());
      for (const AttributeSet& h : hypotheses) {
        if (!h.IsSubsetOf(m)) {
          next.push_back(h);
          continue;
        }
        const AttributeSet outside =
            universe.Minus(m).Minus(AttributeSet::Single(a));
        if (cap != 0 && h.Count() == cap) {
          // Arity cap: every specialization of this contradicted
          // hypothesis would exceed the cap, so the hypothesis is
          // dropped and its replacements pruned before generation.
          // Surviving hypotheses of size ≤ cap are built from subset
          // ancestors (all of size ≤ cap), so they are unaffected.
          result.stats.candidates_pruned += outside.Count();
          continue;
        }
        outside.ForEach([&](AttributeId b) {
          AttributeSet grown = h;
          grown.Add(b);
          next.push_back(grown);
          ++result.stats.specializations;
        });
      }
      hypotheses = MinimalSets(std::move(next));
    }
    if (interrupted) break;
    for (const AttributeSet& h : hypotheses) {
      found.push_back({h, a});
    }
  }

  result.fds = FdSet(n, std::move(found));
  DEPMINER_TRACE_COUNTER("fdep.specializations", result.stats.specializations);
  DEPMINER_TRACE_COUNTER("fdep.candidates_pruned",
                         result.stats.candidates_pruned);
  return result;
}

}  // namespace depminer
