#include "fastfds/fastfds.h"

#include <algorithm>

#include "common/trace.h"
#include "fault/fault.h"
#include "core/agree_sets.h"
#include "partition/partition_database.h"

namespace depminer {

namespace {

/// Depth-first enumeration of the minimal covers of a family of
/// difference sets (the core of FastFDs). At each node the remaining
/// candidate attributes are ordered by how many still-uncovered sets they
/// hit (descending, ties by attribute id), and only attributes at or
/// after the chosen branch in that ordering may be used deeper down —
/// this enumerates every cover exactly once.
class CoverSearch {
 public:
  CoverSearch(const std::vector<AttributeSet>& sets, FastFdsStats* stats,
              RunContext* ctx, size_t max_size = 0)
      : sets_(sets), stats_(stats), ctx_(ctx), max_size_(max_size) {}

  /// Runs the search; calls emit(lhs) for every minimal cover. Returns
  /// false when a governing RunContext tripped and the search aborted —
  /// the covers emitted so far are valid but possibly not exhaustive.
  template <typename Emit>
  bool Run(const AttributeSet& candidates, Emit&& emit) {
    std::vector<size_t> uncovered(sets_.size());
    for (size_t i = 0; i < sets_.size(); ++i) uncovered[i] = i;
    Dfs(AttributeSet(), candidates, uncovered, emit);
    return !aborted_;
  }

 private:
  /// The DFS is exponential in the worst case, so the context is polled
  /// in batches of nodes rather than per recursion frame.
  static constexpr size_t kCheckEveryNodes = 1024;

  template <typename Emit>
  void Dfs(const AttributeSet& path, const AttributeSet& allowed,
           const std::vector<size_t>& uncovered, Emit&& emit) {
    if (aborted_) return;
    if (++stats_->search_nodes % kCheckEveryNodes == 0 && ctx_ != nullptr &&
        ctx_->StopRequested()) {
      aborted_ = true;
      return;
    }
    if (uncovered.empty()) {
      if (IsMinimalCover(path)) emit(path);
      return;
    }
    if (max_size_ != 0 && path.Count() == max_size_) {
      // Arity cap: the cover is incomplete and cannot grow further, so
      // every child branch is pruned before its subtree is visited.
      // Covers of size ≤ max_size_ live on paths of length ≤ max_size_
      // and are unaffected — the capped output is exactly the unbounded
      // one filtered by lhs size.
      allowed.ForEach([&](AttributeId a) {
        for (size_t i : uncovered) {
          if (sets_[i].Contains(a)) {
            ++stats_->candidates_pruned;
            break;
          }
        }
      });
      return;
    }

    // Order the allowed attributes by coverage of the uncovered sets.
    struct Scored {
      AttributeId attr;
      size_t coverage;
    };
    std::vector<Scored> order;
    allowed.ForEach([&](AttributeId a) {
      size_t coverage = 0;
      for (size_t i : uncovered) {
        if (sets_[i].Contains(a)) ++coverage;
      }
      if (coverage > 0) order.push_back({a, coverage});
    });
    if (order.empty()) return;  // some set is uncoverable: dead end
    std::stable_sort(order.begin(), order.end(),
                     [](const Scored& x, const Scored& y) {
                       if (x.coverage != y.coverage) {
                         return x.coverage > y.coverage;
                       }
                       return x.attr < y.attr;
                     });

    AttributeSet remaining_allowed;
    for (const Scored& s : order) remaining_allowed.Add(s.attr);
    for (const Scored& s : order) {
      remaining_allowed.Remove(s.attr);
      AttributeSet grown = path;
      grown.Add(s.attr);
      std::vector<size_t> still_uncovered;
      still_uncovered.reserve(uncovered.size() - s.coverage);
      for (size_t i : uncovered) {
        if (!sets_[i].Contains(s.attr)) still_uncovered.push_back(i);
      }
      Dfs(grown, remaining_allowed, still_uncovered, emit);
      if (aborted_) return;
    }
  }

  /// Every attribute of the cover must hit a set nothing else hits.
  bool IsMinimalCover(const AttributeSet& cover) const {
    bool minimal = true;
    cover.ForEach([&](AttributeId a) {
      if (!minimal) return;
      bool needed = false;
      for (const AttributeSet& s : sets_) {
        if (s.Contains(a) && !s.Intersects(cover.Minus(
                                 AttributeSet::Single(a)))) {
          needed = true;
          break;
        }
      }
      if (!needed) minimal = false;
    });
    return minimal;
  }

  const std::vector<AttributeSet>& sets_;
  FastFdsStats* stats_;
  RunContext* ctx_;
  const size_t max_size_;
  bool aborted_ = false;
};

}  // namespace

Result<FastFdsResult> FastFdsDiscover(const Relation& relation,
                                      RunContext* ctx) {
  FastFdsOptions options;
  options.run_context = ctx;
  return FastFdsDiscover(relation, options);
}

Result<FastFdsResult> FastFdsDiscover(const Relation& relation,
                                      const FastFdsOptions& options) {
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

  FastFdsResult result;
  PhaseTimer phase_timer("phase/fastfds", nullptr);

  // Front end shared with Dep-Miner: agree sets from stripped partitions,
  // then difference sets D(r) = complements. The empty agree set (pairs
  // disagreeing everywhere) contributes the difference set R.
  const StrippedPartitionDatabase db =
      StrippedPartitionDatabase::FromRelation(relation);
  const AgreeSetResult agree = ComputeAgreeSetsIdentifiers(db, ctx);
  if (!agree.status.ok()) {
    // A partial ag(r) yields a wrong (not merely partial) difference-set
    // family, so no cover search runs; only the front-end stats survive.
    result.complete = false;
    result.run_status = agree.status;
    return result;
  }
  const AttributeSet universe = AttributeSet::Universe(n);
  std::vector<AttributeSet> difference_sets;
  difference_sets.reserve(agree.sets.size() + 1);
  for (const AttributeSet& x : agree.All()) {
    difference_sets.push_back(universe.Minus(x));
  }
  result.stats.difference_sets = difference_sets.size();
  DEPMINER_TRACE_COUNTER("fastfds.difference_sets", difference_sets.size());

  DEPMINER_TRACE_SPAN(search_span, "fastfds/cover_search");
  std::vector<FunctionalDependency> found;
  for (AttributeId a = 0; a < n; ++a) {
    // One alloc poll per attribute: a firing fault models D_A (or the
    // search scratch) failing to allocate.
    DEPMINER_FAULT_ALLOC("alloc/fastfds", ctx);
    if (ctx != nullptr && ctx->limited()) {
      Status st = ctx->Check();
      if (!st.ok()) {
        result.complete = false;
        result.run_status = std::move(st);
        break;
      }
    }
    // D_A: difference sets containing A, with A removed, minimized.
    std::vector<AttributeSet> da;
    for (const AttributeSet& d : difference_sets) {
      if (d.Contains(a)) da.push_back(d.Minus(AttributeSet::Single(a)));
    }
    if (da.empty()) {
      // No pair of tuples disagrees on A: A is constant, ∅ → A.
      found.push_back({AttributeSet(), a});
      continue;
    }
    da = MinimalSets(std::move(da));
    // If ∅ ∈ D_A, a pair agrees on everything except A: nothing
    // (non-trivially) determines A, and the search naturally finds no
    // cover because the empty set cannot be hit.
    CoverSearch search(da, &result.stats, ctx,
                       options.mining.max_lhs_arity);
    const size_t found_before = found.size();
    if (!search.Run(universe.Minus(AttributeSet::Single(a)),
                    [&found, a](const AttributeSet& lhs) {
                      found.push_back({lhs, a});
                    })) {
      // An aborted per-attribute search may have missed covers, which
      // would make this attribute's FD list non-exhaustive; drop its
      // partial covers and report the trip (attributes already finished
      // keep their — final — FDs).
      found.resize(found_before);
      result.complete = false;
      result.run_status = ctx != nullptr ? ctx->Check() : Status::OK();
      if (result.run_status.ok()) {
        result.run_status = Status::Cancelled("FastFDs cover search aborted");
      }
      break;
    }
  }

  result.fds = FdSet(n, std::move(found));
  DEPMINER_TRACE_COUNTER("fastfds.search_nodes", result.stats.search_nodes);
  DEPMINER_TRACE_COUNTER("fastfds.candidates_pruned",
                         result.stats.candidates_pruned);
  return result;
}

}  // namespace depminer
