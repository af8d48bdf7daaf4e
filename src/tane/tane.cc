#include "tane/tane.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "common/progress.h"
#include "common/trace.h"
#include "fault/fault.h"
#include "partition/partition_database.h"
#include "partition/partition_product.h"

namespace depminer {

namespace {

/// One lattice node: an attribute set X with its rhs⁺ candidates C⁺(X) and
/// stripped partition π̂_X.
struct Node {
  AttributeSet set;
  std::vector<AttributeId> members;  // sorted; drives prefix-block joins
  AttributeSet cplus;
  /// Shared so a PartitionCache can retain level products without a copy
  /// (and serve them back to later runs or the top-k ranking).
  std::shared_ptr<const StrippedPartition> partition;
  size_t error = 0;  ///< e(π̂_X)·|r| = Σ (|c| − 1) over stripped classes
  // Indices of the joined parents in the previous level, used to defer
  // the (parallelizable) partition product.
  size_t parent_i = 0;
  size_t parent_j = 0;
};

size_t PartitionError(const StrippedPartition& p) {
  return p.CoveredTuples() - p.num_classes();
}

class TaneRun {
 public:
  TaneRun(const Relation& relation, const TaneOptions& options)
      : relation_(relation),
        options_(options),
        n_(relation.num_attributes()),
        p_(relation.num_tuples()),
        universe_(AttributeSet::Universe(relation.num_attributes())),
        workspace_(relation.num_tuples()),
        owner_of_(relation.num_tuples(), UINT32_MAX),
        cache_(options.partition_cache) {}

  TaneResult Run() {
    PhaseTimer phase_timer("phase/tane", nullptr);
    // C⁺(∅) = R; π̂_∅'s error is p − 1 (a single class of all tuples).
    cplus_memo_[AttributeSet()] = universe_;
    error_empty_ = p_ > 0 ? p_ - 1 : 0;

    RunContext* ctx = options_.run_context;
    ScopedMemoryCharge memory(ctx);

    std::vector<Node> level = BuildFirstLevel();
    result_.stats.candidates_generated += level.size();
    // Lattice depth is bounded by the attribute count; the total is the
    // worst case, so the heartbeat's ETA is pessimistic (TANE usually
    // exhausts its candidates several levels early).
    DEPMINER_PROGRESS_PHASE("tane", "levels", n_);

    while (!level.empty()) {
      if (ctx != nullptr && ctx->limited()) {
        Status st = ctx->Check();
        if (!st.ok()) {
          result_.complete = false;
          result_.run_status = std::move(st);
          break;
        }
      }
      ++result_.stats.levels;
      DEPMINER_PROGRESS_TICK(1);
      DEPMINER_TRACE_SPAN(level_span, "tane/level");
      level_span.SetValue(level.size());
      DEPMINER_TRACE_HISTOGRAM("tane_level_candidates/all", level.size());
      memory.Set(RecordPartitionFootprint(level));
      DEPMINER_FAULT_ALLOC("alloc/tane", ctx);
      ComputeDependencies(&level);
      Prune(&level);
      // The surviving nodes become the "previous level": their partitions
      // and C⁺ sets feed both the joins and the next round of validity
      // tests, so they must outlive this iteration.
      prev_level_ = std::move(level);
      RebuildPreviousIndex();
      level = GenerateNextLevel();
      result_.stats.candidates_generated += level.size();
      if (!trip_status_.ok()) {
        result_.complete = false;
        result_.run_status = trip_status_;
        break;
      }
    }

    result_.fds = FdSet(n_, std::move(found_));
    DEPMINER_TRACE_COUNTER("tane.levels", result_.stats.levels);
    DEPMINER_TRACE_COUNTER("tane.candidates",
                           result_.stats.candidates_generated);
    DEPMINER_TRACE_COUNTER("tane.candidates_pruned",
                           result_.stats.candidates_pruned);
    DEPMINER_TRACE_COUNTER("tane.products",
                           result_.stats.partition_products);
    DEPMINER_TRACE_GAUGE_MAX("tane.peak_partition_bytes",
                             result_.stats.peak_partition_bytes);
    return std::move(result_);
  }

 private:
  std::vector<Node> BuildFirstLevel() {
    std::vector<Node> level;
    level.reserve(n_);
    for (AttributeId a = 0; a < n_; ++a) {
      Node node;
      node.set = AttributeSet::Single(a);
      node.members = {a};
      node.cplus = universe_;
      if (cache_ != nullptr) {
        // Aliases the cache's base database (a guaranteed hit).
        node.partition = cache_->Get(node.set);
      } else {
        node.partition = std::make_shared<const StrippedPartition>(
            StrippedPartition::ForAttribute(relation_, a));
      }
      node.error = PartitionError(*node.partition);
      level.push_back(std::move(node));
    }
    return level;
  }

  /// Validity of X\{A} → A: exact mode compares partition errors (π_{X\A}
  /// and π_X are equal iff their errors coincide, as one refines the
  /// other); approximate mode bounds the g₃ fraction. At ε = 0 the two
  /// criteria agree exactly — g₃ = 0 iff the errors coincide — which
  /// `force_error_validation` lets the oracle assert by running the g₃
  /// path anyway.
  bool Valid(const Node& parent, const Node& node) {
    if (options_.mining.max_g3_error <= 0.0 &&
        !options_.mining.force_error_validation) {
      return parent.error == node.error;
    }
    return G3(*parent.partition, *node.partition) <=
           options_.mining.max_g3_error;
  }

  /// g₃(X → A) from π̂_X (lhs) and π̂_{X∪A} (refined): within each lhs
  /// class keep its largest refined subclass (or a singleton).
  double G3(const StrippedPartition& lhs, const StrippedPartition& refined) {
    if (p_ == 0) return 0.0;
    const StrippedPartition::Classes lhs_classes = lhs.classes();
    for (uint32_t i = 0; i < lhs_classes.size(); ++i) {
      for (TupleId t : lhs_classes[i]) owner_of_[t] = i;
    }
    std::vector<size_t> biggest(lhs_classes.size(), 1);
    for (const ClassView c : refined.classes()) {
      const uint32_t owner = owner_of_[c.front()];
      if (owner != UINT32_MAX) {
        biggest[owner] = std::max(biggest[owner], c.size());
      }
    }
    size_t removed = 0;
    for (uint32_t i = 0; i < lhs_classes.size(); ++i) {
      removed += lhs_classes[i].size() - biggest[i];
    }
    for (const ClassView c : lhs_classes) {
      for (TupleId t : c) owner_of_[t] = UINT32_MAX;
    }
    return static_cast<double>(removed) / static_cast<double>(p_);
  }

  /// The special-cased ∅ → A test for level 1 (X = {A}, lhs = ∅).
  bool ValidFromEmpty(const Node& node) {
    if (options_.mining.max_g3_error <= 0.0 &&
        !options_.mining.force_error_validation) {
      return error_empty_ == node.error;
    }
    // g₃(∅ → A): keep the most frequent A-value.
    size_t biggest = p_ == 0 ? 0 : 1;
    for (const ClassView c : node.partition->classes()) {
      biggest = std::max(biggest, c.size());
    }
    const size_t removed = p_ - biggest;
    return p_ == 0 ||
           static_cast<double>(removed) / static_cast<double>(p_) <=
               options_.mining.max_g3_error;
  }

  void ComputeDependencies(std::vector<Node>* level) {
    for (Node& node : *level) {
      const AttributeSet test = node.set.Intersect(node.cplus);
      test.ForEach([&](AttributeId a) {
        AttributeSet lhs = node.set;
        lhs.Remove(a);
        bool valid;
        if (lhs.Empty()) {
          valid = ValidFromEmpty(node);
        } else {
          const Node* parent = FindPrevious(lhs);
          // Every proper subset of a generated node was itself generated
          // (Apriori-gen invariant), so the parent must exist.
          valid = parent != nullptr && Valid(*parent, node);
        }
        if (valid) {
          found_.push_back({lhs, a});
          node.cplus.Remove(a);
          node.cplus = node.cplus.Minus(universe_.Minus(node.set));
        }
      });
    }
    // Freeze this level's (post-update) C⁺ values for later lookups.
    for (const Node& node : *level) {
      cplus_memo_[node.set] = node.cplus;
    }
  }

  void Prune(std::vector<Node>* level) {
    std::vector<Node> kept;
    kept.reserve(level->size());
    for (Node& node : *level) {
      if (node.cplus.Empty()) continue;
      if (options_.enable_key_pruning && node.error == 0) {
        // X is a superkey. Output the remaining implied FDs (key-pruning
        // rule of [HKPT98]): X → A for A ∈ C⁺(X)\X with
        // A ∈ ⋂_{B∈X} C⁺((X∪{A})\{B}). These FDs have lhs X itself, so
        // an arity cap gates the emission (X may sit one level past the
        // deepest reportable lhs).
        if (options_.mining.WithinArity(node.set.Count())) {
          const AttributeSet extra = node.cplus.Minus(node.set);
          extra.ForEach([&](AttributeId a) {
            AttributeSet intersection = universe_;
            node.set.ForEach([&](AttributeId b) {
              AttributeSet y = node.set;
              y.Add(a);
              y.Remove(b);
              intersection = intersection.Intersect(CplusOf(y));
            });
            if (intersection.Contains(a)) {
              found_.push_back({node.set, a});
            }
          });
        }
        continue;  // superkeys are not expanded
      }
      kept.push_back(std::move(node));
    }
    *level = std::move(kept);
  }

  /// Returns the current two-level partition footprint (the quantity a
  /// RunContext memory budget governs) and folds it into the peak stat.
  size_t RecordPartitionFootprint(const std::vector<Node>& level) {
    size_t bytes = 0;
    for (const Node& node : level) {
      bytes += node.partition->CoveredTuples() * sizeof(TupleId);
    }
    for (const Node& node : prev_level_) {
      bytes += node.partition->CoveredTuples() * sizeof(TupleId);
    }
    result_.stats.peak_partition_bytes =
        std::max(result_.stats.peak_partition_bytes, bytes);
    return bytes;
  }

  void RebuildPreviousIndex() {
    std::sort(prev_level_.begin(), prev_level_.end(),
              [](const Node& a, const Node& b) { return a.members < b.members; });
    previous_.clear();
    for (Node& node : prev_level_) previous_[node.set] = &node;
  }

  /// Prefix-block pair count of `level` — the joins an arity cap keeps
  /// from being generated.
  static size_t CountPrunedJoins(const std::vector<Node>& level) {
    size_t pruned = 0;
    for (size_t i = 0; i < level.size(); ++i) {
      for (size_t j = i + 1; j < level.size(); ++j) {
        if (!std::equal(level[i].members.begin(), level[i].members.end() - 1,
                        level[j].members.begin())) {
          break;
        }
        ++pruned;
      }
    }
    return pruned;
  }

  std::vector<Node> GenerateNextLevel() {
    // Prefix blocks: nodes sharing their first l−1 attributes;
    // prev_level_ is sorted by member sequence (RebuildPreviousIndex).
    std::vector<Node>& level = prev_level_;
    std::vector<Node> next;
    const size_t l = level.empty() ? 0 : level[0].members.size();
    // Arity cap k: level k+1 was just tested (its FDs have lhs size k);
    // the joins of level k+2 are pruned before generation. Everything up
    // to here ran exactly as unbounded, so the output is the unbounded
    // cover filtered to |lhs| ≤ k.
    const size_t cap = options_.mining.max_lhs_arity;
    if (cap != 0 && l >= cap + 1) {
      result_.stats.candidates_pruned += CountPrunedJoins(level);
      return next;
    }
    for (size_t i = 0; i < level.size(); ++i) {
      for (size_t j = i + 1; j < level.size(); ++j) {
        if (!std::equal(level[i].members.begin(),
                        level[i].members.end() - 1,
                        level[j].members.begin())) {
          break;
        }
        Node joined;
        joined.members = level[i].members;
        joined.members.push_back(level[j].members[l - 1]);
        joined.set = level[i].set.Union(level[j].set);

        // Apriori prune: every l-subset must be present (un-pruned).
        bool all_present = true;
        joined.set.ForEach([&](AttributeId drop) {
          AttributeSet sub = joined.set;
          sub.Remove(drop);
          if (previous_.find(sub) == previous_.end()) all_present = false;
        });
        if (!all_present) continue;

        // C⁺(X) = ⋂_{A∈X} C⁺(X\{A}).
        joined.cplus = universe_;
        joined.set.ForEach([&](AttributeId drop) {
          AttributeSet sub = joined.set;
          sub.Remove(drop);
          joined.cplus = joined.cplus.Intersect(previous_.at(sub)->cplus);
        });

        joined.parent_i = i;
        joined.parent_j = j;
        next.push_back(std::move(joined));
      }
    }

    // The partition products — the dominant per-level cost — run in
    // parallel over the independent candidates on the shared pool
    // (per-slot workspaces; results land in index-distinct slots, so
    // output is deterministic). A governing RunContext is consulted once
    // per product; on a trip the remaining products are skipped and
    // Run() discards this level.
    result_.stats.partition_products += next.size();
    DEPMINER_TRACE_SPAN(products_span, "tane/products");
    products_span.SetValue(next.size());
    RunContext* ctx = options_.run_context;
    if (options_.num_threads <= 1 || next.size() <= 1) {
      for (Node& node : next) {
        if (ctx != nullptr && ctx->limited()) {
          trip_status_ = ctx->Check();
          if (!trip_status_.ok()) break;
        }
        ProductFor(&node, workspace_);
      }
    } else {
      const size_t workers = std::min(options_.num_threads, next.size());
      std::vector<std::unique_ptr<PartitionProductWorkspace>> workspaces;
      workspaces.reserve(workers);
      for (size_t w = 0; w < workers; ++w) {
        workspaces.push_back(
            std::make_unique<PartitionProductWorkspace>(p_));
      }
      std::atomic<bool> tripped{false};
      ParallelForSlotted(
          0, next.size(), workers,
          [&](size_t slot, size_t k) {
            ProductFor(&next[k], *workspaces[slot]);
          },
          [&] {
            if (ctx != nullptr && ctx->StopRequested()) {
              tripped.store(true, std::memory_order_relaxed);
              return true;
            }
            return tripped.load(std::memory_order_relaxed);
          });
      if (tripped.load(std::memory_order_relaxed)) {
        trip_status_ = ctx->Check();
        if (trip_status_.ok()) {
          // Non-sticky budget trips can clear between the worker's
          // observation and this check; record the interruption anyway.
          trip_status_ = Status::Cancelled("TANE level generation interrupted");
        }
      }
    }
    return next;
  }

  /// π̂_X and error for a joined node: a cache hit when one is
  /// configured, otherwise the parents' product (offered back to the
  /// cache). Values are deterministic functions of the relation, so the
  /// hit/compute choice never changes what the node holds.
  void ProductFor(Node* node, PartitionProductWorkspace& workspace) {
    if (cache_ != nullptr) {
      std::shared_ptr<const StrippedPartition> cached =
          cache_->Lookup(node->set);
      if (cached != nullptr) {
        node->partition = std::move(cached);
        node->error = PartitionError(*node->partition);
        return;
      }
    }
    node->partition = std::make_shared<const StrippedPartition>(
        workspace.Product(*prev_level_[node->parent_i].partition,
                          *prev_level_[node->parent_j].partition));
    node->error = PartitionError(*node->partition);
    if (cache_ != nullptr) cache_->Insert(node->set, node->partition);
  }

  const Node* FindPrevious(const AttributeSet& set) const {
    auto it = previous_.find(set);
    return it == previous_.end() ? nullptr : it->second;
  }

  /// C⁺(Y) for an arbitrary set: from the memo when Y survived to some
  /// level, otherwise on demand by the recursive intersection formula.
  AttributeSet CplusOf(const AttributeSet& y) {
    auto it = cplus_memo_.find(y);
    if (it != cplus_memo_.end()) return it->second;
    AttributeSet out = universe_;
    y.ForEach([&](AttributeId drop) {
      AttributeSet sub = y;
      sub.Remove(drop);
      out = out.Intersect(CplusOf(sub));
    });
    cplus_memo_[y] = out;
    return out;
  }

  const Relation& relation_;
  const TaneOptions options_;
  const size_t n_;
  const size_t p_;
  const AttributeSet universe_;
  PartitionProductWorkspace workspace_;
  std::vector<uint32_t> owner_of_;  // scratch for G3
  PartitionCache* const cache_;

  size_t error_empty_ = 0;
  std::vector<FunctionalDependency> found_;
  std::vector<Node> prev_level_;
  std::unordered_map<AttributeSet, Node*, AttributeSetHash> previous_;
  std::unordered_map<AttributeSet, AttributeSet, AttributeSetHash> cplus_memo_;
  Status trip_status_;  ///< first RunContext trip seen inside GenerateNextLevel
  TaneResult result_;
};

}  // namespace

Result<TaneResult> TaneDiscover(const Relation& relation,
                                const TaneOptions& options) {
  if (relation.num_attributes() == 0) {
    return Status::InvalidArgument("relation has no attributes");
  }
  if (relation.num_attributes() > AttributeSet::kMaxAttributes) {
    return Status::CapacityExceeded("too many attributes");
  }
  Status mining_status = options.mining.Validate();
  if (!mining_status.ok()) return mining_status;
  TaneRun run(relation, options);
  return run.Run();
}

}  // namespace depminer
