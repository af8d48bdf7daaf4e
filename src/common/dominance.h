#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/attribute_set.h"

namespace depminer {

/// Subset-dominance kernel: an inverted index over a family of attribute
/// sets that answers "does the family contain a proper superset (resp.
/// subset) of X?" in O(postings) bitmap words instead of O(|S|) pairwise
/// subset tests.
///
/// Layout. Sets are identified by their position in the indexed family.
/// For every attribute `a` the index keeps a posting list — the id-bitmap
/// of the sets containing `a`, one bit per set, packed into words. A
/// superset query intersects the postings of X's members: the surviving
/// ids are exactly the sets containing every attribute of X, i.e. X's
/// supersets. A subset query unions the postings of the attributes
/// *outside* X: the ids missing from the union are the sets avoiding
/// everything outside X, i.e. X's subsets.
///
/// Cardinality bucketing. The family must be sorted by cardinality
/// (non-increasing for superset queries, non-decreasing for subset
/// queries). A *proper* superset of X is strictly larger than X, so in
/// the sorted order every candidate lives in the prefix of ids whose
/// cardinality exceeds |X| — queries intersect only that prefix's words,
/// and the prefix boundary per cardinality is precomputed. Because the
/// family is deduplicated, no equal-cardinality set can dominate X, so
/// the strict prefix needs no self-exclusion bookkeeping.
///
/// Queries run plain 64-bit word loops, four words per step. There is no
/// SIMD variant: CMAX on the paper-scale point probes an index of ~105
/// sets, two words per bitmap (docs/PERFORMANCE.md, "The dominance
/// kernel").
///
/// The index is immutable after construction: concurrent queries from
/// parallel lanes are safe as long as each lane owns its scratch buffer.
/// This is what lets `ComputeMaxSets` derive all per-attribute
/// max(dep(r), A) families from one shared index in parallel.
class DominanceIndex {
 public:
  /// The cardinality order the indexed family is sorted by.
  enum class Order {
    kNonIncreasing,  ///< largest first — enables HasProperSupersetOf
    kNonDecreasing,  ///< smallest first — enables HasProperSubsetOf
  };

  /// Indexes `family`, which must be duplicate-free and sorted by
  /// `order`. Posting rows are allocated for attributes
  /// [0, max(num_attributes, highest attribute present + 1)); passing
  /// the schema width lets callers query `Postings` for attributes no
  /// set mentions (their row is all-zero).
  DominanceIndex(const std::vector<AttributeSet>& family, Order order,
                 size_t num_attributes = 0);

  size_t num_sets() const { return num_sets_; }
  /// Words per id-bitmap; the size scratch buffers must have.
  size_t words_per_bitmap() const { return words_; }
  /// Heap footprint of the postings, for RunContext memory accounting.
  size_t bytes() const { return postings_.capacity() * sizeof(uint64_t); }

  /// The id-bitmap of sets containing `a` (all-zero for an absent
  /// attribute). Valid for `a` < the row count fixed at construction.
  const uint64_t* Postings(AttributeId a) const {
    return postings_.data() + static_cast<size_t>(a) * words_;
  }

  /// True iff the family contains a proper superset of `s`, optionally
  /// restricted to ids whose bit is *clear* in `exclude` (an id-bitmap,
  /// e.g. a posting row — how CMAX_SET skips sets containing the probe
  /// attribute). `scratch` must hold `words_per_bitmap()` words and is
  /// clobbered. Requires Order::kNonIncreasing.
  bool HasProperSupersetOf(const AttributeSet& s, const uint64_t* exclude,
                           uint64_t* scratch) const;

  /// True iff the family contains a proper subset of `s` (same `exclude`
  /// and `scratch` contracts). Requires Order::kNonDecreasing.
  bool HasProperSubsetOf(const AttributeSet& s, const uint64_t* exclude,
                         uint64_t* scratch) const;

 private:
  size_t num_sets_ = 0;
  size_t words_ = 0;
  size_t rows_ = 0;
  Order order_;
  /// rows_ × words_ posting bitmaps, row-major by attribute.
  std::vector<uint64_t> postings_;
  /// strict_prefix_[c]: number of ids strictly before cardinality c in
  /// the sort order (count > c for kNonIncreasing, < c for
  /// kNonDecreasing) — the only ids that can properly dominate a set of
  /// cardinality c.
  size_t strict_prefix_[AttributeSet::kMaxAttributes + 1];
  /// Union of all indexed sets; subset queries union postings over
  /// support \ s instead of the whole schema.
  AttributeSet support_;
};

/// Reference quadratic implementations of the Max⊆ / Min⊆ filters: the
/// incremental survivor scan. `MaximalSets` / `MinimalSets` run this
/// same scan for families below the index cutoff (see dominance.cc), so
/// above it these are the oracle the dominance property tests check the
/// index against, and the baseline `bench_ablation_dominance` measures.
/// Semantics are identical to `MaximalSets` / `MinimalSets` (see
/// attribute_set.h), including output order.
std::vector<AttributeSet> MaximalSetsNaive(std::vector<AttributeSet> sets);
std::vector<AttributeSet> MinimalSetsNaive(std::vector<AttributeSet> sets);

}  // namespace depminer
