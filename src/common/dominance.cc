#include "common/dominance.h"

#include <algorithm>
#include <cassert>

#include "common/trace.h"

namespace depminer {

namespace {

uint64_t TailMask(size_t prefix) {
  return (prefix % 64 == 0) ? ~uint64_t{0}
                            : ((uint64_t{1} << (prefix % 64)) - 1);
}

// The index's two hot loops: intersect a posting row into a survivor
// bitmap (`dst &= row`, resp. `dst &= ~row`) while OR-folding the result,
// so callers can stop as soon as no survivor remains.

uint64_t AndInto(uint64_t* dst, const uint64_t* src, size_t nw) {
  uint64_t any = 0;
  size_t w = 0;
  for (; w + 4 <= nw; w += 4) {
    any |= (dst[w] &= src[w]);
    any |= (dst[w + 1] &= src[w + 1]);
    any |= (dst[w + 2] &= src[w + 2]);
    any |= (dst[w + 3] &= src[w + 3]);
  }
  for (; w < nw; ++w) any |= (dst[w] &= src[w]);
  return any;
}

uint64_t AndNotInto(uint64_t* dst, const uint64_t* src, size_t nw) {
  uint64_t any = 0;
  size_t w = 0;
  for (; w + 4 <= nw; w += 4) {
    any |= (dst[w] &= ~src[w]);
    any |= (dst[w + 1] &= ~src[w + 1]);
    any |= (dst[w + 2] &= ~src[w + 2]);
    any |= (dst[w + 3] &= ~src[w + 3]);
  }
  for (; w < nw; ++w) any |= (dst[w] &= ~src[w]);
  return any;
}

}  // namespace

DominanceIndex::DominanceIndex(const std::vector<AttributeSet>& family,
                               Order order, size_t num_attributes)
    : num_sets_(family.size()),
      words_((family.size() + 63) / 64),
      order_(order) {
  size_t hist[AttributeSet::kMaxAttributes + 1] = {};
  for (const AttributeSet& s : family) {
    support_ = support_.Union(s);
    ++hist[s.Count()];
  }
  rows_ = num_attributes;
  if (!support_.Empty()) {
    rows_ = std::max(rows_, static_cast<size_t>(support_.Max()) + 1);
  }
  postings_.assign(rows_ * words_, 0);
  for (size_t id = 0; id < num_sets_; ++id) {
#ifndef NDEBUG
    if (id > 0) {
      const size_t prev = family[id - 1].Count(), cur = family[id].Count();
      assert((order == Order::kNonIncreasing ? prev >= cur : prev <= cur) &&
             "family must be sorted by the declared cardinality order");
    }
#endif
    const uint64_t bit = uint64_t{1} << (id % 64);
    const size_t word = id / 64;
    family[id].ForEach([&](AttributeId a) {
      postings_[static_cast<size_t>(a) * words_ + word] |= bit;
    });
  }
  // Strict-cardinality prefix boundaries: ids able to properly dominate
  // a set of cardinality c are exactly those sorted before every set of
  // cardinality c.
  if (order == Order::kNonIncreasing) {
    size_t acc = 0;
    for (size_t c = AttributeSet::kMaxAttributes + 1; c-- > 0;) {
      strict_prefix_[c] = acc;
      acc += hist[c];
    }
  } else {
    size_t acc = 0;
    for (size_t c = 0; c <= AttributeSet::kMaxAttributes; ++c) {
      strict_prefix_[c] = acc;
      acc += hist[c];
    }
  }
}

bool DominanceIndex::HasProperSupersetOf(const AttributeSet& s,
                                         const uint64_t* exclude,
                                         uint64_t* scratch) const {
  assert(order_ == Order::kNonIncreasing);
  const size_t prefix = strict_prefix_[s.Count()];
  if (prefix == 0) return false;
  const size_t nw = (prefix + 63) / 64;
  // Start from every strictly-larger id (minus exclusions); each member
  // posting intersected shrinks the survivors to the sets containing all
  // of s. The running OR short-circuits the common case where a few
  // postings already prove no superset exists.
  for (size_t w = 0; w < nw; ++w) {
    scratch[w] = exclude != nullptr ? ~exclude[w] : ~uint64_t{0};
  }
  scratch[nw - 1] &= TailMask(prefix);
  uint64_t any = 0;
  for (size_t w = 0; w < nw; ++w) any |= scratch[w];
  for (size_t sw = 0; sw < AttributeSet::kWords && any != 0; ++sw) {
    uint64_t bits = s.word(sw);
    while (bits != 0 && any != 0) {
      const AttributeId a =
          static_cast<AttributeId>(sw * 64 + __builtin_ctzll(bits));
      bits &= bits - 1;
      any = AndInto(scratch, Postings(a), nw);
    }
  }
  return any != 0;
}

bool DominanceIndex::HasProperSubsetOf(const AttributeSet& s,
                                       const uint64_t* exclude,
                                       uint64_t* scratch) const {
  assert(order_ == Order::kNonDecreasing);
  const size_t prefix = strict_prefix_[s.Count()];
  if (prefix == 0) return false;
  const size_t nw = (prefix + 63) / 64;
  // Start from every strictly-smaller id; knocking out the postings of
  // each attribute *outside* s leaves exactly the sets avoiding
  // everything outside s — the subsets of s. Attributes no indexed set
  // carries (outside the support) cannot knock anything out and are
  // skipped wholesale.
  for (size_t w = 0; w < nw; ++w) {
    scratch[w] = exclude != nullptr ? ~exclude[w] : ~uint64_t{0};
  }
  scratch[nw - 1] &= TailMask(prefix);
  uint64_t any = 0;
  for (size_t w = 0; w < nw; ++w) any |= scratch[w];
  const AttributeSet outside = support_.Minus(s);
  for (size_t sw = 0; sw < AttributeSet::kWords && any != 0; ++sw) {
    uint64_t bits = outside.word(sw);
    while (bits != 0 && any != 0) {
      const AttributeId a =
          static_cast<AttributeId>(sw * 64 + __builtin_ctzll(bits));
      bits &= bits - 1;
      any = AndNotInto(scratch, Postings(a), nw);
    }
  }
  return any != 0;
}

namespace {

/// Canonical dominance preprocessing: deduplicate (word order), then
/// order by cardinality — dominating sets first — stably, so the
/// survivor sequence is a deterministic function of the input *as a
/// set*. This is the exact ordering the pre-kernel quadratic filters
/// used; keeping it keeps every caller's output bit-identical.
void CanonicalOrder(std::vector<AttributeSet>* sets, bool largest_first) {
  std::sort(sets->begin(), sets->end());
  sets->erase(std::unique(sets->begin(), sets->end()), sets->end());
  std::stable_sort(sets->begin(), sets->end(),
                   [largest_first](const AttributeSet& a,
                                   const AttributeSet& b) {
                     return largest_first ? a.Count() > b.Count()
                                          : a.Count() < b.Count();
                   });
}

/// The incremental quadratic survivor scan over a canonically ordered
/// family. A candidate only needs checking against already-kept sets:
/// dominance is transitive and dominators sort earlier, so every
/// dominated candidate is dominated by some survivor.
std::vector<AttributeSet> SurvivorScan(const std::vector<AttributeSet>& sets,
                                       bool maximal) {
  std::vector<AttributeSet> out;
  out.reserve(sets.size());
  for (const AttributeSet& s : sets) {
    bool dominated = false;
    for (const AttributeSet& kept : out) {
      if (maximal ? s.IsSubsetOf(kept) : kept.IsSubsetOf(s)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.push_back(s);
  }
  return out;
}

/// Families smaller than this (after deduplication) run the survivor
/// scan; larger ones build the inverted posting index. Measured, not
/// guessed: `bench_ablation_dominance` times each path alone at every
/// size (BENCH_cmax_dominance.json, docs/PERFORMANCE.md). The scan wins
/// up to ~256 sets and the two tie around 512 — index construction costs
/// ~|S| posting writes plus the bitmap allocation, and its queries only
/// amortize once |S|·|survivors| word ops dominate — while the index
/// leads from 1024 on. Re-measure with `scripts/bench_cmax.sh` when
/// touching either path.
constexpr size_t kIndexCutoff = 1024;

std::vector<AttributeSet> FilterDominated(std::vector<AttributeSet> sets,
                                          bool maximal) {
  CanonicalOrder(&sets, /*largest_first=*/maximal);
  // Family-size distribution, split by which kernel served it — the
  // histogram shows whether the cutoff sits where real workloads cluster.
  DEPMINER_TRACE_HISTOGRAM(sets.size() < kIndexCutoff
                               ? "dominance_family_size/scan"
                               : "dominance_family_size/indexed",
                           sets.size());
  if (sets.size() < kIndexCutoff) return SurvivorScan(sets, maximal);
  DEPMINER_TRACE_COUNTER("dominance.index_queries", sets.size());
  const DominanceIndex index(sets, maximal
                                       ? DominanceIndex::Order::kNonIncreasing
                                       : DominanceIndex::Order::kNonDecreasing);
  // Checking against the *whole* family instead of the survivor set is
  // equivalent: any dominator is itself dominated only by sets that also
  // dominate the candidate (transitivity), so a maximal/minimal
  // dominator always exists among the survivors.
  std::vector<uint64_t> scratch(index.words_per_bitmap());
  std::vector<AttributeSet> out;
  out.reserve(sets.size());
  for (const AttributeSet& s : sets) {
    const bool dominated =
        maximal ? index.HasProperSupersetOf(s, nullptr, scratch.data())
                : index.HasProperSubsetOf(s, nullptr, scratch.data());
    if (!dominated) out.push_back(s);
  }
  return out;
}

}  // namespace

// MaximalSets / MinimalSets are declared in attribute_set.h (they predate
// the kernel); their bodies live here so every caller — FastFDs
// difference-set minimization, FDep hypothesis pruning,
// Hypergraph::Minimized, Berge transversals, normalization — routes
// through the same dominance machinery.
std::vector<AttributeSet> MaximalSets(std::vector<AttributeSet> sets) {
  return FilterDominated(std::move(sets), /*maximal=*/true);
}

std::vector<AttributeSet> MinimalSets(std::vector<AttributeSet> sets) {
  return FilterDominated(std::move(sets), /*maximal=*/false);
}

std::vector<AttributeSet> MaximalSetsNaive(std::vector<AttributeSet> sets) {
  CanonicalOrder(&sets, /*largest_first=*/true);
  return SurvivorScan(sets, /*maximal=*/true);
}

std::vector<AttributeSet> MinimalSetsNaive(std::vector<AttributeSet> sets) {
  CanonicalOrder(&sets, /*largest_first=*/false);
  return SurvivorScan(sets, /*maximal=*/false);
}

}  // namespace depminer
