#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/attribute_set.h"
#include "relation/relation.h"

namespace depminer {

/// One equivalence class: the ids of the tuples that share a value
/// combination, in increasing order.
using EquivalenceClass = std::vector<TupleId>;

/// A read-only view of one equivalence class, as a `StrippedPartition`
/// hands out the classes it stores flat. It compares equal to, and
/// converts to, the `EquivalenceClass` holding the same ids.
class ClassView : public std::span<const TupleId> {
 public:
  using std::span<const TupleId>::span;

  operator EquivalenceClass() const { return EquivalenceClass(begin(), end()); }

  friend bool operator==(ClassView a, const EquivalenceClass& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
};

/// A partition π_X of the tuples of a relation under an attribute set X:
/// tuples are in the same class iff they agree on all of X (the paper's
/// §3.1, after [CKS86, Spy87, HKPT98]).
///
/// Classes are stored sorted by their smallest tuple id; within each class
/// tuple ids are increasing. `num_tuples` records |r| so that error
/// measures and stripping are well defined even for partitions whose
/// singleton classes were dropped.
class Partition {
 public:
  Partition() = default;
  Partition(std::vector<EquivalenceClass> classes, size_t num_tuples);

  /// Builds π_A for a single attribute from the relation's code column.
  /// O(|r|) time using the dictionary codes as dense bucket indices.
  static Partition ForAttribute(const Relation& relation, AttributeId a);

  /// Builds π_X for an attribute set by products of single attributes,
  /// or directly by hashing the code combinations. Used by tests and the
  /// naive discovery oracle. O(|r| · |X|).
  static Partition ForSet(const Relation& relation, const AttributeSet& x);

  const std::vector<EquivalenceClass>& classes() const { return classes_; }
  size_t num_classes() const { return classes_.size(); }
  size_t num_tuples() const { return num_tuples_; }

  /// Number of tuples covered by the stored classes (≤ num_tuples once
  /// stripped).
  size_t CoveredTuples() const;

  /// True iff this partition refines `other`: every class of this is a
  /// subset of some class of `other`. π_X refines π_Y whenever Y ⊆ X.
  bool Refines(const Partition& other) const;

  /// Rank ||π|| = number of classes counting singletons: for stripped
  /// inputs the implicit singletons are added back.
  size_t Rank() const;

  /// The TANE error e(X)·|r| = (covered tuples) − (number of stored
  /// non-singleton classes): the minimum number of tuples to remove so
  /// that X becomes a superkey.
  size_t ErrorCount() const;

  std::string ToString() const;

  bool operator==(const Partition& o) const {
    return num_tuples_ == o.num_tuples_ && classes_ == o.classes_;
  }

 private:
  std::vector<EquivalenceClass> classes_;
  size_t num_tuples_ = 0;
};

}  // namespace depminer
