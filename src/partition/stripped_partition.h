#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "partition/partition.h"

namespace depminer {

/// A stripped partition π̂_X: the equivalence classes of π_X of size > 1
/// (paper §3.1). Singleton classes carry no agree-set information — a
/// tuple alone in its class shares its X-value with no other tuple — so
/// dropping them shrinks the representation dramatically on real data.
///
/// Classes are stored flat: every membership in one array, class after
/// class, plus one offset per class. Building, copying or freeing a
/// partition is then a handful of allocations, not one per class.
/// `classes()` hands the classes out as `ClassView`s, in canonical order
/// (by smallest tuple id; ids increasing within a class).
class StrippedPartition {
 public:
  /// The classes of a partition, as a range of views into its storage;
  /// valid while the partition lives and is not modified.
  class Classes {
   public:
    class Iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = ClassView;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = ClassView;

      Iterator() = default;
      Iterator(const TupleId* tuples, const uint32_t* offset)
          : tuples_(tuples), offset_(offset) {}

      ClassView operator*() const {
        return ClassView(tuples_ + offset_[0], offset_[1] - offset_[0]);
      }
      Iterator& operator++() {
        ++offset_;
        return *this;
      }
      Iterator operator++(int) {
        Iterator old = *this;
        ++offset_;
        return old;
      }
      bool operator==(const Iterator& o) const { return offset_ == o.offset_; }

     private:
      const TupleId* tuples_ = nullptr;
      const uint32_t* offset_ = nullptr;
    };

    Classes(const TupleId* tuples, const uint32_t* offsets, size_t count)
        : tuples_(tuples), offsets_(offsets), count_(count) {}

    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    ClassView operator[](size_t i) const {
      return ClassView(tuples_ + offsets_[i], offsets_[i + 1] - offsets_[i]);
    }
    ClassView front() const { return (*this)[0]; }
    ClassView back() const { return (*this)[count_ - 1]; }
    Iterator begin() const { return Iterator(tuples_, offsets_); }
    Iterator end() const { return Iterator(tuples_, offsets_ + count_); }

    /// Copies the classes out, one vector each.
    operator std::vector<EquivalenceClass>() const;

   private:
    const TupleId* tuples_;
    const uint32_t* offsets_;
    size_t count_;
  };

  StrippedPartition() = default;
  /// Keeps the classes of size > 1, in canonical order.
  StrippedPartition(std::vector<EquivalenceClass> classes, size_t num_tuples);

  /// Strips an ordinary partition.
  static StrippedPartition FromPartition(const Partition& partition);

  /// Builds π̂_A directly from the relation's code column by counting
  /// sort, in O(|r| + |π_A(r)|): codes need not be in first-occurrence
  /// order. Equals FromPartition(Partition::ForAttribute(relation, a)).
  static StrippedPartition ForAttribute(const Relation& relation,
                                        AttributeId a);

  Classes classes() const {
    return Classes(tuples_.data(), offsets_.data(), num_classes());
  }
  size_t num_classes() const { return offsets_.size() - 1; }
  size_t num_tuples() const { return num_tuples_; }
  bool Empty() const { return num_classes() == 0; }

  /// ∑ |c| over stored classes.
  size_t CoveredTuples() const { return tuples_.size(); }

  /// Converts back to a full Partition by re-adding singleton classes for
  /// every uncovered tuple. Used by tests for refinement laws.
  Partition Unstrip() const;

  std::string ToString() const;

  bool operator==(const StrippedPartition& o) const {
    return num_tuples_ == o.num_tuples_ && offsets_ == o.offsets_ &&
           tuples_ == o.tuples_;
  }

 private:
  /// Memberships, class after class.
  std::vector<TupleId> tuples_;
  /// Class i is tuples_[offsets_[i], offsets_[i + 1]).
  std::vector<uint32_t> offsets_{0};
  size_t num_tuples_ = 0;
};

}  // namespace depminer
