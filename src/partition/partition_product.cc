#include "partition/partition_product.h"

#include <cassert>

namespace depminer {

PartitionProductWorkspace::PartitionProductWorkspace(size_t num_tuples)
    : class_of_(num_tuples, 0) {}

StrippedPartition PartitionProductWorkspace::Product(
    const StrippedPartition& lhs, const StrippedPartition& rhs) {
  assert(lhs.num_tuples() == rhs.num_tuples());
  assert(class_of_.size() >= lhs.num_tuples());

  // Pass 1: label every tuple of a non-singleton lhs class with its class
  // index (+1).
  const StrippedPartition::Classes lhs_classes = lhs.classes();
  if (scratch_.size() < lhs_classes.size()) {
    scratch_.resize(lhs_classes.size());
  }
  for (size_t i = 0; i < lhs_classes.size(); ++i) {
    for (TupleId t : lhs_classes[i]) {
      class_of_[t] = static_cast<uint32_t>(i) + 1;
    }
  }

  // Pass 2: walk rhs classes; tuples sharing both an rhs class and an lhs
  // label belong to a common product class.
  std::vector<EquivalenceClass> result;
  std::vector<uint32_t> touched;
  for (const ClassView rc : rhs.classes()) {
    touched.clear();
    for (TupleId t : rc) {
      const uint32_t label = class_of_[t];
      if (label == 0) continue;
      std::vector<TupleId>& bucket = scratch_[label - 1];
      if (bucket.empty()) touched.push_back(label - 1);
      bucket.push_back(t);
    }
    for (uint32_t i : touched) {
      std::vector<TupleId>& bucket = scratch_[i];
      if (bucket.size() > 1) {
        result.push_back(bucket);
      }
      bucket.clear();
    }
  }

  // Reset labels for the next call.
  for (const ClassView c : lhs_classes) {
    for (TupleId t : c) class_of_[t] = 0;
  }

  return StrippedPartition(std::move(result), lhs.num_tuples());
}

StrippedPartition PartitionProduct(const StrippedPartition& lhs,
                                   const StrippedPartition& rhs) {
  PartitionProductWorkspace ws(lhs.num_tuples());
  return ws.Product(lhs, rhs);
}

}  // namespace depminer
