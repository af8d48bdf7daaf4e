#include "partition/stripped_partition.h"

#include <algorithm>

namespace depminer {

StrippedPartition::Classes::operator std::vector<EquivalenceClass>() const {
  std::vector<EquivalenceClass> out;
  out.reserve(count_);
  for (const ClassView c : *this) out.emplace_back(c.begin(), c.end());
  return out;
}

StrippedPartition::StrippedPartition(std::vector<EquivalenceClass> classes,
                                     size_t num_tuples)
    : num_tuples_(num_tuples) {
  std::vector<EquivalenceClass*> kept;
  size_t memberships = 0;
  for (EquivalenceClass& c : classes) {
    if (c.size() > 1) {
      std::sort(c.begin(), c.end());
      kept.push_back(&c);
      memberships += c.size();
    }
  }
  std::sort(kept.begin(), kept.end(),
            [](const EquivalenceClass* a, const EquivalenceClass* b) {
              return a->front() < b->front();
            });
  tuples_.reserve(memberships);
  offsets_.reserve(kept.size() + 1);
  for (const EquivalenceClass* c : kept) {
    tuples_.insert(tuples_.end(), c->begin(), c->end());
    offsets_.push_back(static_cast<uint32_t>(tuples_.size()));
  }
}

StrippedPartition StrippedPartition::FromPartition(const Partition& partition) {
  return StrippedPartition(partition.classes(), partition.num_tuples());
}

StrippedPartition StrippedPartition::ForAttribute(const Relation& relation,
                                                  AttributeId a) {
  // Counting sort over the code column: only codes shared by ≥ 2 tuples
  // get a class, numbered when its first tuple is met, so scanning tuples
  // in order yields the canonical layout (classes by first tuple, tuples
  // increasing) whatever order the codes were assigned in. A second scan
  // drops each tuple at its class's next free slot.
  const std::vector<ValueCode>& column = relation.Column(a);
  std::vector<uint32_t> count(relation.DistinctCount(a), 0);
  for (const ValueCode code : column) ++count[code];
  constexpr uint32_t kNoClass = static_cast<uint32_t>(-1);
  std::vector<uint32_t> class_of(count.size(), kNoClass);
  StrippedPartition out;
  out.num_tuples_ = column.size();
  for (const ValueCode code : column) {
    if (count[code] < 2 || class_of[code] != kNoClass) continue;
    class_of[code] = static_cast<uint32_t>(out.offsets_.size() - 1);
    out.offsets_.push_back(out.offsets_.back() + count[code]);
  }
  // Each class's next free slot, starting at its offset.
  std::vector<uint32_t> cursor(out.offsets_.begin(), out.offsets_.end() - 1);
  out.tuples_.resize(out.offsets_.back());
  for (TupleId t = 0; t < column.size(); ++t) {
    const uint32_t id = class_of[column[t]];
    if (id != kNoClass) out.tuples_[cursor[id]++] = t;
  }
  return out;
}

Partition StrippedPartition::Unstrip() const {
  std::vector<bool> covered(num_tuples_, false);
  std::vector<EquivalenceClass> classes = this->classes();
  for (TupleId t : tuples_) covered[t] = true;
  for (TupleId t = 0; t < num_tuples_; ++t) {
    if (!covered[t]) classes.push_back({t});
  }
  return Partition(std::move(classes), num_tuples_);
}

std::string StrippedPartition::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const ClassView c : classes()) {
    if (!first) out += ", ";
    first = false;
    out += '{';
    for (size_t j = 0; j < c.size(); ++j) {
      if (j > 0) out += ',';
      out += std::to_string(c[j] + 1);
    }
    out += '}';
  }
  out += '}';
  return out;
}

}  // namespace depminer
