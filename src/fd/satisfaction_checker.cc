#include "fd/satisfaction_checker.h"

namespace depminer {

namespace {

size_t ErrorOf(const StrippedPartition& p) {
  return p.CoveredTuples() - p.num_classes();
}

}  // namespace

SatisfactionChecker::SatisfactionChecker(const Relation& relation)
    : relation_(relation), workspace_(relation.num_tuples()) {}

const StrippedPartition& SatisfactionChecker::PartitionFor(
    const AttributeSet& x) {
  auto it = cache_.find(x);
  if (it != cache_.end()) return it->second;

  StrippedPartition built;
  if (x.Empty()) {
    EquivalenceClass all(relation_.num_tuples());
    for (TupleId t = 0; t < relation_.num_tuples(); ++t) all[t] = t;
    built = StrippedPartition({std::move(all)}, relation_.num_tuples());
  } else if (x.Count() == 1) {
    built = StrippedPartition::ForAttribute(relation_, x.Min());
  } else {
    // Peel the highest attribute: product of the (memoized) rest with the
    // single-attribute partition. This builds a chain of cached products,
    // so lattice-shaped query mixes share prefixes.
    const AttributeId top = x.Max();
    AttributeSet rest = x;
    rest.Remove(top);
    // Note: both operands are cached before the product, so the
    // references stay valid while computing.
    const StrippedPartition& left = PartitionFor(rest);
    const StrippedPartition& right =
        PartitionFor(AttributeSet::Single(top));
    built = workspace_.Product(left, right);
  }
  return cache_.emplace(x, std::move(built)).first->second;
}

bool SatisfactionChecker::Holds(const AttributeSet& lhs, AttributeId rhs) {
  if (lhs.Contains(rhs)) return true;
  AttributeSet both = lhs;
  both.Add(rhs);
  // X → A ⇔ e(π̂_X) = e(π̂_{X∪A}) (π_{X∪A} refines π_X).
  const size_t lhs_error = ErrorOf(PartitionFor(lhs));
  const size_t both_error = ErrorOf(PartitionFor(both));
  return lhs_error == both_error;
}

bool SatisfactionChecker::IsMinimal(const FunctionalDependency& fd) {
  if (!Holds(fd)) return false;
  bool minimal = true;
  fd.lhs.ForEach([&](AttributeId a) {
    AttributeSet reduced = fd.lhs;
    reduced.Remove(a);
    if (Holds(reduced, fd.rhs)) minimal = false;
  });
  return minimal;
}

}  // namespace depminer
