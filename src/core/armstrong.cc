#include "core/armstrong.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>

#include "common/trace.h"
#include "relation/relation_builder.h"

namespace depminer {

namespace {

/// The closure of X in CL(dep(r)): the intersection of every maximal set
/// containing X, defaulting to R (the empty intersection). Correct because
/// MAX(dep(r)) = GEN(dep(r)) is the family of meet-irreducible closed sets.
AttributeSet ClosureViaMaxSets(const AttributeSet& x, size_t n,
                               const std::vector<AttributeSet>& max_sets) {
  AttributeSet closure = AttributeSet::Universe(n);
  for (const AttributeSet& m : max_sets) {
    if (x.IsSubsetOf(m)) closure = closure.Intersect(m);
  }
  return closure;
}

/// The values of A Equation 2 needs: |{X ∈ MAX(dep(r)) : A ∉ X}| + 1.
size_t ValuesNeeded(AttributeId a, const std::vector<AttributeSet>& max_sets) {
  size_t excluding = 0;
  for (const AttributeSet& m : max_sets) {
    if (!m.Contains(a)) ++excluding;
  }
  return excluding + 1;
}

/// Proposition 1 for attribute `a`: its `count` distinct values must
/// cover the `needed` ones.
Status CheckProposition1(const Schema& schema, AttributeId a, size_t count,
                         size_t needed) {
  if (count >= needed) return Status::OK();
  return Status::FailedPrecondition(
      "attribute '" + schema.name(a) + "' has " + std::to_string(count) +
      " distinct values; needs " + std::to_string(needed) +
      " (Proposition 1)");
}

}  // namespace

size_t ArmstrongValues(const Relation& relation, AttributeId a, size_t limit,
                       std::vector<std::string>* values) {
  const std::vector<std::string>& dictionary = relation.Dictionary(a);
  // Open addressing over dictionary positions (+1; 0 is vacant). A loaded
  // dictionary repeats only the NULL token, one entry per NULL cell, so a
  // probe seldom compares strings.
  std::vector<uint32_t> slots(std::bit_ceil(2 * dictionary.size() + 1));
  const size_t mask = slots.size() - 1;
  size_t count = 0;
  for (uint32_t i = 0; i < dictionary.size(); ++i) {
    size_t s = std::hash<std::string>{}(dictionary[i]) & mask;
    while (slots[s] != 0 && dictionary[slots[s] - 1] != dictionary[i]) {
      s = (s + 1) & mask;
    }
    if (slots[s] != 0) continue;
    slots[s] = i + 1;
    if (count++ < limit) values->push_back(dictionary[i]);
  }
  return count;
}

Result<Relation> BuildSyntheticArmstrong(
    const Schema& schema, const std::vector<AttributeSet>& max_sets) {
  const size_t n = schema.num_attributes();
  if (n == 0) {
    return Status::InvalidArgument(
        "synthetic Armstrong construction needs a non-empty schema");
  }
  const AttributeSet universe = AttributeSet::Universe(n);
  for (const AttributeSet& m : max_sets) {
    if (!m.IsSubsetOf(universe)) {
      return Status::InvalidArgument(
          "max set " + m.ToString() + " names attributes outside the " +
          std::to_string(n) + "-attribute schema");
    }
  }
  RelationBuilder builder(schema);

  // C = {X_0 = R} ∪ MAX(dep(r)); tuple i gets 0 on X_i and i elsewhere
  // (Equation 1).
  std::vector<std::string> row(n, "0");
  DEPMINER_RETURN_NOT_OK(builder.AddRow(row));
  for (size_t i = 0; i < max_sets.size(); ++i) {
    for (AttributeId a = 0; a < n; ++a) {
      row[a] = max_sets[i].Contains(a) ? "0" : std::to_string(i + 1);
    }
    DEPMINER_RETURN_NOT_OK(builder.AddRow(row));
  }
  return std::move(builder).Finish();
}

Status RealWorldArmstrongExists(const Relation& relation,
                                const std::vector<AttributeSet>& max_sets) {
  for (AttributeId a = 0; a < relation.num_attributes(); ++a) {
    DEPMINER_RETURN_NOT_OK(CheckProposition1(
        relation.schema(), a, ArmstrongValues(relation, a, 0, nullptr),
        ValuesNeeded(a, max_sets)));
  }
  return Status::OK();
}

Result<Relation> BuildRealWorldArmstrong(
    const Relation& relation, const std::vector<AttributeSet>& max_sets,
    RunContext* ctx) {
  std::vector<std::vector<std::string>> samples;
  std::vector<size_t> counts;
  for (AttributeId a = 0; a < relation.num_attributes(); ++a) {
    counts.push_back(ArmstrongValues(relation, a, SIZE_MAX,
                                     &samples.emplace_back()));
  }
  return BuildRealWorldArmstrongFromSamples(relation.schema(), samples,
                                            counts, max_sets, ctx);
}

Result<Relation> BuildRealWorldArmstrongFromSamples(
    const Schema& schema,
    const std::vector<std::vector<std::string>>& value_samples,
    const std::vector<size_t>& distinct_counts,
    const std::vector<AttributeSet>& max_sets, RunContext* ctx) {
  DEPMINER_TRACE_SPAN(span, "armstrong/build");
  span.SetValue(max_sets.size());
  const size_t n = schema.num_attributes();
  if (value_samples.size() != n || distinct_counts.size() != n) {
    return Status::InvalidArgument("samples/counts arity mismatch");
  }

  // Proposition 1, judged on the true distinct counts.
  for (AttributeId a = 0; a < n; ++a) {
    const size_t needed = ValuesNeeded(a, max_sets);
    DEPMINER_RETURN_NOT_OK(
        CheckProposition1(schema, a, distinct_counts[a], needed));
    if (value_samples[a].size() < std::min(distinct_counts[a], needed)) {
      return Status::CapacityExceeded(
          "attribute '" + schema.name(a) + "': value sample holds " +
          std::to_string(value_samples[a].size()) + " values, construction "
          "needs " + std::to_string(needed) +
          " — raise StreamingOptions::value_sample_size");
    }
  }

  RelationBuilder builder(schema);

  // Equation 2, with one refinement: where the paper indexes the
  // replacement value v_{A,i} by the tuple's global index i, we index by
  // the *rank* of i among the tuples that disagree with t_0 on A. The
  // agree-set structure is identical — t_i[A] = t_0[A] iff A ∈ X_i, and
  // distinct disagreeing tuples get distinct values — but rank indexing
  // needs exactly the |{X : A ∉ X}| + 1 distinct values Proposition 1
  // guarantees, whereas global indexing can demand more than the initial
  // relation has.
  std::vector<size_t> next_value(n, 1);

  std::vector<std::string> row(n);
  for (AttributeId a = 0; a < n; ++a) row[a] = value_samples[a][0];
  DEPMINER_RETURN_NOT_OK(builder.AddRow(row));

  for (const AttributeSet& x : max_sets) {
    DEPMINER_CHECK_RUN(ctx);
    for (AttributeId a = 0; a < n; ++a) {
      const std::vector<std::string>& values = value_samples[a];
      row[a] = x.Contains(a) ? values[0] : values[next_value[a]++];
    }
    DEPMINER_RETURN_NOT_OK(builder.AddRow(row));
  }
  return std::move(builder).Finish();
}

bool IsArmstrongFor(const Relation& candidate,
                    const std::vector<AttributeSet>& max_sets) {
  const size_t n = candidate.num_attributes();
  const size_t p = candidate.num_tuples();

  // ag(candidate), by the quadratic definition — Armstrong relations are
  // tiny.
  std::vector<AttributeSet> agree;
  for (TupleId i = 0; i < p; ++i) {
    for (TupleId j = i + 1; j < p; ++j) {
      agree.push_back(candidate.AgreeSetOf(i, j));
    }
  }

  // GEN(F) ⊆ ag(candidate): every maximal set must be realized by a pair.
  for (const AttributeSet& m : max_sets) {
    bool found = false;
    for (const AttributeSet& s : agree) {
      if (s == m) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }

  // ag(candidate) ⊆ CL(F): every agree set must be closed.
  for (const AttributeSet& s : agree) {
    if (s != ClosureViaMaxSets(s, n, max_sets)) return false;
  }
  return true;
}

}  // namespace depminer
