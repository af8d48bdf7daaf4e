#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/attribute_set.h"
#include "fd/fd_set.h"
#include "relation/relation.h"

namespace depminer::testing {

/// The paper's running example (§3, Example 1): the employee/department
/// assignment relation with attributes A=empnum, B=depnum, C=year,
/// D=depname, E=mgr and seven tuples.
Relation PaperExampleRelation();

/// Builds a small random relation: each cell drawn from a pool of
/// `domain` values. Deterministic per seed.
Relation RandomRelation(size_t num_attributes, size_t num_tuples,
                        size_t domain, uint64_t seed);

/// Builds one FD from letter notation, e.g. Fd("BC", 'A') is BC → A.
FunctionalDependency Fd(const std::string& lhs_letters, char rhs_letter);

/// Builds a family of attribute sets from letter strings, sorted
/// canonically; "" denotes the empty set.
std::vector<AttributeSet> Sets(const std::vector<std::string>& letters);

/// Renders a family of sets as "A,BC,DE" for readable failure messages.
std::string SetsToString(const std::vector<AttributeSet>& sets);

/// True iff both FD sets imply each other (cover equivalence).
bool CoverEquivalent(const FdSet& a, const FdSet& b);

/// Asserts that `fds` is exactly the set of minimal non-trivial FDs of
/// `relation`: each holds, each is lhs-minimal, and nothing the
/// exhaustive oracle finds is missing.
::testing::AssertionResult IsExactMinimalFdSetOf(const Relation& relation,
                                                 const FdSet& fds);

/// The bytes of file `path` (empty when it cannot be read).
std::string ReadFileBytes(const std::string& path);

/// Replaces file `path` with `bytes`.
void WriteFileBytes(const std::string& path, std::string_view bytes);

/// Overwrites the `width` bytes at `offset` of `bytes` with `v`,
/// little-endian — for doctoring a field of a binary file.
void PutLe(std::string* bytes, size_t offset, uint64_t v, size_t width);

}  // namespace depminer::testing
