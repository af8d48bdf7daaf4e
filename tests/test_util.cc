#include "test_util.h"

#include <fstream>
#include <iterator>

#include "common/rng.h"
#include "fd/naive_discovery.h"
#include "fd/satisfaction.h"
#include "relation/relation_builder.h"

namespace depminer::testing {

Relation PaperExampleRelation() {
  // Tuple No. | empnum depnum year depname mgr
  Result<Relation> r = MakeRelation(
      Schema({"empnum", "depnum", "year", "depname", "mgr"}),
      {
          {"1", "1", "85", "Biochemistry", "5"},
          {"1", "5", "94", "Admission", "12"},
          {"2", "2", "92", "Computer Sce", "2"},
          {"3", "2", "98", "Computer Sce", "2"},
          {"4", "3", "98", "Geophysics", "2"},
          {"5", "1", "75", "Biochemistry", "5"},
          {"6", "5", "88", "Admission", "12"},
      });
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

Relation RandomRelation(size_t num_attributes, size_t num_tuples,
                        size_t domain, uint64_t seed) {
  Rng rng(seed);
  RelationBuilder builder(Schema::Default(num_attributes));
  std::vector<ValueCode> row(num_attributes);
  for (size_t t = 0; t < num_tuples; ++t) {
    for (size_t a = 0; a < num_attributes; ++a) {
      row[a] = static_cast<ValueCode>(rng.Below(domain));
    }
    Status st = builder.AddCodedRow(row);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  Result<Relation> r = std::move(builder).Finish();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

FunctionalDependency Fd(const std::string& lhs_letters, char rhs_letter) {
  return {AttributeSet::FromLetters(lhs_letters),
          static_cast<AttributeId>(rhs_letter - 'A')};
}

std::vector<AttributeSet> Sets(const std::vector<std::string>& letters) {
  std::vector<AttributeSet> out;
  out.reserve(letters.size());
  for (const std::string& s : letters) {
    out.push_back(AttributeSet::FromLetters(s));
  }
  SortSets(&out);
  return out;
}

std::string SetsToString(const std::vector<AttributeSet>& sets) {
  std::string out;
  for (const AttributeSet& s : sets) {
    if (!out.empty()) out += ',';
    out += s.ToString();
  }
  return out;
}

bool CoverEquivalent(const FdSet& a, const FdSet& b) {
  return a.EquivalentTo(b);
}

::testing::AssertionResult IsExactMinimalFdSetOf(const Relation& relation,
                                                 const FdSet& fds) {
  for (const FunctionalDependency& fd : fds.fds()) {
    if (fd.IsTrivial()) {
      return ::testing::AssertionFailure()
             << "trivial FD reported: " << fd.ToString();
    }
    if (!Holds(relation, fd)) {
      return ::testing::AssertionFailure()
             << "reported FD does not hold: " << fd.ToString();
    }
    if (!IsMinimalFd(relation, fd)) {
      return ::testing::AssertionFailure()
             << "reported FD is not minimal: " << fd.ToString();
    }
  }
  const FdSet oracle = NaiveFdDiscovery(relation);
  // Exactness: same canonical set, element for element.
  if (oracle.fds() != fds.fds()) {
    FdSet missing(oracle.num_attributes());
    for (const FunctionalDependency& fd : oracle.fds()) {
      bool present = false;
      for (const FunctionalDependency& got : fds.fds()) {
        if (fd == got) {
          present = true;
          break;
        }
      }
      if (!present) missing.Add(fd);
    }
    return ::testing::AssertionFailure()
           << "mismatch with exhaustive oracle; missing: {"
           << missing.ToString() << "}, got " << fds.size() << " vs oracle "
           << oracle.size();
  }
  return ::testing::AssertionSuccess();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void PutLe(std::string* bytes, size_t offset, uint64_t v, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    (*bytes)[offset + i] = static_cast<char>(v >> (8 * i));
  }
}

}  // namespace depminer::testing
