#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relation/relation.h"

namespace depminer {

/// Incrementally builds a `Relation`, dictionary-encoding values row by
/// row. Each column's dictionary stores every distinct value once, behind
/// an open-addressing index of codes; codes are assigned in
/// first-occurrence order. Usage:
///
///   RelationBuilder b(Schema::Default(3));
///   b.AddRow({"1", "x", "y"});
///   Result<Relation> r = std::move(b).Finish();
class RelationBuilder {
 public:
  explicit RelationBuilder(Schema schema);

  /// Enables SQL-style NULL semantics: subsequent cells equal to `token`
  /// each receive a fresh dictionary code, so they agree with nothing
  /// (not even another NULL). Rendered back as the token itself.
  void TreatAsNull(std::string token) {
    null_token_ = std::move(token);
    has_null_token_ = true;
  }

  /// Appends one tuple; `values.size()` must equal the attribute count.
  Status AddRow(const std::vector<std::string>& values);
  /// Same, from `count` views (the CSV tokenizer's fields).
  Status AddRow(const std::string_view* values, size_t count);

  /// Appends one tuple of pre-encoded codes; the builder assigns each
  /// distinct code a synthetic string value ("v<code>"). Used by the
  /// synthetic data generator, which thinks in code space.
  Status AddCodedRow(const std::vector<ValueCode>& codes);

  size_t num_rows() const { return num_rows_; }
  /// The working set a governed load charges: one code per cell plus
  /// each dictionary value's bytes.
  size_t working_bytes() const {
    return num_rows_ * columns_.size() * sizeof(ValueCode) + value_bytes_;
  }

  /// Finalizes into an immutable Relation. The builder is consumed.
  Result<Relation> Finish() &&;

 private:
  /// Open-addressing index from one column's values to their codes.
  /// Each slot packs (hash tag << 32 | code + 1); 0 marks a vacant slot.
  struct ValueIndex {
    std::vector<uint64_t> slots;
    size_t used = 0;
  };

  Status CheckArity(size_t count) const;
  /// The code of `value` in column `a`, added to the dictionary if new;
  /// `tag` is the high half of the value's hash.
  ValueCode Encode(size_t a, std::string_view value, uint64_t tag);

  Schema schema_;
  size_t num_rows_ = 0;
  bool has_null_token_ = false;
  std::string null_token_;
  std::vector<std::vector<ValueCode>> columns_;
  std::vector<std::vector<std::string>> dictionaries_;
  size_t value_bytes_ = 0;  ///< bytes of every dictionary value
  std::vector<ValueIndex> index_;
  /// Per-row scratch: the values' hash tags, and views of a string row.
  std::vector<uint64_t> tags_;
  std::vector<std::string_view> row_;
  /// Set by AddCodedRow, whose codes Finish must densify.
  bool coded_rows_ = false;
};

/// Convenience: builds a relation from rows of strings with the given
/// schema.
Result<Relation> MakeRelation(Schema schema,
                              const std::vector<std::vector<std::string>>& rows);

/// Convenience for tests: builds a relation over Schema::Default with rows
/// given as string values.
Result<Relation> MakeRelation(const std::vector<std::vector<std::string>>& rows);

}  // namespace depminer
