#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "relation/relation.h"

namespace depminer {

class RetryingFileStream;

/// Options for `ReadCsvRelation`.
struct CsvOptions {
  char delimiter = ',';
  /// If true, the first row provides attribute names; otherwise a default
  /// A, B, C, ... schema is synthesized.
  bool has_header = true;
  /// Recognize RFC 4180 double-quoted fields ("a,b" and "" escapes).
  bool allow_quoting = true;
  /// SQL-style NULL semantics: when true, cells equal to `null_token`
  /// compare unequal to *everything*, including other NULLs — they never
  /// contribute to an agree set, so `NULL` in a column cannot witness or
  /// found an FD. When false (default), the token is an ordinary value
  /// (two empty cells agree).
  bool nulls_distinct = false;
  /// The cell content treated as NULL when `nulls_distinct` is set.
  std::string null_token;
};

/// Checks that `options` tokenize unambiguously. The delimiter may not
/// be CR, LF or NUL (they end lines or mark binary input), nor `"` while
/// quoting is on. Every reader below runs this check before it reads a
/// byte, so a bad delimiter is an InvalidArgument, never a misparse.
Status ValidateCsvOptions(const CsvOptions& options);

/// Sets `options->delimiter` from a user-supplied argument (a command-line
/// flag, a request parameter). The argument must be exactly one byte and
/// pass ValidateCsvOptions; anything else is InvalidArgument.
Status SetCsvDelimiter(std::string_view arg, CsvOptions* options);

/// Incremental CSV record reader: the single-pass tokenizer behind every
/// CSV load (the relation loader, and through it the streaming partition
/// extractor). It reads input in 64 KiB blocks (or tokenizes in-memory
/// text in place), finds delimiters, newlines and quotes with `memchr`
/// scans, and yields fields as views into the block; only quoted content
/// is copied, unescaped, to a reused scratch buffer.
///
/// Quoting (RFC 4180 style, as Python's `csv` module reads it): a `"`
/// opens a quoted field only at the start of a field; inside one, `""` is
/// a literal quote and a lone `"` closes it, after which the field
/// continues unquoted up to the next delimiter. Quoted fields may hold
/// delimiters and newlines. A `"` anywhere else is an ordinary byte.
/// A CR right before a LF (or before end of input) is dropped on every
/// physical line, quoted or not.
///
/// Malformed input — a quoted field still open at end of input, or a NUL
/// byte in a record — stops iteration with a sticky non-OK `status()`;
/// callers must distinguish "end of input" (`status().ok()`) from "bad
/// input" after `Next` returns false. Blank records before the first real
/// record are skipped, so a file of only (CR)LFs reads as empty input; a
/// trailing newline does not start a record.
class CsvRecordReader {
 public:
  /// Tokenizes `text` in place; it must outlive the reader.
  CsvRecordReader(std::string_view text, const CsvOptions& options);
  /// Reads a file block by block; short reads pass through unchanged.
  CsvRecordReader(RetryingFileStream& in, const CsvOptions& options);

  CsvRecordReader(const CsvRecordReader&) = delete;
  CsvRecordReader& operator=(const CsvRecordReader&) = delete;

  /// Reads the next record into `fields`; returns false at end of input
  /// or on malformed input (then `status()` is non-OK). The views stay
  /// valid until the next call.
  bool Next(std::vector<std::string_view>* fields);

  /// OK until malformed input is hit, then the (sticky) parse error.
  const Status& status() const { return status_; }

  size_t records_read() const { return records_read_; }

 private:
  /// Where one field's bytes live: relative to the record start in the
  /// input window, or in `scratch_`.
  struct FieldSpan {
    size_t offset;
    size_t size;
    bool in_scratch;
  };
  /// How a tokenized record ended.
  struct RecordEnd {
    bool blank = false;   ///< no bytes besides a dropped CR
    bool at_eof = false;  ///< ended by end of input, not by a LF
  };

  /// Tokenizes the record at `pos_` into `spans_`; false at end of input
  /// or on malformed input (then `status_` says which).
  bool Tokenize(RecordEnd* end);
  /// Scans an unquoted run from record offset `i` to the next delimiter,
  /// LF or end of input; returns the stop offset and sets `*at_line_end`
  /// unless a delimiter stopped it.
  size_t ScanUnquoted(size_t i, bool* at_line_end);
  /// Copies the quoted section opening at record offset `*i` into
  /// `scratch_`, unescaped, and moves `*i` past its closing quote; false
  /// when the input ends inside it.
  bool ScanQuoted(size_t* i);
  /// Appends quoted content to `scratch_`, dropping each CR before a LF.
  void AppendQuoted(const char* p, size_t n);
  /// True once record byte `i` is in the window (reading more if needed).
  bool Have(size_t i) { return pos_ + i < end_ || FillTo(i); }
  bool FillTo(size_t i);
  /// Appends one block to the window, first dropping consumed records.
  bool Refill();
  const char* RecordData() const { return data_ + pos_; }

  const CsvOptions options_;
  /// Block source; null for in-memory text.
  RetryingFileStream* file_ = nullptr;
  std::vector<char> buffer_;  ///< owned window storage (block sources)
  const char* data_ = nullptr;
  size_t end_ = 0;  ///< bytes in the window
  size_t pos_ = 0;  ///< start of the current record in the window
  bool eof_ = false;
  /// ScanUnquoted's cache of the current line's end: the record offset
  /// of the next LF when `line_end_known_`, else the offset up to which
  /// the record holds no LF.
  size_t line_end_ = 0;
  bool line_end_known_ = false;
  std::vector<FieldSpan> spans_;
  std::string scratch_;
  /// The last tokenized record's first byte (valid until the next call).
  const char* record_base_ = nullptr;
  Status status_;
  size_t records_read_ = 0;
};

/// Reads a CSV file into a dictionary-encoded `Relation`.
///
/// This replaces the paper's ODBC access path: the single pass over the
/// data that builds the stripped partition database starts from here.
/// Rejects ragged rows (IoError) and empty inputs (InvalidArgument).
///
/// A non-null `ctx` governs the load: every 1024 records and once after
/// the last, the builder's working set (a code per cell, each distinct
/// value once) is charged to it and the `alloc/streaming` fault site and
/// the context are polled. A trip fails the load with the context's
/// status; a partial relation would yield wrong FDs, not partial ones.
Result<Relation> ReadCsvRelation(const std::string& path,
                                 const CsvOptions& options = {},
                                 RunContext* ctx = nullptr);

/// Parses CSV from an already-loaded string, tokenizing it in place.
Result<Relation> ParseCsvRelation(const std::string& content,
                                  const CsvOptions& options = {},
                                  RunContext* ctx = nullptr);

/// Writes a relation back out as CSV (with header). Quotes fields that
/// contain the delimiter, quotes or newlines.
Status WriteCsvRelation(const Relation& relation, const std::string& path,
                        const CsvOptions& options = {});

/// Serializes to a CSV string (used by tests for round-tripping).
std::string CsvToString(const Relation& relation,
                        const CsvOptions& options = {});

}  // namespace depminer
