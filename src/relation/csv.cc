#include "relation/csv.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <optional>

#include "common/file_reader.h"
#include "common/progress.h"
#include "fault/fault.h"
#include "relation/relation_builder.h"

namespace depminer {

namespace {

/// Bytes a block source is asked for per read.
constexpr size_t kBlockSize = 64 * 1024;

/// Records between two governance polls of a load.
constexpr size_t kPollEveryRecords = 1024;

/// One governance poll of a load (see ReadCsvRelation).
Status PollLoad(const RelationBuilder& builder, ScopedMemoryCharge* memory,
                RunContext* ctx) {
  memory->Set(builder.working_bytes());
  DEPMINER_FAULT_ALLOC("alloc/streaming", ctx);
  DEPMINER_CHECK_RUN(ctx);
  return Status::OK();
}

Result<Relation> ParseRelation(CsvRecordReader& reader,
                               const CsvOptions& options,
                               const std::string& origin, RunContext* ctx) {
  size_t record_no = 0;
  DEPMINER_PROGRESS_PHASE("load", "rows", 0);

  ScopedMemoryCharge memory(ctx);
  std::optional<RelationBuilder> builder;
  size_t arity = 0;
  std::vector<std::string_view> fields;
  while (reader.Next(&fields)) {
    ++record_no;
    // Batched tick: once per 4096 records, not per row.
    if (record_no % 4096 == 0) DEPMINER_PROGRESS_TICK(4096);
    if (ctx != nullptr && record_no % kPollEveryRecords == 0) {
      DEPMINER_RETURN_NOT_OK(PollLoad(*builder, &memory, ctx));
    }
    if (!builder) {
      arity = fields.size();
      builder.emplace(options.has_header
                          ? Schema(std::vector<std::string>(fields.begin(),
                                                            fields.end()))
                          : Schema::Default(arity));
      if (options.nulls_distinct) builder->TreatAsNull(options.null_token);
      if (options.has_header) continue;
    }
    if (fields.size() != arity) {
      return Status::IoError(origin + ": record " + std::to_string(record_no) +
                             " has " + std::to_string(fields.size()) +
                             " fields, expected " + std::to_string(arity));
    }
    DEPMINER_RETURN_NOT_OK(builder->AddRow(fields.data(), fields.size()));
  }
  if (!reader.status().ok()) {
    return Status::InvalidArgument(origin + ": " + reader.status().message());
  }

  if (!builder) {
    return Status::InvalidArgument(origin + ": empty CSV input");
  }
  if (ctx != nullptr) DEPMINER_RETURN_NOT_OK(PollLoad(*builder, &memory, ctx));
  return std::move(*builder).Finish();
}

bool NeedsQuoting(const std::string& value, const CsvOptions& options) {
  for (char c : value) {
    if (c == options.delimiter || c == '"' || c == '\n' || c == '\r') {
      return true;
    }
  }
  return false;
}

void AppendField(const std::string& value, const CsvOptions& options,
                 std::string* out) {
  if (!options.allow_quoting || !NeedsQuoting(value, options)) {
    *out += value;
    return;
  }
  *out += '"';
  for (char c : value) {
    if (c == '"') *out += '"';
    *out += c;
  }
  *out += '"';
}

}  // namespace

Status ValidateCsvOptions(const CsvOptions& options) {
  const char d = options.delimiter;
  if (d == '\n' || d == '\r' || d == '\0') {
    return Status::InvalidArgument(
        "CSV delimiter may not be CR, LF or NUL");
  }
  if (d == '"' && options.allow_quoting) {
    return Status::InvalidArgument(
        "CSV delimiter may not be '\"' while quoting is on");
  }
  return Status::OK();
}

Status SetCsvDelimiter(std::string_view arg, CsvOptions* options) {
  if (arg.size() != 1) {
    return Status::InvalidArgument(
        "CSV delimiter must be exactly one byte, got " +
        std::to_string(arg.size()));
  }
  CsvOptions candidate = *options;
  candidate.delimiter = arg[0];
  DEPMINER_RETURN_NOT_OK(ValidateCsvOptions(candidate));
  options->delimiter = arg[0];
  return Status::OK();
}

CsvRecordReader::CsvRecordReader(std::string_view text,
                                 const CsvOptions& options)
    : options_(options),
      data_(text.data()),
      end_(text.size()),
      eof_(true),
      status_(ValidateCsvOptions(options)) {}

CsvRecordReader::CsvRecordReader(RetryingFileStream& in,
                                 const CsvOptions& options)
    : options_(options),
      file_(&in),
      status_(ValidateCsvOptions(options)) {}

bool CsvRecordReader::Refill() {
  if (eof_) return false;
  // The window keeps only the unfinished record; offsets within it are
  // record-relative, so moving it to the front invalidates nothing.
  if (pos_ > 0) {
    std::memmove(buffer_.data(), buffer_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  if (buffer_.size() < end_ + kBlockSize) buffer_.resize(end_ + kBlockSize);
  const size_t got = file_->ReadBlock(buffer_.data() + end_, kBlockSize);
  data_ = buffer_.data();
  if (got == 0) {
    eof_ = true;
    return false;
  }
  end_ += got;
  return true;
}

bool CsvRecordReader::FillTo(size_t i) {
  while (pos_ + i >= end_) {
    if (!Refill()) return false;
  }
  return true;
}

size_t CsvRecordReader::ScanUnquoted(size_t i, bool* at_line_end) {
  if (line_end_known_ && line_end_ < i) {
    // A quoted field ran past the cached LF; look for the next one.
    line_end_known_ = false;
    line_end_ = i;
  }
  for (;;) {
    const char* rec = RecordData();
    const size_t avail = end_ - pos_;
    if (!line_end_known_) {
      // One LF search per line; [i, line_end_) is known LF-free.
      const size_t from = std::max(i, line_end_);
      const void* lf = std::memchr(rec + from, '\n', avail - from);
      line_end_known_ = lf != nullptr;
      line_end_ = lf != nullptr ? static_cast<const char*>(lf) - rec : avail;
    }
    const size_t limit = line_end_known_ ? line_end_ : avail;
    const void* d = std::memchr(rec + i, options_.delimiter, limit - i);
    if (d != nullptr) {
      *at_line_end = false;
      return static_cast<size_t>(static_cast<const char*>(d) - rec);
    }
    *at_line_end = true;
    if (line_end_known_) return line_end_;
    i = avail;
    if (!Refill()) return i;  // the record ends with the input
  }
}

void CsvRecordReader::AppendQuoted(const char* p, size_t n) {
  while (n > 0) {
    const void* lf = std::memchr(p, '\n', n);
    if (lf == nullptr) {
      scratch_.append(p, n);
      return;
    }
    const size_t len = static_cast<size_t>(static_cast<const char*>(lf) - p);
    scratch_.append(p, len > 0 && p[len - 1] == '\r' ? len - 1 : len);
    scratch_ += '\n';
    p += len + 1;
    n -= len + 1;
  }
}

bool CsvRecordReader::ScanQuoted(size_t* i) {
  size_t j = *i + 1;
  for (;;) {
    const char* rec = RecordData();
    const size_t avail = end_ - pos_;
    const void* q = std::memchr(rec + j, '"', avail - j);
    if (q == nullptr) {
      // Hold back a final CR: its LF may open the next block.
      size_t n = avail - j;
      if (n > 0 && rec[avail - 1] == '\r') --n;
      AppendQuoted(rec + j, n);
      j += n;
      if (!Refill()) return false;
      continue;
    }
    const size_t quote = static_cast<size_t>(static_cast<const char*>(q) - rec);
    AppendQuoted(rec + j, quote - j);
    if (Have(quote + 1) && RecordData()[quote + 1] == '"') {
      scratch_ += '"';  // "" is an escaped quote
      j = quote + 2;
      continue;
    }
    *i = quote + 1;
    return true;
  }
}

bool CsvRecordReader::Tokenize(RecordEnd* end) {
  spans_.clear();
  scratch_.clear();
  line_end_ = 0;
  line_end_known_ = false;
  if (!Have(0)) return false;  // end of input
  size_t i = 0;
  for (;;) {  // one field per pass
    bool at_line_end = false;
    size_t stop;
    if (options_.allow_quoting && Have(i) && RecordData()[i] == '"') {
      // A quote opens quoting only here, at the start of a field. After
      // the closing quote the field continues unquoted (usually empty).
      const size_t begin = scratch_.size();
      if (!ScanQuoted(&i)) {
        const size_t avail = end_ - pos_;
        status_ = std::memchr(RecordData(), '\0', avail) != nullptr
                      ? Status::InvalidArgument(
                            "embedded NUL byte in CSV input")
                      : Status::InvalidArgument(
                            "unterminated quoted field at end of input");
        return false;
      }
      stop = ScanUnquoted(i, &at_line_end);
      size_t tail = stop - i;
      if (at_line_end && tail > 0 && RecordData()[stop - 1] == '\r') --tail;
      scratch_.append(RecordData() + i, tail);
      spans_.push_back({begin, scratch_.size() - begin, true});
    } else {
      stop = ScanUnquoted(i, &at_line_end);
      size_t size = stop - i;
      // The CR of a CRLF (or of a final CR) is not part of the value.
      if (at_line_end && size > 0 && RecordData()[stop - 1] == '\r') --size;
      spans_.push_back({i, size, false});
    }
    if (!at_line_end) {
      i = stop + 1;
      continue;
    }
    // Text CSV never carries NUL; one almost always means a binary file
    // was passed by mistake, and NULs silently truncate C-string
    // comparisons downstream.
    if (std::memchr(RecordData(), '\0', stop) != nullptr) {
      status_ = Status::InvalidArgument("embedded NUL byte in CSV input");
      return false;
    }
    end->at_eof = pos_ + stop >= end_;
    end->blank = spans_.size() == 1 && !spans_[0].in_scratch &&
                 spans_[0].size == 0;
    record_base_ = RecordData();
    pos_ += end->at_eof ? stop : stop + 1;
    return true;
  }
}

bool CsvRecordReader::Next(std::vector<std::string_view>* fields) {
  if (!status_.ok()) return false;
  RecordEnd end;
  for (;;) {
    if (!Tokenize(&end)) return false;
    // Blank records before the first real one are skipped (a file of only
    // (CR)LFs is empty input, not a sequence of one-empty-field records);
    // a blank record at the very end is the file's trailing newline.
    if (!end.blank) break;
    if (end.at_eof) return false;
    if (records_read_ > 0) break;
  }
  fields->resize(spans_.size());
  for (size_t k = 0; k < spans_.size(); ++k) {
    const FieldSpan& span = spans_[k];
    const char* base = span.in_scratch ? scratch_.data() : record_base_;
    (*fields)[k] = std::string_view(base + span.offset, span.size);
  }
  ++records_read_;
  return true;
}

Result<Relation> ReadCsvRelation(const std::string& path,
                                 const CsvOptions& options, RunContext* ctx) {
  RetryingFileStream in(path);
  if (!in.is_open()) return in.status();
  CsvRecordReader reader(in, options);
  Result<Relation> result = ParseRelation(reader, options, path, ctx);
  // A read error mid-file looks like EOF to the tokenizer and would
  // surface as a silently truncated relation; the stream's sticky status
  // is the only witness, so it outranks the parse outcome.
  if (!in.status().ok()) return in.status();
  return result;
}

Result<Relation> ParseCsvRelation(const std::string& content,
                                  const CsvOptions& options, RunContext* ctx) {
  CsvRecordReader reader(std::string_view(content), options);
  return ParseRelation(reader, options, "<string>", ctx);
}

std::string CsvToString(const Relation& relation, const CsvOptions& options) {
  std::string out;
  if (options.has_header) {
    for (size_t a = 0; a < relation.num_attributes(); ++a) {
      if (a > 0) out += options.delimiter;
      AppendField(relation.schema().name(static_cast<AttributeId>(a)), options,
                  &out);
    }
    out += '\n';
  }
  for (TupleId t = 0; t < relation.num_tuples(); ++t) {
    for (size_t a = 0; a < relation.num_attributes(); ++a) {
      if (a > 0) out += options.delimiter;
      AppendField(relation.Value(t, static_cast<AttributeId>(a)), options,
                  &out);
    }
    out += '\n';
  }
  return out;
}

Status WriteCsvRelation(const Relation& relation, const std::string& path,
                        const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  out << CsvToString(relation, options);
  if (!out) {
    return Status::IoError("failed writing '" + path + "'");
  }
  return Status::OK();
}

}  // namespace depminer
