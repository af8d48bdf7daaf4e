#include "storage/streaming.h"

#include <unordered_map>

#include "common/file_reader.h"
#include "core/armstrong.h"
#include "core/dep_miner.h"
#include "fault/fault.h"

namespace depminer {

namespace {

Result<StreamingExtract> ExtractFromRecords(CsvRecordReader& reader,
                                            const StreamingOptions& options,
                                            const std::string& origin) {
  RunContext* ctx = options.run_context;
  ScopedMemoryCharge memory(ctx);

  StreamingExtract out;
  // Per column: value → dense code, and the tuple ids per code (the
  // unstripped partition, kept as dynamically growing buckets).
  std::vector<std::unordered_map<std::string, ValueCode>> code_of;
  std::vector<std::vector<EquivalenceClass>> buckets;

  // Running working-set estimate charged against a memory budget: one
  // TupleId per cell (the partition memberships) plus the dictionary
  // strings with a nominal per-entry overhead.
  constexpr size_t kDictEntryOverhead = 64;
  constexpr size_t kCheckEveryRecords = 1024;
  size_t working_bytes = 0;

  std::vector<std::string> fields;
  size_t record_no = 0;
  bool have_schema = false;
  while (reader.Next(&fields)) {
    ++record_no;
    if (record_no % kCheckEveryRecords == 0) {
      DEPMINER_FAULT_ALLOC("alloc/streaming", ctx);
      if (ctx != nullptr && ctx->limited()) {
        memory.Set(working_bytes);
        // A partial extraction has wrong (not partial) partitions, so a
        // trip here fails the pass outright.
        DEPMINER_CHECK_RUN(ctx);
      }
    }
    if (!have_schema) {
      if (options.csv.has_header) {
        out.schema = Schema(std::move(fields));
      } else {
        out.schema = Schema::Default(fields.size());
      }
      const size_t n = out.schema.num_attributes();
      if (n == 0) {
        return Status::InvalidArgument(origin + ": no attributes");
      }
      if (n > AttributeSet::kMaxAttributes) {
        return Status::CapacityExceeded(origin + ": too many attributes");
      }
      code_of.resize(n);
      buckets.resize(n);
      out.distinct_counts.assign(n, 0);
      out.value_samples.resize(n);
      have_schema = true;
      if (options.csv.has_header) continue;
    }
    const size_t n = out.schema.num_attributes();
    if (fields.size() != n) {
      return Status::IoError(origin + ": record " + std::to_string(record_no) +
                             " has " + std::to_string(fields.size()) +
                             " fields, expected " + std::to_string(n));
    }
    const TupleId tuple = static_cast<TupleId>(out.num_tuples);
    for (size_t a = 0; a < n; ++a) {
      if (options.csv.nulls_distinct && fields[a] == options.csv.null_token) {
        // NULLs agree with nothing: a fresh singleton class, which the
        // stripping below immediately discards. Each NULL counts as a
        // distinct value (as in the in-memory path) but is never sampled
        // — Armstrong samples must carry real values.
        buckets[a].emplace_back().push_back(tuple);
        ++out.distinct_counts[a];
        continue;
      }
      auto [it, inserted] = code_of[a].try_emplace(
          fields[a], static_cast<ValueCode>(buckets[a].size()));
      if (inserted) {
        buckets[a].emplace_back();
        ++out.distinct_counts[a];
        working_bytes += fields[a].size() + kDictEntryOverhead;
        if (out.value_samples[a].size() < options.value_sample_size) {
          out.value_samples[a].push_back(fields[a]);
        }
      }
      buckets[a][it->second].push_back(tuple);
      working_bytes += sizeof(TupleId);
    }
    ++out.num_tuples;
  }
  if (!reader.status().ok()) {
    return Status::InvalidArgument(origin + ": " + reader.status().message());
  }

  if (!have_schema) {
    return Status::InvalidArgument(origin + ": empty CSV input");
  }

  // Final charge before the stripping allocation below — also the one
  // alloc/streaming poll every input reaches (the in-loop poll only runs
  // every 1024 records).
  memory.Set(working_bytes);
  DEPMINER_FAULT_ALLOC("alloc/streaming", ctx);
  DEPMINER_CHECK_RUN(ctx);

  // Strip: only classes of size > 1 survive; this is where the memory
  // usually collapses (the paper's "small representation of a relation").
  std::vector<StrippedPartition> partitions;
  partitions.reserve(buckets.size());
  for (auto& column_buckets : buckets) {
    partitions.emplace_back(std::move(column_buckets), out.num_tuples);
    column_buckets.clear();
  }
  out.partitions = StrippedPartitionDatabase::FromParts(std::move(partitions),
                                                        out.num_tuples);
  return out;
}

}  // namespace

Result<StreamingExtract> ExtractFromCsv(const std::string& path,
                                        const StreamingOptions& options) {
  RetryingFileStream in(path);
  if (!in.is_open()) return in.status();
  CsvRecordReader reader(in, options.csv);
  Result<StreamingExtract> result = ExtractFromRecords(reader, options, path);
  // A mid-file read error is EOF to the record reader; without this check
  // the extraction would silently cover a truncated prefix of the data.
  if (!in.status().ok()) return in.status();
  return result;
}

Result<StreamingExtract> ExtractFromCsvText(const std::string& content,
                                            const StreamingOptions& options) {
  CsvRecordReader reader(std::string_view(content), options.csv);
  return ExtractFromRecords(reader, options, "<string>");
}

Result<StreamingMineResult> MineCsvStreaming(const std::string& path,
                                             const StreamingOptions& options) {
  Result<StreamingExtract> extract = ExtractFromCsv(path, options);
  if (!extract.ok()) return extract.status();

  StreamingMineResult out;
  out.extract = std::move(extract).value();

  DepMinerOptions mine_options;
  mine_options.build_armstrong = false;  // built from samples below
  mine_options.run_context = options.run_context;
  Result<DepMinerResult> mined =
      MineDependencies(out.extract.partitions, nullptr, mine_options);
  if (!mined.ok()) return mined.status();
  out.fds = std::move(mined.value().fds);
  if (!mined.value().complete) {
    // Whatever mining salvaged (FDs of finished attributes) is kept; the
    // Armstrong relation needs the full MAX(dep(r)) family, so it is not
    // attempted.
    out.complete = false;
    out.run_status = mined.value().run_status;
    out.armstrong_status = out.run_status;
    return out;
  }

  Result<Relation> armstrong = BuildRealWorldArmstrongFromSamples(
      out.extract.schema, out.extract.value_samples,
      out.extract.distinct_counts, mined.value().all_max_sets,
      options.run_context);
  if (armstrong.ok()) {
    out.armstrong = std::move(armstrong).value();
    out.armstrong_status = Status::OK();
  } else {
    out.armstrong_status = armstrong.status();
    const StatusCode code = armstrong.status().code();
    if (code == StatusCode::kDeadlineExceeded ||
        code == StatusCode::kCancelled) {
      out.complete = false;
      out.run_status = armstrong.status();
    }
  }
  return out;
}

}  // namespace depminer
