#include "storage/streaming.h"

#include "core/armstrong.h"
#include "core/dep_miner.h"

namespace depminer {

namespace {

/// r̂, the Proposition 1 counts and the value samples, read off a loaded
/// relation. The relation dies with the caller's temporary: only r̂ and
/// the samples outlive the extraction.
Result<StreamingExtract> ExtractFrom(const Result<Relation>& loaded,
                                     const StreamingOptions& options) {
  if (!loaded.ok()) return loaded.status();
  const Relation& relation = loaded.value();
  StreamingExtract out;
  out.schema = relation.schema();
  out.num_tuples = relation.num_tuples();
  out.partitions = StrippedPartitionDatabase::FromRelation(relation);
  for (AttributeId a = 0; a < relation.num_attributes(); ++a) {
    out.distinct_counts.push_back(
        ArmstrongValues(relation, a, options.value_sample_size,
                        &out.value_samples.emplace_back()));
  }
  return out;
}

}  // namespace

Result<StreamingExtract> ExtractFromCsv(const std::string& path,
                                        const StreamingOptions& options) {
  return ExtractFrom(ReadCsvRelation(path, options.csv, options.run_context),
                     options);
}

Result<StreamingExtract> ExtractFromCsvText(const std::string& content,
                                            const StreamingOptions& options) {
  return ExtractFrom(
      ParseCsvRelation(content, options.csv, options.run_context), options);
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
