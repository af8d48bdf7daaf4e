// Tests for the storage layer: the one-pass streaming extractor (the
// paper's limited-memory operating model) and the binary column file.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string_view>

#include "core/armstrong.h"
#include "core/dep_miner.h"
#include "relation/csv.h"
#include "relation/relation_builder.h"
#include "storage/column_file.h"
#include "storage/streaming.h"
#include "test_util.h"

namespace depminer {
namespace {

using ::depminer::testing::PaperExampleRelation;
using ::depminer::testing::PutLe;
using ::depminer::testing::RandomRelation;
using ::depminer::testing::ReadFileBytes;
using ::depminer::testing::WriteFileBytes;

std::string WriteTempCsv(const std::string& content, const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << content;
  return path;
}

TEST(Streaming, ExtractMatchesInMemoryPath) {
  const Relation r = PaperExampleRelation();
  const std::string csv = CsvToString(r);
  Result<StreamingExtract> extract = ExtractFromCsvText(csv);
  ASSERT_TRUE(extract.ok()) << extract.status().ToString();

  const StrippedPartitionDatabase expected =
      StrippedPartitionDatabase::FromRelation(r);
  ASSERT_EQ(extract.value().partitions.num_attributes(), 5u);
  EXPECT_EQ(extract.value().num_tuples, 7u);
  for (AttributeId a = 0; a < 5; ++a) {
    EXPECT_EQ(extract.value().partitions.partition(a), expected.partition(a))
        << "attribute " << a;
    EXPECT_EQ(extract.value().distinct_counts[a], r.DistinctCount(a));
    EXPECT_EQ(extract.value().value_samples[a], r.Dictionary(a));
  }
  EXPECT_EQ(extract.value().schema.names(), r.schema().names());
}

TEST(Streaming, SampleSizeCapsRetainedValues) {
  StreamingOptions options;
  options.value_sample_size = 2;
  Result<StreamingExtract> extract =
      ExtractFromCsvText("a\nx\ny\nz\nw\n", options);
  ASSERT_TRUE(extract.ok());
  EXPECT_EQ(extract.value().distinct_counts[0], 4u);  // true count kept
  EXPECT_EQ(extract.value().value_samples[0],
            (std::vector<std::string>{"x", "y"}));
}

TEST(Streaming, RejectsRaggedAndEmpty) {
  EXPECT_EQ(ExtractFromCsvText("a,b\n1\n").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(ExtractFromCsvText("").status().code(),
            StatusCode::kInvalidArgument);
}

/// Mines the CSV at `path` (then deletes it) through `MineCsvStreaming`
/// and checks it against mining `r`, the same CSV loaded: the same cover
/// and, cell for cell, the same Armstrong relation (same construction,
/// same value order).
void ExpectStreamedLikeLoaded(const std::string& path, const Relation& r,
                              const StreamingOptions& options = {}) {
  Result<StreamingMineResult> streamed = MineCsvStreaming(path, options);
  std::remove(path.c_str());
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  Result<DepMinerResult> direct = MineDependencies(r);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(streamed.value().fds.fds(), direct.value().fds.fds());
  ASSERT_EQ(streamed.value().armstrong.has_value(),
            direct.value().armstrong.has_value())
      << streamed.value().armstrong_status.ToString();
  if (!direct.value().armstrong.has_value()) return;
  const Relation& got = *streamed.value().armstrong;
  const Relation& want = *direct.value().armstrong;
  ASSERT_EQ(got.num_tuples(), want.num_tuples());
  for (TupleId t = 0; t < want.num_tuples(); ++t) {
    for (AttributeId a = 0; a < want.num_attributes(); ++a) {
      EXPECT_EQ(got.Value(t, a), want.Value(t, a));
    }
  }
  EXPECT_TRUE(IsArmstrongFor(got, direct.value().all_max_sets));
}

TEST(Streaming, MineCsvStreamingMatchesInMemoryMining) {
  const Relation r = RandomRelation(5, 120, 6, 99);
  ExpectStreamedLikeLoaded(
      WriteTempCsv(CsvToString(r), "depminer_streaming.csv"), r);
}

// Under SQL NULL semantics both routes take the NULL token as one of
// Equation 2's values: column b's NA, x and y cover the 3 it needs.
TEST(Streaming, NullTokenArmstrongMatchesTheRelationRoute) {
  const std::string csv = "a,b,c\nNA,NA,1\n1,NA,1\n2,x,2\n3,x,3\n3,y,4\n";
  StreamingOptions options;
  options.csv.nulls_distinct = true;
  options.csv.null_token = "NA";
  Result<Relation> r = ParseCsvRelation(csv, options.csv);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectStreamedLikeLoaded(WriteTempCsv(csv, "depminer_streaming_nulls.csv"),
                           r.value(), options);
}

TEST(Streaming, TinySampleFailsArmstrongButNotDiscovery) {
  const Relation r = RandomRelation(4, 100, 5, 3);
  const std::string path =
      WriteTempCsv(CsvToString(r), "depminer_tiny_sample.csv");
  StreamingOptions options;
  options.value_sample_size = 1;  // almost certainly too small
  Result<StreamingMineResult> streamed = MineCsvStreaming(path, options);
  std::remove(path.c_str());
  ASSERT_TRUE(streamed.ok());
  Result<DepMinerResult> direct = MineDependencies(r);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(streamed.value().fds.fds(), direct.value().fds.fds());
  if (!direct.value().all_max_sets.empty()) {
    EXPECT_FALSE(streamed.value().armstrong.has_value());
    EXPECT_EQ(streamed.value().armstrong_status.code(),
              StatusCode::kCapacityExceeded);
  }
}

TEST(ColumnFile, RoundTrips) {
  const Relation r = PaperExampleRelation();
  const std::string path = ::testing::TempDir() + "/depminer_roundtrip.dmc";
  ASSERT_TRUE(WriteColumnFile(r, path).ok());
  Result<Relation> back = ReadColumnFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().num_tuples(), r.num_tuples());
  ASSERT_EQ(back.value().schema().names(), r.schema().names());
  for (TupleId t = 0; t < r.num_tuples(); ++t) {
    for (AttributeId a = 0; a < r.num_attributes(); ++a) {
      EXPECT_EQ(back.value().Value(t, a), r.Value(t, a));
      EXPECT_EQ(back.value().Code(t, a), r.Code(t, a));
    }
  }
}

TEST(ColumnFile, MiningEquivalentAfterRoundTrip) {
  const Relation r = RandomRelation(5, 80, 4, 17);
  const std::string path = ::testing::TempDir() + "/depminer_mine.dmc";
  ASSERT_TRUE(WriteColumnFile(r, path).ok());
  Result<Relation> back = ReadColumnFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(back.ok());
  Result<DepMinerResult> a = MineDependencies(r);
  Result<DepMinerResult> b = MineDependencies(back.value());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().fds.fds(), b.value().fds.fds());
}

TEST(ColumnFile, RejectsBadMagicAndTruncation) {
  const std::string path = ::testing::TempDir() + "/depminer_bad.dmc";
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTACOLUMNFILE";
  }
  EXPECT_EQ(ReadColumnFile(path).status().code(), StatusCode::kIoError);

  // Valid file, then every strict prefix of it: each is an IoError,
  // never a relation and never a crash.
  const Relation r = PaperExampleRelation();
  ASSERT_TRUE(WriteColumnFile(r, path).ok());
  const std::string bytes = ReadFileBytes(path);
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(path, std::string_view(bytes).substr(0, len));
    EXPECT_EQ(ReadColumnFile(path).status().code(), StatusCode::kIoError)
        << "prefix " << len;
  }
  std::remove(path.c_str());
}

TEST(ColumnFile, DoctoredCountsAreIoErrors) {
  // Counts are checked against the bytes left before anything is sized
  // by them, so a doctored count cannot become a giant allocation.
  const std::string path = ::testing::TempDir() + "/depminer_doctored.dmc";
  // One attribute "a", dictionary {"x"}, one code — but 2^60 tuples.
  std::string tiny("DMC1", 4);
  tiny += std::string(4 + 8, '\0');
  PutLe(&tiny, 4, 1, 4);
  PutLe(&tiny, 8, uint64_t{1} << 60, 8);
  tiny += std::string("\x01\0\0\0a\x01\0\0\0\x01\0\0\0x\0\0\0\0", 18);
  ASSERT_EQ(tiny.size(), 34u);
  WriteFileBytes(path, tiny);
  Result<Relation> read = ReadColumnFile(path);
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);

  // The paper example with its first dictionary size doctored to 2^32-1
  // (after the 16-byte header and the length-prefixed name "empnum").
  const Relation r = PaperExampleRelation();
  ASSERT_TRUE(WriteColumnFile(r, path).ok());
  std::string bytes = ReadFileBytes(path);
  PutLe(&bytes, 16 + 4 + 6, 0xFFFFFFFFu, 4);
  WriteFileBytes(path, bytes);
  read = ReadColumnFile(path);
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(ColumnFile, MissingFile) {
  EXPECT_EQ(ReadColumnFile("/nonexistent/x.dmc").status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace depminer
