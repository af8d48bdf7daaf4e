#include "relation/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "common/rng.h"
#include "fault/fault.h"
#include "partition/partition_database.h"
#include "relation/relation_builder.h"
#include "storage/streaming.h"

namespace depminer {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/depminer_csv_test_" + name + ".csv";
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

/// Both the relation's values and its codes: two relations are the same
/// iff their dictionaries and code columns are.
void ExpectSameRelation(const Relation& got, const Relation& want,
                        const std::string& what) {
  ASSERT_EQ(got.schema().names(), want.schema().names()) << what;
  ASSERT_EQ(got.num_tuples(), want.num_tuples()) << what;
  for (AttributeId a = 0; a < want.num_attributes(); ++a) {
    EXPECT_EQ(got.Dictionary(a), want.Dictionary(a)) << what << " attr " << a;
    EXPECT_EQ(got.Column(a), want.Column(a)) << what << " attr " << a;
  }
}

/// The streaming extract of a CSV equals what the loaded relation implies:
/// schema, counts, first-occurrence value samples and every π̂_A.
void ExpectExtractOf(const StreamingExtract& got, const Relation& want,
                     const std::string& what) {
  ASSERT_EQ(got.schema, want.schema()) << what;
  ASSERT_EQ(got.num_tuples, want.num_tuples()) << what;
  const StrippedPartitionDatabase db =
      StrippedPartitionDatabase::FromRelation(want);
  for (AttributeId a = 0; a < want.num_attributes(); ++a) {
    EXPECT_EQ(got.distinct_counts[a], want.DistinctCount(a)) << what;
    EXPECT_EQ(got.value_samples[a], want.Dictionary(a)) << what;
    EXPECT_EQ(got.partitions.partition(a), db.partition(a))
        << what << " attr " << a;
  }
}

TEST(Csv, ParsesSimpleWithHeader) {
  Result<Relation> r = ParseCsvRelation("a,b\n1,x\n2,y\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().schema().names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(r.value().num_tuples(), 2u);
  EXPECT_EQ(r.value().Value(1, 1), "y");
}

TEST(Csv, ParsesWithoutHeader) {
  CsvOptions options;
  options.has_header = false;
  Result<Relation> r = ParseCsvRelation("1,x\n2,y\n", options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().schema().name(0), "A");
  EXPECT_EQ(r.value().num_tuples(), 2u);
}

TEST(Csv, QuotedFields) {
  Result<Relation> r =
      ParseCsvRelation("a,b\n\"x,y\",\"say \"\"hi\"\"\"\nplain,2\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Value(0, 0), "x,y");
  EXPECT_EQ(r.value().Value(0, 1), "say \"hi\"");
  EXPECT_EQ(r.value().Value(1, 0), "plain");
}

TEST(Csv, NewlineInsideQuotedField) {
  Result<Relation> r = ParseCsvRelation("a,b\n\"line1\nline2\",x\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Value(0, 0), "line1\nline2");
}

TEST(Csv, CrLfLineEndings) {
  Result<Relation> r = ParseCsvRelation("a,b\r\n1,2\r\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Value(0, 1), "2");
}

TEST(Csv, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  Result<Relation> r = ParseCsvRelation("a;b\n1;2\n", options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_attributes(), 2u);
  EXPECT_EQ(r.value().Value(0, 0), "1");
}

TEST(Csv, RejectsRaggedRows) {
  Result<Relation> r = ParseCsvRelation("a,b\n1,2\n3\n");
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(Csv, RejectsEmptyInput) {
  EXPECT_EQ(ParseCsvRelation("").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Csv, HeaderOnlyGivesEmptyRelation) {
  Result<Relation> r = ParseCsvRelation("a,b\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_tuples(), 0u);
}

TEST(Csv, MissingFileIsIoError) {
  EXPECT_EQ(ReadCsvRelation("/nonexistent/file.csv").status().code(),
            StatusCode::kIoError);
}

TEST(Csv, EmptyFieldsPreserved) {
  Result<Relation> r = ParseCsvRelation("a,b\n,x\n1,\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Value(0, 0), "");
  EXPECT_EQ(r.value().Value(1, 1), "");
}

TEST(Csv, RoundTripsThroughString) {
  const std::string original = "a,b\n\"x,y\",2\nplain,\"q\"\"q\"\n";
  Result<Relation> r = ParseCsvRelation(original);
  ASSERT_TRUE(r.ok());
  const std::string serialized = CsvToString(r.value());
  Result<Relation> again = ParseCsvRelation(serialized);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again.value().num_tuples(), r.value().num_tuples());
  for (TupleId t = 0; t < r.value().num_tuples(); ++t) {
    for (AttributeId a = 0; a < r.value().num_attributes(); ++a) {
      EXPECT_EQ(again.value().Value(t, a), r.value().Value(t, a));
    }
  }
}

TEST(Csv, WritesAndReadsFile) {
  Result<Relation> r = ParseCsvRelation("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(r.ok());
  const std::string path = ::testing::TempDir() + "/depminer_csv_test.csv";
  ASSERT_TRUE(WriteCsvRelation(r.value(), path).ok());
  Result<Relation> back = ReadCsvRelation(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().num_tuples(), 2u);
  EXPECT_EQ(back.value().Value(1, 0), "3");
  std::remove(path.c_str());
}

TEST(Csv, QuotingDisabled) {
  CsvOptions options;
  options.allow_quoting = false;
  Result<Relation> r = ParseCsvRelation("a,b\n\"x\",2\n", options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Value(0, 0), "\"x\"");  // quotes kept literal
}

TEST(Csv, RejectsUnterminatedQuoteAtEof) {
  Result<Relation> r = ParseCsvRelation("a,b\n\"open,2\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("unterminated"), std::string::npos)
      << r.status().ToString();
}

TEST(Csv, RejectsUnterminatedQuoteSpanningLines) {
  // The open quote swallows the rest of the file; still unterminated.
  Result<Relation> r = ParseCsvRelation("a,b\n\"open,2\n3,4\n5,6\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Csv, RejectsEmbeddedNulByte) {
  std::string csv = "a,b\n1,2\n";
  csv[5] = '\0';  // overwrite the '1' cell with a NUL
  Result<Relation> r = ParseCsvRelation(csv);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("NUL"), std::string::npos)
      << r.status().ToString();
}

TEST(Csv, CrLfOnlyFileIsEmptyInput) {
  for (const std::string content : {"\r\n", "\r\n\r\n\r\n", "\n\n", "\r\n\n"}) {
    Result<Relation> r = ParseCsvRelation(content);
    ASSERT_FALSE(r.ok()) << '"' << content << '"';
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("empty CSV input"), std::string::npos)
        << r.status().ToString();
  }
}

TEST(Csv, LeadingBlankLinesBeforeHeaderAreSkipped) {
  Result<Relation> r = ParseCsvRelation("\r\n\na,b\n1,2\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().schema().names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(r.value().num_tuples(), 1u);
}

TEST(Csv, ReaderStatusIsStickyAfterMalformedInput) {
  const std::string text = "a,b\n\"open\n";
  CsvRecordReader reader(std::string_view(text), CsvOptions{});
  std::vector<std::string_view> fields;
  ASSERT_TRUE(reader.Next(&fields));  // the header
  EXPECT_FALSE(reader.Next(&fields));
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(reader.Next(&fields));  // still failed, no crash
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

// A quote opens quoting only at the start of a field; anywhere else it is
// an ordinary byte (as in Python's csv module), so it can neither join
// lines into one record nor leave a field "unterminated".
TEST(Csv, StrayQuoteInsideUnquotedFieldIsLiteral) {
  const std::string heights = "h,w\n5'11\",a\n6'0\",b\n";
  const std::string mid = "h,w\nab\"c,d\ne,f\n";
  const std::string path = TempPath("stray_quote");
  for (const std::string& text : {heights, mid}) {
    Result<Relation> parsed = ParseCsvRelation(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(parsed.value().num_tuples(), 2u);
    WriteFile(path, text);
    Result<Relation> read = ReadCsvRelation(path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ExpectSameRelation(read.value(), parsed.value(), "file");
    Result<StreamingExtract> extract = ExtractFromCsvText(text);
    ASSERT_TRUE(extract.ok()) << extract.status().ToString();
    ExpectExtractOf(extract.value(), parsed.value(), "streaming");
  }
  std::remove(path.c_str());
  EXPECT_EQ(ParseCsvRelation(heights).value().Value(0, 0), "5'11\"");
  EXPECT_EQ(ParseCsvRelation(heights).value().Value(1, 0), "6'0\"");
  EXPECT_EQ(ParseCsvRelation(mid).value().Value(0, 0), "ab\"c");
}

TEST(Csv, TextAfterClosingQuoteContinuesTheField) {
  Result<Relation> r = ParseCsvRelation("a,b\n\"x,y\"z\"w,2\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Value(0, 0), "x,yz\"w");
  EXPECT_EQ(r.value().Value(0, 1), "2");
}

TEST(Csv, RejectsAmbiguousDelimiters) {
  for (const char delimiter : {'"', '\r', '\n', '\0'}) {
    CsvOptions options;
    options.delimiter = delimiter;
    EXPECT_EQ(ValidateCsvOptions(options).code(),
              StatusCode::kInvalidArgument)
        << static_cast<int>(delimiter);
    Result<Relation> parsed = ParseCsvRelation("a\"b\nc\"d\n", options);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << static_cast<int>(delimiter) << " " << parsed.status().ToString();
    StreamingOptions streaming;
    streaming.csv = options;
    EXPECT_EQ(ExtractFromCsvText("a\"b\nc\"d\n", streaming).status().code(),
              StatusCode::kInvalidArgument);
  }
  // A quote delimiter is unambiguous once quoting is off.
  CsvOptions unquoted;
  unquoted.allow_quoting = false;
  unquoted.delimiter = '"';
  Result<Relation> r = ParseCsvRelation("a\"b\nc\"d\n", unquoted);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Value(0, 1), "d");

  const std::string path = TempPath("bad_delimiter");
  WriteFile(path, "a,b\n1,2\n");
  CsvOptions newline;
  newline.delimiter = '\n';
  EXPECT_EQ(ReadCsvRelation(path, newline).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Csv, DelimiterArgumentMustBeOneValidByte) {
  CsvOptions options;
  EXPECT_TRUE(SetCsvDelimiter(";", &options).ok());
  EXPECT_EQ(options.delimiter, ';');
  for (const std::string& bad : std::vector<std::string>{
           ";;", "", "\"", "\n", "\r", std::string(1, '\0')}) {
    CsvOptions unchanged;
    EXPECT_EQ(SetCsvDelimiter(bad, &unchanged).code(),
              StatusCode::kInvalidArgument)
        << '"' << bad << '"';
    EXPECT_EQ(unchanged.delimiter, ',');
  }
  CsvOptions unquoted;
  unquoted.allow_quoting = false;
  EXPECT_TRUE(SetCsvDelimiter("\"", &unquoted).ok());
}

// ---------------------------------------------------------------------------
// Round-trip property: CsvToString, then every reader, gives back the
// relation. Readers drop a CR right before a LF on every physical line,
// quoted or not, so the expected relation has those CRs dropped.

/// A value the tokenizer must survive: delimiters, quotes, `""`, CR, LF,
/// CRLF, empties — and now and then one longer than a 64 KiB block.
std::string AdversarialValue(Rng& rng) {
  static const char* const kPieces[] = {"",  ",",  "\"", "\"\"", "\r",  "\n",
                                        "\r\n", "a", "bc", " ",  "x\"y", ";"};
  if (rng.Below(48) == 0) {
    std::string big(64 * 1024 + 1 + rng.Below(1024), 'z');
    for (int k = 0; k < 16; ++k) {
      big[rng.Below(big.size())] = "\",\r\n"[rng.Below(4)];
    }
    return big;
  }
  std::string value;
  for (size_t k = rng.Below(4); k > 0; --k) {
    value += kPieces[rng.Below(std::size(kPieces))];
  }
  return value;
}

std::string DropCrBeforeLf(const std::string& value) {
  std::string out;
  for (size_t i = 0; i < value.size(); ++i) {
    if (value[i] == '\r' && i + 1 < value.size() && value[i + 1] == '\n') {
      continue;
    }
    out += value[i];
  }
  return out;
}

/// A seeded relation over adversarial values; each column draws mostly
/// from a small pool so values repeat and partitions are not trivial.
/// Returns it with what a reader must produce from its CSV.
std::pair<Relation, Relation> AdversarialCase(uint64_t seed) {
  Rng rng(seed * 7919 + 1);
  const size_t attrs = 1 + rng.Below(4);
  const size_t tuples = rng.Below(40);
  std::vector<std::string> names, read_names;
  std::vector<std::vector<std::string>> pools(attrs);
  for (size_t a = 0; a < attrs; ++a) {
    std::string name = std::to_string(a);
    name.insert(name.begin(), 'c');
    names.push_back(name + AdversarialValue(rng));
    read_names.push_back(DropCrBeforeLf(names.back()));
    for (int k = 0; k < 3; ++k) pools[a].push_back(AdversarialValue(rng));
  }
  std::vector<std::vector<std::string>> rows(tuples), read_rows(tuples);
  for (size_t t = 0; t < tuples; ++t) {
    for (size_t a = 0; a < attrs; ++a) {
      rows[t].push_back(rng.Below(4) == 0 ? AdversarialValue(rng)
                                          : pools[a][rng.Below(3)]);
      read_rows[t].push_back(DropCrBeforeLf(rows[t].back()));
    }
  }
  return {MakeRelation(Schema(names), rows).value(),
          MakeRelation(Schema(read_names), read_rows).value()};
}

class CsvRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvRoundTrip, EveryReaderReproducesTheRelation) {
  const auto [original, expected] = AdversarialCase(GetParam());
  const std::string text = CsvToString(original);

  Result<Relation> parsed = ParseCsvRelation(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectSameRelation(parsed.value(), expected, "ParseCsvRelation");

  const std::string path = TempPath("round_trip_" + std::to_string(GetParam()));
  WriteFile(path, text);
  Result<Relation> read = ReadCsvRelation(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ExpectSameRelation(read.value(), expected, "ReadCsvRelation");

  Result<StreamingExtract> extract = ExtractFromCsvText(text);
  ASSERT_TRUE(extract.ok()) << extract.status().ToString();
  ExpectExtractOf(extract.value(), expected, "ExtractFromCsvText");
  Result<StreamingExtract> file_extract = ExtractFromCsv(path);
  ASSERT_TRUE(file_extract.ok()) << file_extract.status().ToString();
  ExpectExtractOf(file_extract.value(), expected, "ExtractFromCsv");
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTrip,
                         ::testing::Range<uint64_t>(0, 32));

// The seeds above do reach the adversarial corners they are meant to.
TEST(Csv, RoundTripSeedsCoverTheAdversarialValues) {
  size_t big = 0, crlf = 0, escapes = 0, empty = 0;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    const Relation original = AdversarialCase(seed).first;
    for (AttributeId a = 0; a < original.num_attributes(); ++a) {
      for (const std::string& value : original.Dictionary(a)) {
        big += value.size() > 64 * 1024;
        crlf += value.find("\r\n") != std::string::npos;
        escapes += value.find("\"\"") != std::string::npos;
        empty += value.empty();
      }
    }
  }
  EXPECT_GT(big, 0u);
  EXPECT_GT(crlf, 0u);
  EXPECT_GT(escapes, 0u);
  EXPECT_GT(empty, 0u);
}

/// A CSV whose byte 65536 — the first of the reader's second block — is
/// byte `split` of `row`: the row straddles the block boundary there.
std::string StraddlingCsv(const std::string& row, size_t split) {
  const std::string header = "a,b\n";
  const size_t pad = 64 * 1024 - header.size() - 3 - split;  // "<pad>,x\n"
  return header + std::string(pad, 'p') + ",x\n" + row + "tail,end\n";
}

TEST(Csv, RecordsEscapesAndCrLfStraddlingABlockBoundary) {
  struct Case {
    std::string row;
    size_t split;
    std::string a, b;  // the straddling row's values
  };
  const std::vector<Case> cases = {
      {"hello,world\n", 3, "hello", "world"},                // mid-record
      {"\"say \"\"hi\"\"\",2\n", 6, "say \"hi\"", "2"},  // inside ""
      {"c,d\r\n", 4, "c", "d"},                             // CR|LF ending
      {"\"x\r\ny\",e\n", 3, "x\ny", "e"},                 // CR|LF quoted
      {"\"q\",r\n", 3, "q", "r"},                            // closing quote
      {"\"q\"\"\",r\n", 3, "q\"", "r"},                     // "|" escape
  };
  const std::string path = TempPath("straddle");
  for (const Case& c : cases) {
    const std::string text = StraddlingCsv(c.row, c.split);
    ASSERT_EQ(text.substr(64 * 1024 - c.split, c.row.size()), c.row);
    Result<Relation> parsed = ParseCsvRelation(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(parsed.value().num_tuples(), 3u) << c.row;
    EXPECT_EQ(parsed.value().Value(1, 0), c.a) << c.row;
    EXPECT_EQ(parsed.value().Value(1, 1), c.b) << c.row;
    WriteFile(path, text);
    Result<Relation> read = ReadCsvRelation(path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ExpectSameRelation(read.value(), parsed.value(), c.row);
    Result<StreamingExtract> extract = ExtractFromCsv(path);
    ASSERT_TRUE(extract.ok()) << extract.status().ToString();
    ExpectExtractOf(extract.value(), parsed.value(), c.row);
  }
  std::remove(path.c_str());
}

// One-byte reads put a block boundary between every two bytes: after each
// delimiter, inside each quoted field, escape and CR|LF pair.
TEST(Csv, OneByteReadsReproduceTheRelation) {
  std::string text = "a,b,c\r\n";
  text += "\"x\"\"y\",plain,\"multi\r\nline\"\r\n";
  text += "5'11\",,\"\"\n";
  text += "\"tail\"end,\"a,b\",z\r";
  const std::string path = TempPath("one_byte_reads");
  WriteFile(path, text);
  Result<Relation> parsed = ParseCsvRelation(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().num_tuples(), 3u);
  EXPECT_EQ(parsed.value().Value(0, 0), "x\"y");
  EXPECT_EQ(parsed.value().Value(0, 2), "multi\nline");
  EXPECT_EQ(parsed.value().Value(1, 0), "5'11\"");
  EXPECT_EQ(parsed.value().Value(2, 0), "tailend");
  EXPECT_EQ(parsed.value().Value(2, 2), "z");

  FaultPlan plan;
  plan.site = "io/csv-short-read";
  plan.repeat = true;
  Result<Relation> read = Status::NotFound("unset");
  Result<StreamingExtract> extract = Status::NotFound("unset");
  {
    FaultScope scope(plan);
    read = ReadCsvRelation(path);
    extract = ExtractFromCsv(path);
#if DEPMINER_FAULTS_ENABLED
    EXPECT_GE(scope.fires(), 2 * text.size() - 2);
#endif
  }
  std::remove(path.c_str());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ExpectSameRelation(read.value(), parsed.value(), "1-byte reads");
  ASSERT_TRUE(extract.ok()) << extract.status().ToString();
  ExpectExtractOf(extract.value(), parsed.value(), "1-byte reads");
}

}  // namespace
}  // namespace depminer
