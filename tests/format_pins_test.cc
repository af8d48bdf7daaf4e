// Format pins: fingerprints, cache keys and on-disk bytes recorded once,
// from the stream-based DMC1/DMK1 writers and the byte-at-a-time
// fingerprint, and checked in as constants. A fingerprint that drifts turns
// every existing catalog manifest into DataLoss and every cached cover into
// a miss; a byte that drifts makes old files unreadable. These constants
// are therefore never regenerated to make a change pass: a failure here
// means the change broke compatibility.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "catalog/fingerprint.h"
#include "core/agree_sets.h"
#include "core/lhs.h"
#include "core/max_sets.h"
#include "partition/partition_database.h"
#include "relation/relation_builder.h"
#include "server/result_cache.h"
#include "storage/checkpoint.h"
#include "storage/column_file.h"
#include "test_util.h"

namespace depminer {
namespace {

using ::depminer::testing::PaperExampleRelation;
using ::depminer::testing::ReadFileBytes;
using ::depminer::testing::WriteFileBytes;

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xF];
  }
  return out;
}

std::string Unhex(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out += static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16));
  }
  return out;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/depminer_pin_" + name;
}

Relation Make(Schema schema, const std::vector<std::vector<std::string>>& rows) {
  Result<Relation> r = MakeRelation(std::move(schema), rows);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

// ---------------------------------------------------------------------
// Fingerprinter::UpdateU64: each value from a fresh hasher, then all six
// through one hasher in this order.

struct U64Pin {
  uint64_t value;
  const char* hex;
};

const U64Pin kU64Pins[] = {
    {0, "9d30c1f78465995be47dda5e4e4e77ed"},
    {1, "59b7938aec659956a33c86dd8aca840c"},
    {255, "7f68dc837c6598ce029a0bc9af63bf32"},
    {256, "06f5661ac565995be03890f5df28aa5a"},
    {uint64_t{1} << 32, "9d294e427865995be47dda5c0376867c"},
    {~uint64_t{0}, "1f1206bf386598cfecc541ed53713e45"},
};
const char kU64ChainPin[] = "25a4600743e5fe2c62f72203c0b71fe9";

TEST(FormatPins, FingerprinterUpdateU64States) {
  Fingerprinter chain;
  for (const U64Pin& pin : kU64Pins) {
    Fingerprinter one;
    one.UpdateU64(pin.value);
    EXPECT_EQ(one.Finish().ToHex(), pin.hex) << "UpdateU64(" << pin.value
                                             << ")";
    chain.UpdateU64(pin.value);
  }
  EXPECT_EQ(chain.Finish().ToHex(), kU64ChainPin);
}

// ---------------------------------------------------------------------
// FingerprintRelation over value lengths 0, 1, 255, 256 and 65,536 and
// bytes >= 0x80 (in values and in attribute names).

std::string HighBytes() {
  std::string s;
  for (int b = 0x80; b <= 0xFF; ++b) s += static_cast<char>(b);
  return s;
}

struct RelationPin {
  const char* label;
  const char* hex;
};

const RelationPin kRelationPins[] = {
    {"lengths_0_1", "5d56a2674a2ca9f1ddfd6b72a91796b9"},
    {"length_255", "d299dd4a8e05c60d0d7c4985346c8bd5"},
    {"length_256", "883671fb265ed7f26e1b0e9ac3353369"},
    {"length_65536", "ed8bb29f8adec43a7de06e2e7fb023a3"},
    {"high_bytes", "cb49e711d7b7f81ba679d17b277fe9f4"},
    {"paper_example", "b3a0682fe70efb7e41d0c87df0729dce"},
};

std::vector<Relation> PinnedRelations() {
  std::vector<Relation> out;
  out.push_back(Make(Schema({"a", "b"}), {{"", "x"}, {"", "y"}, {"z", ""}}));
  out.push_back(Make(Schema({"wide"}), {{std::string(255, 'q')}, {"q"}}));
  out.push_back(
      Make(Schema({"wide", "n"}), {{std::string(256, 'r'), "1"}, {"", "2"}}));
  out.push_back(Make(Schema({"huge"}), {{std::string(65536, 's')}, {"t"}}));
  out.push_back(Make(Schema({"h\xC3\xA9", "\xFF"}),
                     {{HighBytes(), "\x80"}, {"\xC3\xA9t\xC3\xA9", "\xFF"}}));
  out.push_back(PaperExampleRelation());
  return out;
}

TEST(FormatPins, RelationFingerprints) {
  const std::vector<Relation> relations = PinnedRelations();
  ASSERT_EQ(relations.size(), std::size(kRelationPins));
  for (size_t i = 0; i < relations.size(); ++i) {
    EXPECT_EQ(FingerprintRelation(relations[i]).ToHex(), kRelationPins[i].hex)
        << kRelationPins[i].label;
  }
}

// ---------------------------------------------------------------------
// ResultCache::KeyFor: the default request shape and one with every
// cover-changing knob set.

const char kDefaultKeyPin[] = "61d1d588e87274f1559884fbbd2d918d";
const char kKnobsKeyPin[] = "5124bd242c09c86b3514ae59e951ff43";

TEST(FormatPins, ResultCacheKeys) {
  const Fingerprint dataset = FingerprintRelation(PaperExampleRelation());
  EXPECT_EQ(ResultCache::KeyFor(dataset, "depminer", MiningOptions()).ToHex(),
            kDefaultKeyPin);
  MiningOptions knobs;
  knobs.max_lhs_arity = 3;
  knobs.max_g3_error = 0.05;
  knobs.top_k = 7;
  knobs.force_error_validation = true;
  EXPECT_EQ(ResultCache::KeyFor(dataset, "tane", knobs).ToHex(), kKnobsKeyPin);
}

// ---------------------------------------------------------------------
// DMC1: the exact bytes of the paper example, written and read back.

const char kPaperDmc1Pin[] =
    "444d433105000000070000000000000006000000656d706e756d060000000100"
    "0000310100000032010000003301000000340100000035010000003600000000"
    "000000000100000002000000030000000400000005000000060000006465706e"
    "756d040000000100000031010000003501000000320100000033000000000100"
    "0000020000000200000003000000000000000100000004000000796561720600"
    "0000020000003835020000003934020000003932020000003938020000003735"
    "0200000038380000000001000000020000000300000003000000040000000500"
    "0000070000006465706e616d65040000000c00000042696f6368656d69737472"
    "790900000041646d697373696f6e0c000000436f6d7075746572205363650a00"
    "000047656f706879736963730000000001000000020000000200000003000000"
    "0000000001000000030000006d67720300000001000000350200000031320100"
    "00003200000000010000000200000002000000020000000000000001000000";

TEST(FormatPins, ColumnFileBytes) {
  const Relation paper = PaperExampleRelation();
  const std::string path = TempPath("paper.dmc");
  ASSERT_TRUE(WriteColumnFile(paper, path).ok());
  EXPECT_EQ(Hex(ReadFileBytes(path)), kPaperDmc1Pin);

  // The pinned bytes read back to the same relation.
  WriteFileBytes(path, Unhex(kPaperDmc1Pin));
  Result<Relation> back = ReadColumnFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(FingerprintRelation(back.value()), FingerprintRelation(paper));
  EXPECT_EQ(back.value().schema().names(), paper.schema().names());
  for (AttributeId a = 0; a < paper.num_attributes(); ++a) {
    EXPECT_EQ(back.value().Column(a), paper.Column(a));
    EXPECT_EQ(back.value().Dictionary(a), paper.Dictionary(a));
  }
}

// ---------------------------------------------------------------------
// DMK1: the bytes of every phase of mining the paper example, written
// and read back.

struct PhasePin {
  MinePhase phase;
  const char* hex;
};

const PhasePin kPhasePins[] = {
    {MinePhase::kStrip,
        "444d4b31010000007efb0ee72f68a0b3ce9d72f07dc8d0410100000001000000"
        "0500000006000000656d706e756d060000006465706e756d0400000079656172"
        "070000006465706e616d65030000006d67720700000000000000010000000000"
        "0000020000000000000000000000010000000300000000000000020000000000"
        "0000000000000500000002000000000000000100000006000000020000000000"
        "0000020000000300000001000000000000000200000000000000030000000400"
        "0000030000000000000002000000000000000000000005000000020000000000"
        "0000010000000600000002000000000000000200000003000000030000000000"
        "0000020000000000000000000000050000000200000000000000010000000600"
        "00000300000000000000020000000300000004000000444d4b31"},
    {MinePhase::kAgree,
        "444d4b31010000007efb0ee72f68a0b3ce9d72f07dc8d0410100000002000000"
        "0500000006000000656d706e756d060000006465706e756d0400000079656172"
        "070000006465706e616d65030000006d67720700000000000000040000000000"
        "0000010000000000000000000000000000001000000000000000000000000000"
        "0000140000000000000000000000000000001a00000000000000000000000000"
        "000001000000444d4b31"},
    {MinePhase::kCmax,
        "444d4b31010000007efb0ee72f68a0b3ce9d72f07dc8d0410100000003000000"
        "0500000006000000656d706e756d060000006465706e756d0400000079656172"
        "070000006465706e616d65030000006d67720700000000000000020000000000"
        "0000140000000000000000000000000000001a00000000000000000000000000"
        "00000200000000000000050000000000000000000000000000000b0000000000"
        "0000000000000000000002000000000000000100000000000000000000000000"
        "00001400000000000000000000000000000002000000000000000b0000000000"
        "000000000000000000001e000000000000000000000000000000020000000000"
        "0000010000000000000000000000000000001a00000000000000000000000000"
        "00000200000000000000050000000000000000000000000000001e0000000000"
        "0000000000000000000002000000000000000100000000000000000000000000"
        "00001400000000000000000000000000000002000000000000000b0000000000"
        "000000000000000000001e000000000000000000000000000000010000000000"
        "00000100000000000000000000000000000001000000000000001e0000000000"
        "00000000000000000000444d4b31"},
    {MinePhase::kCover,
        "444d4b31010000007efb0ee72f68a0b3ce9d72f07dc8d0410100000004000000"
        "0500000006000000656d706e756d060000006465706e756d0400000079656172"
        "070000006465706e616d65030000006d677207000000000000000e0000000000"
        "000006000000000000000000000000000000000000000c000000000000000000"
        "0000000000000000000008000000000000000000000000000000010000000500"
        "0000000000000000000000000000010000001100000000000000000000000000"
        "0000010000000300000000000000000000000000000002000000090000000000"
        "0000000000000000000002000000110000000000000000000000000000000200"
        "0000020000000000000000000000000000000300000005000000000000000000"
        "0000000000000300000011000000000000000000000000000000030000000200"
        "0000000000000000000000000000040000000400000000000000000000000000"
        "0000040000000800000000000000000000000000000004000000444d4b31"},
};

TEST(FormatPins, CheckpointBytesPerPhase) {
  const Relation paper = PaperExampleRelation();
  JobCheckpoint ckpt;
  ckpt.fingerprint = FingerprintRelation(paper);
  ckpt.algorithm = AgreeSetAlgorithm::kCouples;
  ckpt.schema = paper.schema();
  ckpt.num_tuples = paper.num_tuples();
  ckpt.partitions = StrippedPartitionDatabase::FromRelation(paper);
  ckpt.agree = ComputeAgreeSetsCouples(ckpt.partitions);
  ckpt.max_sets = ComputeMaxSets(ckpt.agree);
  ckpt.fds = OutputFds(ComputeLhs(ckpt.max_sets));

  const std::string path = TempPath("phase.dmk");
  for (const PhasePin& pin : kPhasePins) {
    SCOPED_TRACE(ToString(pin.phase));
    ckpt.phase = pin.phase;
    ASSERT_TRUE(ckpt.Save(path).ok());
    EXPECT_EQ(Hex(ReadFileBytes(path)), pin.hex);

    WriteFileBytes(path, Unhex(pin.hex));
    Result<JobCheckpoint> back = JobCheckpoint::Load(path);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value().phase, pin.phase);
    EXPECT_EQ(back.value().fingerprint, ckpt.fingerprint);
    EXPECT_EQ(back.value().schema.names(), paper.schema().names());
    EXPECT_EQ(back.value().num_tuples, paper.num_tuples());
    switch (pin.phase) {
      case MinePhase::kStrip:
        EXPECT_EQ(back.value().partitions.partitions(),
                  ckpt.partitions.partitions());
        break;
      case MinePhase::kAgree:
        EXPECT_EQ(back.value().agree.sets, ckpt.agree.sets);
        EXPECT_EQ(back.value().agree.contains_empty,
                  ckpt.agree.contains_empty);
        break;
      case MinePhase::kCmax:
        EXPECT_EQ(back.value().max_sets.max_sets, ckpt.max_sets.max_sets);
        EXPECT_EQ(back.value().max_sets.cmax_sets, ckpt.max_sets.cmax_sets);
        break;
      case MinePhase::kCover:
        EXPECT_EQ(back.value().fds.fds(), ckpt.fds.fds());
        break;
      case MinePhase::kNone:
        break;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace depminer
