// Tests for the JSON writer and the relation profiler.

#include <gtest/gtest.h>

#include "relation/relation_builder.h"
#include "report/database_profile.h"
#include "report/json_writer.h"
#include "report/profile.h"
#include "test_util.h"

namespace depminer {
namespace {

using ::depminer::testing::PaperExampleRelation;

TEST(JsonWriter, BasicStructure) {
  JsonWriter json;
  json.OpenObject();
  json.Key("name").Value("x");
  json.Key("count").Value(uint64_t{3});
  json.Key("ratio").Value(0.5);
  json.Key("ok").Value(true);
  json.Key("nothing").Null();
  json.Key("items").OpenArray().Value(int64_t{1}).Value(int64_t{2}).CloseArray();
  json.CloseObject();
  EXPECT_EQ(json.str(),
            "{\"name\":\"x\",\"count\":3,\"ratio\":0.5,\"ok\":true,"
            "\"nothing\":null,\"items\":[1,2]}");
}

TEST(JsonWriter, NestedContainers) {
  JsonWriter json;
  json.OpenArray();
  json.OpenObject();
  json.Key("a").OpenArray().CloseArray();
  json.CloseObject();
  json.OpenObject().CloseObject();
  json.CloseArray();
  EXPECT_EQ(json.str(), "[{\"a\":[]},{}]");
}

TEST(JsonWriter, EscapesControlAndQuotes) {
  EXPECT_EQ(JsonWriter::Escape("a\"b\\c\nd\te\x01"),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
  EXPECT_EQ(JsonWriter::Escape(""), "\"\"");
  // UTF-8 passes through untouched.
  EXPECT_EQ(JsonWriter::Escape("é"), "\"é\"");
}

TEST(Profile, PaperExampleProfile) {
  const Relation r = PaperExampleRelation();
  Result<RelationProfile> profile = ProfileRelation(r, "employees");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(profile.value().num_tuples, 7u);
  EXPECT_EQ(profile.value().fds.size(), 14u);
  EXPECT_EQ(profile.value().max_sets.size(), 3u);
  EXPECT_FALSE(profile.value().candidate_keys.empty());
  ASSERT_TRUE(profile.value().armstrong.has_value());
  EXPECT_EQ(profile.value().armstrong->num_tuples(), 4u);
}

TEST(Profile, JsonContainsExpectedKeys) {
  const Relation r = PaperExampleRelation();
  Result<RelationProfile> profile = ProfileRelation(r, "emp\"loyees");
  ASSERT_TRUE(profile.ok());
  const std::string json = ProfileToJson(profile.value());
  // Balanced braces/brackets (the writer guarantees this structurally;
  // check the emitted text anyway).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  for (const char* key :
       {"\"source\"", "\"functional_dependencies\"", "\"candidate_keys\"",
        "\"max_sets\"", "\"normal_forms\"", "\"armstrong\"", "\"timings\"",
        "\"agree_seconds\"", "\"metrics\"", "\"couples\"",
        "\"agree_working_bytes\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // The quote in the label is escaped.
  EXPECT_NE(json.find("emp\\\"loyees"), std::string::npos);
  EXPECT_NE(json.find("\"exists\":true"), std::string::npos);
}

TEST(Profile, MarkdownMentionsSections) {
  const Relation r = PaperExampleRelation();
  Result<RelationProfile> profile = ProfileRelation(r, "employees");
  ASSERT_TRUE(profile.ok());
  const std::string md = ProfileToMarkdown(profile.value());
  for (const char* section :
       {"# Profile: employees", "## Columns", "## Candidate keys",
        "## Minimal functional dependencies", "## Armstrong sample"}) {
    EXPECT_NE(md.find(section), std::string::npos) << section;
  }
  EXPECT_NE(md.find("depname -> depnum"), std::string::npos);
}

TEST(Profile, KeyCapTruncates) {
  const Relation r = PaperExampleRelation();
  ProfileOptions options;
  options.max_keys = 1;
  Result<RelationProfile> profile = ProfileRelation(r, "emp", options);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile.value().candidate_keys.size(), 1u);
}

TEST(DatabaseProfile, CombinesRelationsAndCrossStructure) {
  Result<Relation> customers = MakeRelation(
      Schema({"id", "name"}), {{"c1", "ann"}, {"c2", "bob"}});
  Result<Relation> orders = MakeRelation(
      Schema({"order", "customer_id"}), {{"o1", "c1"}, {"o2", "c2"}});
  ASSERT_TRUE(customers.ok() && orders.ok());
  const std::vector<const Relation*> rels = {&customers.value(),
                                             &orders.value()};
  Result<DatabaseProfile> profile =
      ProfileDatabase(rels, {"customers", "orders"});
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(profile.value().relations.size(), 2u);
  EXPECT_FALSE(profile.value().foreign_keys.empty());

  const std::string json = DatabaseProfileToJson(profile.value(), rels);
  EXPECT_NE(json.find("\"foreign_keys\""), std::string::npos);
  EXPECT_NE(json.find("orders.[customer_id] <= customers.[id]"),
            std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(DatabaseProfile, RejectsArityMismatch) {
  Result<Relation> r = MakeRelation({{"x"}});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(ProfileDatabase({&r.value()}, {"a", "b"}).ok());
}

}  // namespace
}  // namespace depminer
