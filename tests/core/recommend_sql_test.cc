#include "core/recommend_sql.h"

#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "storage/csv.h"

namespace muve::core {
namespace {

class RecommendSqlTest : public ::testing::Test {
 protected:
  RecommendSqlTest() {
    storage::Schema schema({
        {"day", storage::ValueType::kInt64, storage::FieldRole::kDimension},
        {"region", storage::ValueType::kString, storage::FieldRole::kNone},
        {"revenue", storage::ValueType::kDouble,
         storage::FieldRole::kMeasure},
    });
    storage::CsvOptions options;
    options.schema = schema;
    std::string csv = "day,region,revenue\n";
    for (int i = 0; i < 40; ++i) {
      const int day = i % 20;
      const bool south = i % 2 == 0;
      const double revenue = south ? 10.0 + day * 2.0 : 25.0;
      csv += std::to_string(day) + "," + (south ? "south" : "north") + "," +
             std::to_string(revenue) + "\n";
    }
    auto table = storage::ReadCsvString(csv, options);
    EXPECT_TRUE(table.ok());
    EXPECT_TRUE(catalog_.Create("sales", std::move(table).value()).ok());
  }

  storage::Catalog catalog_;
};

TEST_F(RecommendSqlTest, EndToEndMuve) {
  auto rec = RecommendSql(
      "RECOMMEND TOP 2 VIEWS FROM sales WHERE region = 'south' USING MUVE",
      catalog_);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->views.size(), 2u);
  EXPECT_EQ(rec->scheme, "MuVE-MuVE");
  EXPECT_GT(rec->views[0].utility, 0.0);
}

TEST_F(RecommendSqlTest, SchemeSelection) {
  const struct {
    const char* name;
    const char* scheme;
  } cases[] = {
      {"LINEAR", "Linear-Linear"},
      {"HC", "HC-Linear"},
      {"MUVE_LINEAR", "MuVE-Linear"},
      {"MUVE", "MuVE-MuVE"},
  };
  for (const auto& c : cases) {
    auto rec = RecommendSql(
        std::string("RECOMMEND TOP 1 VIEWS FROM sales WHERE region = "
                    "'south' USING ") +
            c.name,
        catalog_);
    ASSERT_TRUE(rec.ok()) << c.name << ": " << rec.status().ToString();
    EXPECT_EQ(rec->scheme, c.scheme);
  }
}

TEST_F(RecommendSqlTest, ExactSchemesAgreeThroughSqlPath) {
  auto linear = RecommendSql(
      "RECOMMEND TOP 3 VIEWS FROM sales WHERE region = 'south' USING LINEAR "
      "WEIGHTS (0.4, 0.3, 0.3)",
      catalog_);
  auto muve = RecommendSql(
      "RECOMMEND TOP 3 VIEWS FROM sales WHERE region = 'south' USING MUVE "
      "WEIGHTS (0.4, 0.3, 0.3)",
      catalog_);
  ASSERT_TRUE(linear.ok());
  ASSERT_TRUE(muve.ok());
  ASSERT_EQ(linear->views.size(), muve->views.size());
  for (size_t i = 0; i < linear->views.size(); ++i) {
    EXPECT_NEAR(linear->views[i].utility, muve->views[i].utility, 1e-9);
  }
}

TEST_F(RecommendSqlTest, CustomWeightsAndDistance) {
  auto rec = RecommendSql(
      "RECOMMEND TOP 1 VIEWS FROM sales WHERE region = 'south' "
      "USING MUVE WEIGHTS (0.6, 0.2, 0.2) DISTANCE EMD",
      catalog_);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->views.size(), 1u);
}

TEST_F(RecommendSqlTest, Errors) {
  // Missing WHERE.
  EXPECT_FALSE(
      RecommendSql("RECOMMEND VIEWS FROM sales", catalog_).ok());
  // Unknown table.
  EXPECT_FALSE(RecommendSql(
                   "RECOMMEND VIEWS FROM nope WHERE region = 'south'",
                   catalog_)
                   .ok());
  // Unknown scheme.
  EXPECT_FALSE(RecommendSql(
                   "RECOMMEND VIEWS FROM sales WHERE region = 'south' "
                   "USING QUANTUM",
                   catalog_)
                   .ok());
  // Bad weights.
  EXPECT_FALSE(RecommendSql(
                   "RECOMMEND VIEWS FROM sales WHERE region = 'south' "
                   "USING MUVE WEIGHTS (0.9, 0.9, 0.9)",
                   catalog_)
                   .ok());
  // Unknown distance.
  EXPECT_FALSE(RecommendSql(
                   "RECOMMEND VIEWS FROM sales WHERE region = 'south' "
                   "USING MUVE DISTANCE cosine",
                   catalog_)
                   .ok());
  // Predicate selecting nothing.
  EXPECT_FALSE(RecommendSql(
                   "RECOMMEND VIEWS FROM sales WHERE region = 'mars'",
                   catalog_)
                   .ok());
  // Not a RECOMMEND statement.
  EXPECT_FALSE(RecommendSql("SELECT * FROM sales", catalog_).ok());
}

TEST_F(RecommendSqlTest, TableWithoutRolesRejected) {
  auto plain = storage::ReadCsvString("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(catalog_.Create("plain", std::move(plain).value()).ok());
  EXPECT_FALSE(
      RecommendSql("RECOMMEND VIEWS FROM plain WHERE a = 1", catalog_).ok());
}

}  // namespace
}  // namespace muve::core
