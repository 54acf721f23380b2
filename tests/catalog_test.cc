// Unit tests for the star schema catalog and query-spec validation.

#include <gtest/gtest.h>

#include "catalog/query_spec.h"
#include "catalog/star_schema.h"
#include "tests/test_util.h"

namespace cjoin {
namespace {

using testing::MakeTinyStar;
using testing::TinyStar;

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override { ts_ = MakeTinyStar(100); }
  std::unique_ptr<TinyStar> ts_;
};

TEST_F(CatalogTest, StarSchemaWiring) {
  const StarSchema& star = *ts_->star;
  EXPECT_EQ(star.num_dimensions(), 2u);
  EXPECT_EQ(star.fact().name(), "sales");
  EXPECT_EQ(star.dimension(0).table->name(), "product");
  EXPECT_EQ(star.dimension(1).table->name(), "store");
  auto d = star.FindDimension("store");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, 1u);
  EXPECT_FALSE(star.FindDimension("warehouse").ok());
}

TEST_F(CatalogTest, MakeRejectsBadJoinColumns) {
  auto bad = StarSchema::Make(
      ts_->sales.get(),
      std::vector<StarSchema::DimensionByName>{
          {ts_->product.get(), "f_pid", "p_cat"}});  // PK is CHAR
  EXPECT_FALSE(bad.ok());
  auto missing = StarSchema::Make(
      ts_->sales.get(),
      std::vector<StarSchema::DimensionByName>{
          {ts_->product.get(), "no_such_col", "p_id"}});
  EXPECT_FALSE(missing.ok());
  EXPECT_FALSE(StarSchema::Make(nullptr, std::vector<DimensionDef>{}).ok());
}

TEST_F(CatalogTest, GalaxyRegistry) {
  Galaxy g;
  auto star1 = StarSchema::Make(
      ts_->sales.get(), std::vector<StarSchema::DimensionByName>{
                            {ts_->product.get(), "f_pid", "p_id"}});
  ASSERT_TRUE(star1.ok());
  ASSERT_TRUE(g.AddStar("sales", std::move(star1).value()).ok());
  EXPECT_TRUE(g.FindStar("sales").ok());
  EXPECT_FALSE(g.FindStar("other").ok());
  auto star2 = StarSchema::Make(
      ts_->sales.get(), std::vector<StarSchema::DimensionByName>{
                            {ts_->store.get(), "f_sid", "s_id"}});
  ASSERT_TRUE(star2.ok());
  EXPECT_FALSE(g.AddStar("sales", std::move(star2).value()).ok())
      << "duplicate names must be rejected";
  EXPECT_EQ(g.num_stars(), 1u);
}

StarQuerySpec BaseSpec(const StarSchema* star) {
  StarQuerySpec spec;
  spec.schema = star;
  spec.aggregates.push_back(
      AggregateSpec{AggFn::kCount, std::nullopt, nullptr, "n"});
  return spec;
}

TEST_F(CatalogTest, ValidateAcceptsMinimalSpec) {
  StarQuerySpec spec = BaseSpec(ts_->star.get());
  EXPECT_TRUE(ValidateSpec(spec).ok());
}

TEST_F(CatalogTest, ValidateRejectsBadDimensionIndex) {
  StarQuerySpec spec = BaseSpec(ts_->star.get());
  spec.dim_predicates.push_back(DimensionPredicate{5, MakeTrue()});
  EXPECT_FALSE(ValidateSpec(spec).ok());
}

TEST_F(CatalogTest, ValidateRejectsNullPredicate) {
  StarQuerySpec spec = BaseSpec(ts_->star.get());
  spec.dim_predicates.push_back(DimensionPredicate{0, nullptr});
  EXPECT_FALSE(ValidateSpec(spec).ok());
}

TEST_F(CatalogTest, ValidateRejectsUnreferencedGroupByDimension) {
  StarQuerySpec spec = BaseSpec(ts_->star.get());
  spec.group_by.push_back(ColumnSource::Dim(0, 1));
  spec.group_by_labels.push_back("p_cat");
  EXPECT_FALSE(ValidateSpec(spec).ok());
  // NormalizeSpec fixes it by adding a TRUE predicate entry.
  auto fixed = NormalizeSpec(spec);
  ASSERT_TRUE(fixed.ok());
  ASSERT_EQ(fixed->dim_predicates.size(), 1u);
  EXPECT_EQ(fixed->dim_predicates[0].dim_index, 0u);
  EXPECT_TRUE(IsTrueLiteral(fixed->dim_predicates[0].predicate));
  EXPECT_TRUE(ValidateSpec(*fixed).ok());
}

TEST_F(CatalogTest, ValidateRejectsSumWithoutInput) {
  StarQuerySpec spec = BaseSpec(ts_->star.get());
  spec.aggregates.push_back(
      AggregateSpec{AggFn::kSum, std::nullopt, nullptr, "s"});
  EXPECT_FALSE(ValidateSpec(spec).ok());
}

TEST_F(CatalogTest, ValidateRejectsSumAndAvgOverChar) {
  // p_cat is CHAR(8): MIN/MAX/COUNT may read it, SUM/AVG may not.
  StarQuerySpec spec = BaseSpec(ts_->star.get());
  spec.dim_predicates.push_back(DimensionPredicate{0, MakeTrue()});
  spec.aggregates.push_back(
      AggregateSpec{AggFn::kMax, ColumnSource::Dim(0, 1), nullptr, "m"});
  EXPECT_TRUE(ValidateSpec(spec).ok());
  for (AggFn fn : {AggFn::kSum, AggFn::kAvg}) {
    spec.aggregates[0].fn = fn;
    EXPECT_EQ(ValidateSpec(spec).code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(CatalogTest, ValidateRejectsDoubleInput) {
  StarQuerySpec spec = BaseSpec(ts_->star.get());
  spec.aggregates.push_back(AggregateSpec{
      AggFn::kSum, ColumnSource::Fact(2),
      MakeColumnRef(2), "s"});
  EXPECT_FALSE(ValidateSpec(spec).ok());
}

TEST_F(CatalogTest, ValidateRejectsBadPartition) {
  StarQuerySpec spec = BaseSpec(ts_->star.get());
  spec.partitions.push_back(99);
  EXPECT_FALSE(ValidateSpec(spec).ok());
}

TEST_F(CatalogTest, NormalizeMergesDuplicatePredicates) {
  const Schema& pschema = ts_->product->schema();
  StarQuerySpec spec = BaseSpec(ts_->star.get());
  auto col = MakeColumnRef(pschema, "p_price").value();
  spec.dim_predicates.push_back(DimensionPredicate{
      0, MakeCompare(CmpOp::kGe, col, MakeLiteral(Value(200)))});
  spec.dim_predicates.push_back(DimensionPredicate{
      0, MakeCompare(CmpOp::kLe, col, MakeLiteral(Value(900)))});
  auto norm = NormalizeSpec(spec);
  ASSERT_TRUE(norm.ok());
  ASSERT_EQ(norm->dim_predicates.size(), 1u);
  // The merged predicate is the conjunction: row price 500 passes, 100
  // and 1000 fail.
  const Schema& ps = ts_->product->schema();
  std::vector<uint8_t> row(ps.row_size());
  ps.SetInt32(row.data(), 2, 500);
  EXPECT_TRUE(norm->dim_predicates[0].predicate->EvalBool(ps, row.data()));
  ps.SetInt32(row.data(), 2, 100);
  EXPECT_FALSE(norm->dim_predicates[0].predicate->EvalBool(ps, row.data()));
}

TEST_F(CatalogTest, NormalizeSynthesizesLabels) {
  StarQuerySpec spec = BaseSpec(ts_->star.get());
  spec.aggregates[0].label.clear();
  spec.group_by.push_back(ColumnSource::Dim(1, 1));  // s_region
  auto norm = NormalizeSpec(spec);
  ASSERT_TRUE(norm.ok());
  ASSERT_EQ(norm->group_by_labels.size(), 1u);
  EXPECT_EQ(norm->group_by_labels[0], "s_region");
  EXPECT_EQ(norm->aggregates[0].label, "COUNT(*)");
}

TEST_F(CatalogTest, NormalizeDedupsPartitions) {
  auto ts = MakeTinyStar(100, 10, 4, /*fact_partitions=*/4);
  StarQuerySpec spec = BaseSpec(ts->star.get());
  spec.partitions = {2, 1, 2, 1, 3};
  auto norm = NormalizeSpec(spec);
  ASSERT_TRUE(norm.ok());
  EXPECT_EQ(norm->partitions, (std::vector<uint32_t>{1, 2, 3}));
}

TEST(AggFnTest, Names) {
  EXPECT_STREQ(AggFnName(AggFn::kCount), "COUNT");
  EXPECT_STREQ(AggFnName(AggFn::kSum), "SUM");
  EXPECT_STREQ(AggFnName(AggFn::kMin), "MIN");
  EXPECT_STREQ(AggFnName(AggFn::kMax), "MAX");
  EXPECT_STREQ(AggFnName(AggFn::kAvg), "AVG");
}

}  // namespace
}  // namespace cjoin
