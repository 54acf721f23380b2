// Unit tests for aggregation operators and result sets, including the
// hash-vs-sort aggregator equivalence property and a differential test of
// the fixed-width GroupTable kernel against the sort-based oracle.

#include <set>

#include <gtest/gtest.h>

#include "exec/aggregation.h"
#include "exec/key_row_map.h"
#include "exec/result_set.h"
#include "tests/test_util.h"

namespace cjoin {
namespace {

using testing::MakeMixedStar;
using testing::MakeTinyStar;
using testing::MixedStar;
using testing::RandomMixedSpec;
using testing::SameContentsApprox;
using testing::TinyStar;

// ------------------------------ ResultSet -----------------------------------

TEST(ResultSetTest, SortAndRender) {
  ResultSet rs;
  rs.columns = {"k", "v"};
  rs.rows = {{Value("b"), Value(int64_t{2})}, {Value("a"), Value(int64_t{1})}};
  rs.SortRows();
  EXPECT_EQ(rs.rows[0][0].AsString(), "a");
  const std::string rendered = rs.ToString();
  EXPECT_NE(rendered.find("k\tv"), std::string::npos);
  EXPECT_NE(rendered.find("'a'\t1"), std::string::npos);
}

TEST(ResultSetTest, SameContentsIsOrderInsensitive) {
  ResultSet a, b;
  a.columns = b.columns = {"x"};
  a.rows = {{Value(1)}, {Value(2)}};
  b.rows = {{Value(2)}, {Value(1)}};
  EXPECT_TRUE(a.SameContents(b));
  b.rows.push_back({Value(3)});
  EXPECT_FALSE(a.SameContents(b));
  ResultSet c;
  c.columns = {"y"};
  c.rows = a.rows;
  EXPECT_FALSE(a.SameContents(c));
}

TEST(ResultSetTest, ToStringTruncates) {
  ResultSet rs;
  rs.columns = {"x"};
  for (int i = 0; i < 10; ++i) rs.rows.push_back({Value(i)});
  const std::string s = rs.ToString(3);
  EXPECT_NE(s.find("7 more"), std::string::npos);
}

// ------------------------------ KeyRowMap -----------------------------------

TEST(KeyRowMapTest, InsertFindGrow) {
  KeyRowMap m(4);
  std::vector<uint8_t> arena(1000);
  for (int64_t k = 0; k < 500; ++k) {
    m.Insert(k * 7, arena.data() + k);
  }
  EXPECT_EQ(m.size(), 500u);
  for (int64_t k = 0; k < 500; ++k) {
    EXPECT_EQ(m.Find(k * 7), arena.data() + k);
  }
  EXPECT_EQ(m.Find(3), nullptr);
  EXPECT_EQ(m.Find(-1), nullptr);
}

TEST(KeyRowMapTest, NegativeKeys) {
  KeyRowMap m;
  uint8_t x;
  m.Insert(-42, &x);
  EXPECT_EQ(m.Find(-42), &x);
}

// ----------------------------- Aggregation ----------------------------------

class AggregationTest : public ::testing::Test {
 protected:
  void SetUp() override { ts_ = MakeTinyStar(1000); }

  StarQuerySpec SpecWith(std::vector<ColumnSource> group_by,
                         std::vector<AggregateSpec> aggs) {
    StarQuerySpec spec;
    spec.schema = ts_->star.get();
    spec.group_by = std::move(group_by);
    spec.aggregates = std::move(aggs);
    auto norm = NormalizeSpec(std::move(spec));
    EXPECT_TRUE(norm.ok()) << norm.status().ToString();
    return std::move(norm).value();
  }

  /// Feeds every fact row (with joined dim rows) to the aggregator.
  void FeedAll(const StarQuerySpec& spec, StarAggregator* agg) {
    const StarSchema& star = *spec.schema;
    const Table& fact = star.fact();
    const Schema& fs = fact.schema();
    // Build key->row maps for both dimensions.
    std::vector<KeyRowMap> maps;
    for (size_t d = 0; d < star.num_dimensions(); ++d) {
      const Table& dim = *star.dimension(d).table;
      KeyRowMap m(dim.NumRows());
      for (uint64_t i = 0; i < dim.NumRows(); ++i) {
        const uint8_t* row = dim.RowPayload(RowId{0, i});
        m.Insert(dim.schema().GetIntAny(row, star.dimension(d).dim_pk_col),
                 row);
      }
      maps.push_back(std::move(m));
    }
    std::vector<const uint8_t*> dims(star.num_dimensions());
    for (uint64_t i = 0; i < fact.NumRows(); ++i) {
      const uint8_t* row = fact.RowPayload(RowId{0, i});
      for (size_t d = 0; d < star.num_dimensions(); ++d) {
        dims[d] = maps[d].Find(
            fs.GetIntAny(row, star.dimension(d).fact_fk_col));
      }
      agg->Consume(row, dims.data());
    }
  }

  std::unique_ptr<TinyStar> ts_;
};

TEST_F(AggregationTest, GlobalCount) {
  StarQuerySpec spec = SpecWith(
      {}, {AggregateSpec{AggFn::kCount, std::nullopt, nullptr, "n"}});
  auto agg = MakeHashAggregator(spec);
  FeedAll(spec, agg.get());
  ResultSet rs = agg->Finish();
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 1000);
  EXPECT_EQ(rs.tuples_consumed, 1000u);
}

TEST_F(AggregationTest, EmptyInputGlobalAggregates) {
  StarQuerySpec spec = SpecWith(
      {},
      {AggregateSpec{AggFn::kCount, std::nullopt, nullptr, "n"},
       AggregateSpec{AggFn::kSum, ColumnSource::Fact(3), nullptr, "s"}});
  auto agg = MakeHashAggregator(spec);
  ResultSet rs = agg->Finish();
  ASSERT_EQ(rs.num_rows(), 1u);  // SQL: one row for global aggregates
  EXPECT_EQ(rs.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(rs.rows[0][1].is_null());  // SUM of nothing is NULL
}

TEST_F(AggregationTest, EmptyInputGroupByYieldsNoRows) {
  StarQuerySpec spec = SpecWith(
      {ColumnSource::Dim(1, 1)},
      {AggregateSpec{AggFn::kCount, std::nullopt, nullptr, "n"}});
  auto agg = MakeHashAggregator(spec);
  ResultSet rs = agg->Finish();
  EXPECT_EQ(rs.num_rows(), 0u);
}

TEST_F(AggregationTest, SumMinMaxAvgOverFactColumn) {
  // f_amount = (i % 100) * 10 over 1000 rows: each residue appears 10x.
  StarQuerySpec spec = SpecWith(
      {},
      {AggregateSpec{AggFn::kSum, ColumnSource::Fact(3), nullptr, "sum"},
       AggregateSpec{AggFn::kMin, ColumnSource::Fact(3), nullptr, "min"},
       AggregateSpec{AggFn::kMax, ColumnSource::Fact(3), nullptr, "max"},
       AggregateSpec{AggFn::kAvg, ColumnSource::Fact(3), nullptr, "avg"}});
  auto agg = MakeHashAggregator(spec);
  FeedAll(spec, agg.get());
  ResultSet rs = agg->Finish();
  ASSERT_EQ(rs.num_rows(), 1u);
  const int64_t expected_sum = 10 * (99 * 100 / 2) * 10;  // 10*sum(0..99)*10
  EXPECT_EQ(rs.rows[0][0].AsInt(), expected_sum);
  EXPECT_EQ(rs.rows[0][1].AsInt(), 0);
  EXPECT_EQ(rs.rows[0][2].AsInt(), 990);
  EXPECT_DOUBLE_EQ(rs.rows[0][3].AsDouble(),
                   static_cast<double>(expected_sum) / 1000.0);
}

TEST_F(AggregationTest, GroupByDimensionColumn) {
  // Group by s_region ("R0","R1","R2"); stores 1..6 cycle regions 1,2,0,...
  StarQuerySpec spec = SpecWith(
      {ColumnSource::Dim(1, 1)},
      {AggregateSpec{AggFn::kCount, std::nullopt, nullptr, "n"}});
  auto agg = MakeHashAggregator(spec);
  FeedAll(spec, agg.get());
  ResultSet rs = agg->Finish();
  ASSERT_EQ(rs.num_rows(), 3u);
  rs.SortRows();
  int64_t total = 0;
  for (const auto& row : rs.rows) total += row[1].AsInt();
  EXPECT_EQ(total, 1000);
  EXPECT_EQ(rs.rows[0][0].AsString(), "R0");
}

TEST_F(AggregationTest, FactExpressionInput) {
  const Schema& fs = ts_->sales->schema();
  ExprPtr profit = MakeArith(
      ArithOp::kMul, MakeColumnRef(fs, "f_qty").value(),
      MakeColumnRef(fs, "f_amount").value());
  StarQuerySpec spec = SpecWith(
      {}, {AggregateSpec{AggFn::kSum, std::nullopt, profit, "s"}});
  auto agg = MakeHashAggregator(spec);
  FeedAll(spec, agg.get());
  ResultSet rs = agg->Finish();
  int64_t expected = 0;
  for (int i = 0; i < 1000; ++i) {
    expected += static_cast<int64_t>(i % 10 + 1) * ((i % 100) * 10);
  }
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), expected);
}

TEST_F(AggregationTest, HashAndSortAggregatorsAgree) {
  // Property: both implementations produce identical contents on a
  // multi-column group-by with several aggregate kinds.
  StarQuerySpec spec = SpecWith(
      {ColumnSource::Dim(0, 1), ColumnSource::Dim(1, 1)},  // p_cat, s_region
      {AggregateSpec{AggFn::kCount, std::nullopt, nullptr, "n"},
       AggregateSpec{AggFn::kSum, ColumnSource::Fact(3), nullptr, "sum"},
       AggregateSpec{AggFn::kMin, ColumnSource::Fact(2), nullptr, "min"},
       AggregateSpec{AggFn::kMax, ColumnSource::Dim(0, 2), nullptr, "max"},
       AggregateSpec{AggFn::kAvg, ColumnSource::Fact(3), nullptr, "avg"}});
  auto hash_agg = MakeHashAggregator(spec);
  auto sort_agg = MakeSortAggregator(spec);
  FeedAll(spec, hash_agg.get());
  FeedAll(spec, sort_agg.get());
  ResultSet h = hash_agg->Finish();
  ResultSet s = sort_agg->Finish();
  EXPECT_GT(h.num_rows(), 1u);
  EXPECT_TRUE(h.SameContents(s))
      << "hash:\n" << h.ToString() << "sort:\n" << s.ToString();
}

TEST_F(AggregationTest, ManyGroupsForceRehash) {
  // Group by a fact column with 100 distinct values and verify totals.
  StarQuerySpec spec = SpecWith(
      {ColumnSource::Fact(3)},
      {AggregateSpec{AggFn::kCount, std::nullopt, nullptr, "n"}});
  auto agg = MakeHashAggregator(spec);
  FeedAll(spec, agg.get());
  ResultSet rs = agg->Finish();
  EXPECT_EQ(rs.num_rows(), 100u);
  for (const auto& row : rs.rows) EXPECT_EQ(row[1].AsInt(), 10);
}

TEST_F(AggregationTest, NullDimRowContributesNull) {
  StarQuerySpec spec = SpecWith(
      {}, {AggregateSpec{AggFn::kMax, ColumnSource::Dim(0, 2), nullptr,
                         "maxp"}});
  auto agg = MakeHashAggregator(spec);
  const uint8_t* dims[2] = {nullptr, nullptr};
  const uint8_t* fact = ts_->sales->RowPayload(RowId{0, 0});
  agg->Consume(fact, dims);
  ResultSet rs = agg->Finish();
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_TRUE(rs.rows[0][0].is_null());
}

// ------------------- GroupTable kernel vs the sort oracle -------------------

/// Feeds every fact row of a MixedStar to `sinks[i % sinks.size()]`, with
/// dim_rows[d] = nullptr (SQL NULL) where the foreign key joins nothing.
void FeedMixed(const MixedStar& ms,
               const std::vector<StarAggregator*>& sinks) {
  const StarSchema& star = *ms.star;
  const Schema& fs = ms.fact->schema();
  std::vector<KeyRowMap> maps;
  for (size_t d = 0; d < star.num_dimensions(); ++d) {
    const DimensionDef& def = star.dimension(d);
    KeyRowMap m(def.table->NumRows());
    for (uint64_t i = 0; i < def.table->NumRows(); ++i) {
      const uint8_t* row = def.table->RowPayload(RowId{0, i});
      m.Insert(def.table->schema().GetIntAny(row, def.dim_pk_col), row);
    }
    maps.push_back(std::move(m));
  }
  std::vector<const uint8_t*> dims(star.num_dimensions());
  for (uint64_t i = 0; i < ms.fact->NumRows(); ++i) {
    const uint8_t* row = ms.fact->RowPayload(RowId{0, i});
    for (size_t d = 0; d < star.num_dimensions(); ++d) {
      dims[d] = maps[d].Find(
          fs.GetIntAny(row, star.dimension(d).fact_fk_col));
    }
    sinks[i % sinks.size()]->Consume(row, dims.data());
  }
}

TEST(GroupTableDifferentialTest, HashAndMergedPartialsMatchSortOracle) {
  auto ms = MakeMixedStar(/*seed=*/7, /*num_facts=*/3000);
  const StarSchema& star = *ms->star;
  Rng rng(11);
  std::set<AggFn> fns_seen;
  std::set<DataType> key_types_seen;
  int with_expr = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const StarQuerySpec spec = RandomMixedSpec(*ms, rng);
    for (const ColumnSource& g : spec.group_by) {
      const Schema& sch = g.from == ColumnSource::From::kFact
                              ? star.fact().schema()
                              : star.dimension(g.dim_index).table->schema();
      key_types_seen.insert(sch.column(g.column).type);
    }
    for (const AggregateSpec& a : spec.aggregates) {
      fns_seen.insert(a.fn);
      with_expr += a.fact_expr != nullptr;
    }

    auto hash = MakeHashAggregator(spec);
    auto sort = MakeSortAggregator(spec);
    // Three partial aggregators over disjoint thirds of the input,
    // merged the way the sharded collector merges shard partials.
    std::vector<GroupTable> partials;
    std::vector<std::unique_ptr<StarAggregator>> parts;
    for (int p = 0; p < 3; ++p) {
      parts.push_back(MakePartialHashAggregator(
          spec, [&partials](GroupTable&& t, uint64_t) {
            partials.push_back(std::move(t));
          }));
    }
    FeedMixed(*ms, {hash.get()});
    FeedMixed(*ms, {sort.get()});
    FeedMixed(*ms, {parts[0].get(), parts[1].get(), parts[2].get()});

    const ResultSet want = sort->Finish();
    const ResultSet got = hash->Finish();
    for (auto& p : parts) (void)p->Finish();
    ASSERT_EQ(partials.size(), 3u);
    GroupTable merged(StarGroupLayout(spec));
    for (GroupTable& t : partials) merged.MergeFrom(std::move(t));
    const ResultSet got_merged =
        merged.Finish(want.columns, spec.group_by.empty());

    EXPECT_TRUE(SameContentsApprox(got, want))
        << "iteration " << iter << "\nhash:\n" << got.ToString(20)
        << "sort:\n" << want.ToString(20);
    EXPECT_TRUE(SameContentsApprox(got_merged, want))
        << "iteration " << iter << "\nmerged:\n" << got_merged.ToString(20)
        << "sort:\n" << want.ToString(20);
    EXPECT_EQ(got.tuples_consumed, ms->fact->NumRows());
  }
  // The random specs covered every aggregate and every key type.
  EXPECT_EQ(fns_seen.size(), 5u);
  EXPECT_EQ(key_types_seen.size(), 4u);
  EXPECT_GT(with_expr, 0);
}

TEST(GroupTableTest, SignedZeroAndNullKeys) {
  // -0.0 and 0.0 are one group; NULL is a group of its own, distinct from
  // every value (including the empty CHAR string).
  GroupTable table(GroupLayout{
      {FieldType{FieldType::Kind::kDouble, 0},
       FieldType{FieldType::Kind::kChar, 3}},
      {AggDef{AggFn::kCount, {}}}});
  const double pos = 0.0, neg = -0.0;
  const uint8_t empty[3] = {0, 0, 0};
  auto p = [](const void* v) { return static_cast<const uint8_t*>(v); };
  const uint8_t* none[1] = {nullptr};
  const uint8_t* k1[2] = {p(&pos), empty};
  const uint8_t* k2[2] = {p(&neg), empty};
  const uint8_t* k3[2] = {nullptr, empty};
  const uint8_t* k4[2] = {p(&pos), nullptr};
  table.Fold(k1, none);
  table.Fold(k2, none);
  table.Fold(k3, none);
  table.Fold(k4, none);
  EXPECT_EQ(table.num_groups(), 3u);
  ResultSet rs = table.Finish({"d", "c", "n"}, false);
  rs.SortRows();
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_TRUE(rs.rows[0][0].is_null());   // (NULL, '')
  EXPECT_TRUE(rs.rows[1][1].is_null());   // (0, NULL)
  EXPECT_EQ(rs.rows[2][2].AsInt(), 2);    // (0, '') twice
  EXPECT_EQ(rs.rows[2][1].AsString(), "");
}

}  // namespace
}  // namespace cjoin
