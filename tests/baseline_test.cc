// Unit tests for the query-at-a-time baseline engine, cross-checked
// against the independent reference evaluator.

#include <algorithm>

#include <gtest/gtest.h>

#include "baseline/qat_engine.h"
#include "common/clock.h"
#include "engine/query_engine.h"
#include "ssb/generator.h"
#include "ssb/queries.h"
#include "tests/test_util.h"

namespace cjoin {
namespace {

using testing::MakeMixedStar;
using testing::MakeTinyStar;
using testing::RandomMixedSpec;
using testing::ReferenceEvaluate;
using testing::SameContentsApprox;
using testing::TinyStar;

StarQuerySpec CountByRegion(const TinyStar& ts) {
  StarQuerySpec spec;
  spec.schema = ts.star.get();
  spec.group_by.push_back(ColumnSource::Dim(1, 1));  // s_region
  spec.aggregates.push_back(
      AggregateSpec{AggFn::kCount, std::nullopt, nullptr, "n"});
  spec.aggregates.push_back(
      AggregateSpec{AggFn::kSum, ColumnSource::Fact(3), nullptr, "amt"});
  return NormalizeSpec(std::move(spec)).value();
}

TEST(QatEngineTest, MatchesReferenceOnTinyStar) {
  auto ts = MakeTinyStar(2000);
  StarQuerySpec spec = CountByRegion(*ts);
  QatStats stats;
  auto rs = ExecuteStarQuery(spec, QatOptions{}, &stats);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ResultSet ref = ReferenceEvaluate(spec);
  EXPECT_TRUE(rs->SameContents(ref))
      << "got:\n" << rs->ToString() << "want:\n" << ref.ToString();
  EXPECT_EQ(stats.fact_rows_scanned, 2000u);
  EXPECT_EQ(stats.fact_rows_output, 2000u);  // TRUE predicates only
}

TEST(QatEngineTest, DimensionPredicateFilters) {
  auto ts = MakeTinyStar(2000);
  StarQuerySpec spec = CountByRegion(*ts);
  const Schema& ss = ts->store->schema();
  spec.dim_predicates.clear();
  spec.dim_predicates.push_back(DimensionPredicate{
      1, MakeCompare(CmpOp::kEq, MakeColumnRef(ss, "s_region").value(),
                     MakeLiteral(Value("R1")))});
  spec = NormalizeSpec(std::move(spec)).value();
  QatStats stats;
  auto rs = ExecuteStarQuery(spec, QatOptions{}, &stats);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->SameContents(ReferenceEvaluate(spec)));
  EXPECT_LT(stats.fact_rows_output, stats.fact_rows_scanned);
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsString(), "R1");
}

TEST(QatEngineTest, FactPredicateApplied) {
  auto ts = MakeTinyStar(2000);
  StarQuerySpec spec = CountByRegion(*ts);
  const Schema& fs = ts->sales->schema();
  spec.fact_predicate =
      MakeCompare(CmpOp::kGe, MakeColumnRef(fs, "f_qty").value(),
                  MakeLiteral(Value(8)));
  spec = NormalizeSpec(std::move(spec)).value();
  auto rs = ExecuteStarQuery(spec, QatOptions{});
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->SameContents(ReferenceEvaluate(spec)));
}

TEST(QatEngineTest, PartitionPruning) {
  auto ts = MakeTinyStar(3000, 20, 6, /*fact_partitions=*/3);
  StarQuerySpec spec = CountByRegion(*ts);
  spec.partitions = {0, 2};
  spec = NormalizeSpec(std::move(spec)).value();
  QatStats stats;
  auto rs = ExecuteStarQuery(spec, QatOptions{}, &stats);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->SameContents(ReferenceEvaluate(spec)));
  EXPECT_EQ(stats.fact_rows_scanned,
            ts->sales->PartitionRows(0) + ts->sales->PartitionRows(2));
}

TEST(QatEngineTest, SnapshotIsolation) {
  auto ts = MakeTinyStar(100);
  // Delete the first 10 fact rows as of snapshot 5; append 10 rows at
  // snapshot 8.
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(ts->sales->MarkDeleted(RowId{0, i}, 5).ok());
  }
  const Schema& fs = ts->sales->schema();
  for (int i = 0; i < 10; ++i) {
    uint8_t* row = ts->sales->AppendUninitialized(0, /*xmin=*/8);
    fs.SetInt32(row, 0, 1);
    fs.SetInt32(row, 1, 1);
    fs.SetInt32(row, 2, 1);
    fs.SetInt32(row, 3, 100);
  }

  StarQuerySpec spec = CountByRegion(*ts);
  auto count_at = [&](SnapshotId snap) {
    StarQuerySpec s2 = spec;
    s2.snapshot = snap;
    auto rs = ExecuteStarQuery(s2, QatOptions{});
    EXPECT_TRUE(rs.ok());
    int64_t n = 0;
    for (const auto& row : rs->rows) n += row[1].AsInt();
    EXPECT_TRUE(rs->SameContents(ReferenceEvaluate(s2)));
    return n;
  };
  EXPECT_EQ(count_at(4), 100);        // before the delete
  EXPECT_EQ(count_at(5), 90);         // delete visible
  EXPECT_EQ(count_at(8), 100);        // appended rows visible
  EXPECT_EQ(count_at(kReadLatestSnapshot), 100);
}

TEST(QatEngineTest, BatchedExecutorMatchesCJoinRouteOnRandomSpecs) {
  // Random specs over every column type, read at snapshots that hide
  // rows not yet created or already deleted; fact keys that join no
  // dimension row drop out of the join. The batched executor — at run
  // sizes that split the scan anywhere — must agree with the CJOIN route
  // on the same engine and with the reference evaluator.
  auto ms = MakeMixedStar(/*seed=*/3, /*num_facts=*/4000);
  QueryEngine engine;
  ASSERT_TRUE(engine.RegisterStar("mixed", *ms->star).ok());
  Rng rng(5);
  const size_t run_rows[] = {1, 7, 1024};
  for (int iter = 0; iter < 40; ++iter) {
    StarQuerySpec spec = RandomMixedSpec(*ms, rng);
    spec.snapshot = static_cast<SnapshotId>(rng.UniformInt(0, 4));
    const ResultSet ref = ReferenceEvaluate(spec);

    QatOptions opts;
    opts.scan_batch_rows = run_rows[iter % 3];
    QatStats stats;
    auto batched = ExecuteStarQuery(spec, opts, &stats);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    EXPECT_EQ(stats.fact_rows_scanned, ms->fact->NumRows());
    EXPECT_EQ(stats.fact_rows_output, ref.tuples_consumed);

    QueryRequest req = QueryRequest::FromSpec(spec);
    req.policy = RoutePolicy::kCJoin;
    auto ticket = engine.Execute(std::move(req));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    auto cjoin = (*ticket)->Wait();
    ASSERT_TRUE(cjoin.ok()) << cjoin.status().ToString();

    EXPECT_TRUE(SameContentsApprox(*batched, *cjoin))
        << "iteration " << iter << "\nbatched:\n" << batched->ToString(20)
        << "cjoin:\n" << cjoin->ToString(20);
    EXPECT_TRUE(SameContentsApprox(*batched, ref))
        << "iteration " << iter << "\nbatched:\n" << batched->ToString(20)
        << "reference:\n" << ref.ToString(20);
  }
}

TEST(QatEngineTest, PerTupleOverheadSlowsExecution) {
  auto ts = MakeTinyStar(20000);
  StarQuerySpec spec = CountByRegion(*ts);
  QatOptions fast, slow;
  slow.per_tuple_overhead = 256;
  // Wall-clock comparison: take each variant's best of three so a
  // descheduling blip (parallel ctest under TSan) cannot invert it.
  auto best_of = [&](const QatOptions& opts) {
    double best = 1e9;
    for (int i = 0; i < 3; ++i) {
      Stopwatch w;
      EXPECT_TRUE(ExecuteStarQuery(spec, opts).ok());
      best = std::min(best, w.ElapsedSeconds());
    }
    return best;
  };
  EXPECT_GT(best_of(slow), best_of(fast));
}

TEST(QatEngineTest, RejectsInvalidSpec) {
  auto ts = MakeTinyStar(10);
  StarQuerySpec bad;
  bad.schema = ts->star.get();
  bad.dim_predicates.push_back(DimensionPredicate{9, MakeTrue()});
  EXPECT_FALSE(ExecuteStarQuery(bad, QatOptions{}).ok());
}

TEST(QatEngineTest, SsbCanonicalQueriesMatchReference) {
  ssb::GenOptions opts;
  opts.scale_factor = 0.003;
  auto db = ssb::Generate(opts).value();
  ssb::SsbQueries queries(*db);
  for (const std::string& name : ssb::SsbQueries::AllNames()) {
    StarQuerySpec spec = queries.Canonical(name).value();
    auto rs = ExecuteStarQuery(spec, QatOptions{});
    ASSERT_TRUE(rs.ok()) << name;
    ResultSet ref = ReferenceEvaluate(spec);
    EXPECT_TRUE(rs->SameContents(ref))
        << name << "\ngot:\n" << rs->ToString() << "want:\n"
        << ref.ToString();
  }
}

}  // namespace
}  // namespace cjoin
