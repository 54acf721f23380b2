#include "tests/test_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

namespace cjoin {
namespace testing {

std::unique_ptr<TinyStar> MakeTinyStar(uint64_t num_facts, int num_products,
                                       int num_stores,
                                       uint32_t fact_partitions) {
  auto ts = std::make_unique<TinyStar>();

  Schema pschema;
  pschema.AddInt32("p_id").AddChar("p_cat", 8).AddInt32("p_price");
  ts->product = std::make_unique<Table>("product", pschema);
  for (int p = 1; p <= num_products; ++p) {
    uint8_t* row = ts->product->AppendUninitialized();
    char cat[9];
    std::snprintf(cat, sizeof(cat), "cat%d", p % 4);
    pschema.SetInt32(row, 0, p);
    pschema.SetChar(row, 1, cat);
    pschema.SetInt32(row, 2, p * 100);
  }

  Schema sschema;
  sschema.AddInt32("s_id").AddChar("s_region", 8);
  ts->store = std::make_unique<Table>("store", sschema);
  for (int s = 1; s <= num_stores; ++s) {
    uint8_t* row = ts->store->AppendUninitialized();
    char region[9];
    std::snprintf(region, sizeof(region), "R%d", s % 3);
    sschema.SetInt32(row, 0, s);
    sschema.SetChar(row, 1, region);
  }

  Schema fschema;
  fschema.AddInt32("f_pid").AddInt32("f_sid").AddInt32("f_qty").AddInt32(
      "f_amount");
  Table::Options fopts;
  fopts.rows_per_page = 128;  // several pages even for small tables
  fopts.num_partitions = fact_partitions;
  ts->sales = std::make_unique<Table>("sales", fschema, fopts);
  for (uint64_t i = 0; i < num_facts; ++i) {
    uint8_t* row = ts->sales->AppendUninitialized(
        static_cast<uint32_t>(i % fact_partitions));
    fschema.SetInt32(row, 0, static_cast<int32_t>(i % num_products) + 1);
    fschema.SetInt32(row, 1, static_cast<int32_t>(i % num_stores) + 1);
    fschema.SetInt32(row, 2, static_cast<int32_t>(i % 10) + 1);
    fschema.SetInt32(row, 3, static_cast<int32_t>(i % 100) * 10);
  }

  auto star = StarSchema::Make(
      ts->sales.get(),
      std::vector<StarSchema::DimensionByName>{
          {ts->product.get(), "f_pid", "p_id"},
          {ts->store.get(), "f_sid", "s_id"},
      });
  ts->star = std::make_unique<StarSchema>(std::move(star).value());
  return ts;
}

std::unique_ptr<MixedStar> MakeMixedStar(uint64_t seed, uint64_t num_facts) {
  auto ms = std::make_unique<MixedStar>();
  Rng rng(seed);
  // Multiples of 0.25 in [-1, 1], including -0.0.
  auto quarter = [&rng]() {
    const int64_t k = rng.UniformInt(-4, 4);
    return k == 0 && rng.Bernoulli(0.5) ? -0.0 : static_cast<double>(k) / 4;
  };
  const char* names[] = {"ant", "bee", "cat", "dog", "", "eel"};

  Schema d0;
  d0.AddInt32("k0").AddInt64("big").AddDouble("dbl").AddChar("name", 6)
      .AddInt32("small");
  ms->dim0 = std::make_unique<Table>("dim0", d0);
  for (int k = 1; k <= 20; ++k) {
    uint8_t* row = ms->dim0->AppendUninitialized();
    d0.SetInt32(row, 0, k);
    d0.SetInt64(row, 1, rng.UniformInt(0, 3) * 10'000'000'000LL);
    d0.SetDouble(row, 2, quarter());
    d0.SetChar(row, 3, names[rng.UniformInt(0, 5)]);
    d0.SetInt32(row, 4, static_cast<int32_t>(rng.UniformInt(-3, 3)));
  }

  Schema d1;
  d1.AddInt64("k1").AddChar("code", 3).AddDouble("w");
  ms->dim1 = std::make_unique<Table>("dim1", d1);
  for (int k = 1; k <= 6; ++k) {
    uint8_t* row = ms->dim1->AppendUninitialized();
    d1.SetInt64(row, 0, k);
    d1.SetChar(row, 1, k % 2 == 0 ? "abc" : "ab");
    d1.SetDouble(row, 2, quarter());
  }

  Schema f;
  f.AddInt32("fk0").AddInt64("fk1").AddInt32("q").AddInt64("amt")
      .AddDouble("price").AddChar("tag", 4);
  Table::Options fopts;
  fopts.rows_per_page = 256;
  ms->fact = std::make_unique<Table>("fact", f, fopts);
  std::vector<uint8_t> row(f.row_size());
  for (uint64_t i = 0; i < num_facts; ++i) {
    std::fill(row.begin(), row.end(), 0);
    f.SetInt32(row.data(), 0, static_cast<int32_t>(rng.UniformInt(1, 25)));
    f.SetInt64(row.data(), 1, rng.UniformInt(1, 8));
    f.SetInt32(row.data(), 2, static_cast<int32_t>(rng.UniformInt(0, 5)));
    f.SetInt64(row.data(), 3, rng.UniformInt(-50, 50));
    f.SetDouble(row.data(), 4, quarter());
    f.SetChar(row.data(), 5, names[rng.UniformInt(0, 5)]);
    const RowId id = ms->fact->AppendRow(row.data(), 0,
                                         static_cast<SnapshotId>(i % 4));
    if (i % 7 == 0) (void)ms->fact->MarkDeleted(id, 2);
  }

  auto star = StarSchema::Make(
      ms->fact.get(), std::vector<StarSchema::DimensionByName>{
                          {ms->dim0.get(), "fk0", "k0"},
                          {ms->dim1.get(), "fk1", "k1"},
                      });
  ms->star = std::make_unique<StarSchema>(std::move(star).value());
  return ms;
}

StarQuerySpec RandomMixedSpec(const MixedStar& ms, Rng& rng) {
  const std::vector<ColumnSource> columns = {
      ColumnSource::Fact(0), ColumnSource::Fact(1), ColumnSource::Fact(2),
      ColumnSource::Fact(3), ColumnSource::Fact(4), ColumnSource::Fact(5),
      ColumnSource::Dim(0, 1), ColumnSource::Dim(0, 2),
      ColumnSource::Dim(0, 3), ColumnSource::Dim(0, 4),
      ColumnSource::Dim(1, 1), ColumnSource::Dim(1, 2)};
  const std::vector<ColumnSource> numeric = {
      ColumnSource::Fact(2), ColumnSource::Fact(3), ColumnSource::Fact(4),
      ColumnSource::Dim(0, 1), ColumnSource::Dim(0, 2),
      ColumnSource::Dim(0, 4), ColumnSource::Dim(1, 2)};
  // q * amt (int), price - q (double), amt / q (double; NULL for q = 0).
  const std::vector<ExprPtr> exprs = {
      MakeArith(ArithOp::kMul, MakeColumnRef(2), MakeColumnRef(3)),
      MakeArith(ArithOp::kSub, MakeColumnRef(4), MakeColumnRef(2)),
      MakeArith(ArithOp::kDiv, MakeColumnRef(3), MakeColumnRef(2))};

  StarQuerySpec spec;
  spec.schema = ms.star.get();
  const int64_t groups = rng.UniformInt(0, 3);
  for (int64_t g = 0; g < groups; ++g) {
    spec.group_by.push_back(rng.Choice(columns));
  }
  const int64_t aggs = rng.UniformInt(1, 4);
  for (int64_t a = 0; a < aggs; ++a) {
    AggregateSpec agg;
    agg.fn = static_cast<AggFn>(rng.UniformInt(0, 4));
    agg.label = "a" + std::to_string(a);
    const bool expr = rng.Bernoulli(0.3);
    switch (agg.fn) {
      case AggFn::kCount:
        if (rng.Bernoulli(0.5)) agg.input = rng.Choice(columns);
        break;
      case AggFn::kSum:
      case AggFn::kAvg:
        if (expr) {
          agg.fact_expr = rng.Choice(exprs);
        } else {
          agg.input = rng.Choice(numeric);
        }
        break;
      case AggFn::kMin:
      case AggFn::kMax:
        if (expr) {
          agg.fact_expr = rng.Choice(exprs);
        } else {
          agg.input = rng.Choice(columns);
        }
        break;
    }
    spec.aggregates.push_back(std::move(agg));
  }
  if (rng.Bernoulli(0.4)) {
    spec.dim_predicates.push_back(DimensionPredicate{
        0, MakeCompare(CmpOp::kLe, MakeColumnRef(4),
                       MakeLiteral(Value(rng.UniformInt(-3, 3))))});
  }
  if (rng.Bernoulli(0.3)) {
    spec.dim_predicates.push_back(DimensionPredicate{
        1, MakeCompare(CmpOp::kEq, MakeColumnRef(1),
                       MakeLiteral(Value("ab")))});
  }
  if (rng.Bernoulli(0.3)) {
    spec.fact_predicate = MakeCompare(CmpOp::kGe, MakeColumnRef(2),
                                      MakeLiteral(Value(2)));
  }
  return NormalizeSpec(std::move(spec)).value();
}

bool SameContentsApprox(const ResultSet& a, const ResultSet& b,
                        double rel_tol) {
  if (a.columns != b.columns || a.rows.size() != b.rows.size()) return false;
  // Group keys are exact and unique per row, so sorting pairs the rows.
  ResultSet x = a, y = b;
  x.SortRows();
  y.SortRows();
  for (size_t i = 0; i < x.rows.size(); ++i) {
    if (x.rows[i].size() != y.rows[i].size()) return false;
    for (size_t j = 0; j < x.rows[i].size(); ++j) {
      const Value& u = x.rows[i][j];
      const Value& v = y.rows[i][j];
      if (u.is_double() || v.is_double()) {
        if (!u.is_numeric() || !v.is_numeric()) return false;
        const double p = u.AsDouble(), q = v.AsDouble();
        const double scale = std::max({1.0, std::abs(p), std::abs(q)});
        if (std::abs(p - q) > rel_tol * scale) return false;
      } else if (u.Compare(v) != 0) {
        return false;
      }
    }
  }
  return true;
}

ResultSet ReferenceEvaluate(const StarQuerySpec& spec) {
  const StarSchema& star = *spec.schema;

  // Selected rows of each referenced dimension, keyed by PK.
  std::vector<std::map<int64_t, const uint8_t*>> selected(
      star.num_dimensions());
  std::vector<bool> referenced(star.num_dimensions(), false);
  for (const DimensionPredicate& dp : spec.dim_predicates) {
    referenced[dp.dim_index] = true;
    const DimensionDef& def = star.dimension(dp.dim_index);
    const Table& dim = *def.table;
    for (uint32_t p = 0; p < dim.num_partitions(); ++p) {
      for (uint64_t i = 0; i < dim.PartitionRows(p); ++i) {
        const RowId id{p, i};
        if (!dim.Header(id)->VisibleAt(spec.snapshot)) continue;
        const uint8_t* row = dim.RowPayload(id);
        if (!dp.predicate->EvalBool(dim.schema(), row)) continue;
        selected[dp.dim_index][dim.schema().GetIntAny(row, def.dim_pk_col)] =
            row;
      }
    }
  }

  std::unique_ptr<StarAggregator> agg = MakeSortAggregator(spec);
  const Table& fact = star.fact();
  const Schema& fschema = fact.schema();

  std::vector<uint32_t> parts = spec.partitions;
  if (parts.empty()) {
    for (uint32_t p = 0; p < fact.num_partitions(); ++p) parts.push_back(p);
  }

  std::vector<const uint8_t*> dim_rows(star.num_dimensions(), nullptr);
  for (uint32_t p : parts) {
    for (uint64_t i = 0; i < fact.PartitionRows(p); ++i) {
      const RowId id{p, i};
      if (!fact.Header(id)->VisibleAt(spec.snapshot)) continue;
      const uint8_t* row = fact.RowPayload(id);
      if (spec.fact_predicate != nullptr &&
          !spec.fact_predicate->EvalBool(fschema, row)) {
        continue;
      }
      bool pass = true;
      for (size_t d = 0; d < star.num_dimensions(); ++d) {
        dim_rows[d] = nullptr;
        if (!referenced[d]) continue;
        const int64_t fk =
            fschema.GetIntAny(row, star.dimension(d).fact_fk_col);
        auto it = selected[d].find(fk);
        if (it == selected[d].end()) {
          pass = false;
          break;
        }
        dim_rows[d] = it->second;
      }
      if (!pass) continue;
      agg->Consume(row, dim_rows.data());
    }
  }
  return agg->Finish();
}

}  // namespace testing
}  // namespace cjoin
