#include "ssb_queries.h"

#include <cstdio>
#include <cstdlib>

#include "ssb/ssb_schema.h"

namespace perfbench {

using cjoin::Rng;
using cjoin::ssb::kDimCustomer;
using cjoin::ssb::kDimDate;
using cjoin::ssb::kDimPart;
using cjoin::ssb::kDimSupplier;

namespace {

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::abort();
}

/// Reads the plain description (key ranges, group-by, measure) back from
/// a template instance, and aborts on any shape the reference cannot
/// evaluate.
QueryDesc Describe(cjoin::StarQuerySpec spec) {
  using namespace cjoin;
  const StarSchema& star = *spec.schema;
  const Schema& fact = star.fact().schema();
  QueryDesc q;
  for (const DimensionPredicate& dp : spec.dim_predicates) {
    const size_t d = dp.dim_index;
    q.referenced[d] = true;
    if (IsTrueLiteral(dp.predicate)) continue;
    // FromTemplate's only restriction: "(<pk> BETWEEN <lo> AND <hi>)".
    const DimensionDef& def = star.dimension(d);
    const std::string text = dp.predicate->ToString(def.table->schema());
    const std::string head =
        "(" + def.table->schema().column(def.dim_pk_col).name + " BETWEEN ";
    long long lo = 0, hi = 0;
    if (text.rfind(head, 0) != 0 ||
        std::sscanf(text.c_str() + head.size(), "%lld AND %lld", &lo,
                    &hi) != 2 ||
        text != head + std::to_string(lo) + " AND " + std::to_string(hi) +
                    ")") {
      Fail("unexpected template predicate " + text);
    }
    q.restricted[d] = true;
    q.lo[d] = lo;
    q.hi[d] = hi;
  }
  for (const ColumnSource& g : spec.group_by) {
    if (g.from != ColumnSource::From::kDimension) {
      Fail("unexpected fact group-by column");
    }
    q.group_by.push_back(
        {g.dim_index,
         star.dimension(g.dim_index).table->schema().column(g.column).name});
  }
  const size_t revenue = static_cast<size_t>(fact.ColumnIndex("lo_revenue"));
  const std::string profit =
      MakeArith(ArithOp::kSub, MakeColumnRef(revenue),
                MakeColumnRef(
                    static_cast<size_t>(fact.ColumnIndex("lo_supplycost"))))
          ->ToString(fact);
  if (spec.aggregates.size() != 1 || spec.aggregates[0].fn != AggFn::kSum) {
    Fail("unexpected template aggregates");
  }
  const AggregateSpec& agg = spec.aggregates[0];
  const std::string arg =
      agg.input.has_value() ? fact.column(agg.input->column).name
      : agg.fact_expr != nullptr ? agg.fact_expr->ToString(fact)
                                 : "";
  if (arg == fact.column(revenue).name) {
    q.measure = Measure::kRevenue;
  } else if (arg == profit) {
    q.measure = Measure::kProfit;
  } else {
    Fail("unexpected template aggregate SUM(" + arg + ")");
  }
  q.spec = std::move(spec);
  return q;
}

}  // namespace

QueryDesc Generator::Query(Rng& rng, double selectivity, uint64_t seq,
                           bool rollup) const {
  const auto& names = cjoin::ssb::SsbQueries::PaperTemplateNames();
  const std::string& name = names[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(names.size()) - 1))];
  cjoin::Result<cjoin::StarQuerySpec> spec =
      queries_.FromTemplate(name, selectivity, rng);
  if (!spec.ok()) Fail(name + ": " + spec.status().ToString());
  if (rollup) {
    spec->group_by.resize(1);
    spec->group_by_labels.resize(1);
  }
  QueryDesc q = Describe(std::move(spec).value());
  q.name = name + "#" + std::to_string(seq);
  q.spec.label = q.name;
  return q;
}

FactRow Generator::Row(Rng& rng) const {
  auto pick = [&](size_t d) {
    const cjoin::DimensionDef& def = db_.star->dimension(d);
    const cjoin::Table& t = *def.table;
    const uint64_t i = static_cast<uint64_t>(
        rng.UniformInt(0, static_cast<int64_t>(t.NumRows()) - 1));
    return static_cast<int32_t>(t.schema().GetIntAny(
        t.RowPayload(cjoin::RowId{0, i}), def.dim_pk_col));
  };
  FactRow r;
  r.orderdate = pick(kDimDate);
  r.custkey = pick(kDimCustomer);
  r.suppkey = pick(kDimSupplier);
  r.partkey = pick(kDimPart);
  r.revenue = static_cast<int32_t>(rng.UniformInt(1000, 10'000'000));
  r.supplycost = static_cast<int32_t>(rng.UniformInt(100, 100'000));
  const cjoin::Schema& s = db_.lineorder->schema();
  r.payload.assign(s.row_size(), 0);
  for (size_t c = 0; c < s.num_columns(); ++c) {
    const std::string& n = s.column(c).name;
    if (s.column(c).type == cjoin::DataType::kChar) {
      s.SetChar(r.payload.data(), c, "X");
      continue;
    }
    int32_t v = static_cast<int32_t>(rng.UniformInt(1, 50));
    if (n == "lo_orderdate" || n == "lo_commitdate") v = r.orderdate;
    if (n == "lo_custkey") v = r.custkey;
    if (n == "lo_suppkey") v = r.suppkey;
    if (n == "lo_partkey") v = r.partkey;
    if (n == "lo_revenue") v = r.revenue;
    if (n == "lo_supplycost") v = r.supplycost;
    s.SetInt32(r.payload.data(), c, v);
  }
  return r;
}

std::string ToSql(const QueryDesc& q, const cjoin::StarSchema& star) {
  const cjoin::Schema& fact = star.fact().schema();
  std::string select, from = star.fact().name(), where, group;
  for (const GroupCol& g : q.group_by) {
    select += g.column + ", ";
    group += (group.empty() ? "" : ", ") + g.column;
  }
  select += q.measure == Measure::kRevenue
                ? "SUM(lo_revenue) AS revenue"
                : "SUM(lo_revenue - lo_supplycost) AS profit";
  for (size_t d = 0; d < kDims; ++d) {
    if (!q.referenced[d]) continue;
    const cjoin::DimensionDef& def = star.dimension(d);
    const std::string& pk = def.table->schema().column(def.dim_pk_col).name;
    from += ", " + def.table->name();
    where += (where.empty() ? "" : " AND ") +
             fact.column(def.fact_fk_col).name + " = " + pk;
    if (q.restricted[d]) {
      where += " AND " + pk + " BETWEEN " + std::to_string(q.lo[d]) +
               " AND " + std::to_string(q.hi[d]);
    }
  }
  return "SELECT " + select + " FROM " + from + " WHERE " + where +
         " GROUP BY " + group;
}

}  // namespace perfbench
