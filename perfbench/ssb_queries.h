// Benchmark inputs drawn from the workload seed: SSB star queries in the
// paper's template shapes (Q2.1..Q4.3, §6.1.2) and fact rows to ingest.
//
// Query instances come from the engine's own template generator
// (cjoin::ssb::SsbQueries::FromTemplate). Each is kept beside a plain
// description read back from its spec: the key range of each restricted
// dimension, the group-by columns and the measure. The reference
// evaluator (reference.h) reads only that description, so it shares no
// expression or aggregation code with the engine, and the wire workload
// renders it as SQL text.

#ifndef PERFBENCH_SSB_QUERIES_H_
#define PERFBENCH_SSB_QUERIES_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/query_spec.h"
#include "common/rng.h"
#include "ssb/generator.h"
#include "ssb/queries.h"

namespace perfbench {

inline constexpr size_t kDims = 4;  // date, customer, supplier, part

/// SUM(lo_revenue) or SUM(lo_revenue - lo_supplycost).
enum class Measure { kRevenue, kProfit };

struct GroupCol {
  size_t dim = 0;
  std::string column;  ///< dimension column name, e.g. "d_year"
};

struct QueryDesc {
  std::string name;  ///< "<template>#<sequence>", e.g. "Q3.2#17"
  /// What the engine receives through QueryEngine::Execute.
  cjoin::StarQuerySpec spec;
  // The plain description of `spec`.
  std::array<bool, kDims> referenced{};
  std::array<bool, kDims> restricted{};
  /// Inclusive primary-key range of each restricted dimension.
  std::array<int64_t, kDims> lo{};
  std::array<int64_t, kDims> hi{};
  std::vector<GroupCol> group_by;
  Measure measure = Measure::kRevenue;
};

/// One generated fact row: the columns the queries read, and the full
/// LINEORDER payload for QueryEngine::AppendFacts.
struct FactRow {
  int32_t orderdate = 0, custkey = 0, suppkey = 0, partkey = 0;
  int32_t revenue = 0, supplycost = 0;
  std::vector<uint8_t> payload;
};

/// Draws queries and ingest rows over one generated SSB database.
class Generator {
 public:
  explicit Generator(const cjoin::ssb::SsbDatabase& db)
      : db_(db), queries_(db) {}

  /// A fresh instance of a uniformly drawn paper template whose every
  /// restricted dimension selects `selectivity` of its rows. A roll-up
  /// keeps only the template's first group-by column.
  QueryDesc Query(cjoin::Rng& rng, double selectivity, uint64_t seq,
                  bool rollup = false) const;

  /// A fact row with valid foreign keys and random measures.
  FactRow Row(cjoin::Rng& rng) const;

 private:
  const cjoin::ssb::SsbDatabase& db_;
  cjoin::ssb::SsbQueries queries_;
};

/// The SQL text of `q` in the engine's star-query dialect.
std::string ToSql(const QueryDesc& q, const cjoin::StarSchema& star);

}  // namespace perfbench

#endif  // PERFBENCH_SSB_QUERIES_H_
