// Star query specification (the template of paper §2.1).
//
//   SELECT A, Aggr_1, ..., Aggr_k
//   FROM F, D_d1, ..., D_dn
//   WHERE  /\ F |><| D_dj  AND  /\ sigma_cj(D_dj)  AND  sigma_c0(F)
//   GROUP BY B
//
// A StarQuerySpec is the bound, validated form of that template: which
// dimensions are referenced (with their selection predicates c_j), the
// fact predicate c_0, the grouping attributes B and aggregates, the
// snapshot the query reads, and optionally the fact partitions it is
// limited to (§5).

#ifndef CJOIN_CATALOG_QUERY_SPEC_H_
#define CJOIN_CATALOG_QUERY_SPEC_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/star_schema.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace cjoin {

/// Snapshot id that sees all committed (non-deleted) data; the default for
/// ad-hoc read queries.
inline constexpr SnapshotId kReadLatestSnapshot = kMaxSnapshot - 1;

/// Identifies a column of the star: either a fact column or a column of a
/// referenced dimension.
struct ColumnSource {
  enum class From { kFact, kDimension };

  From from = From::kFact;
  /// Dimension index within the StarSchema; meaningful iff kDimension.
  size_t dim_index = 0;
  /// Column index within that table's schema.
  size_t column = 0;

  static ColumnSource Fact(size_t column) {
    return ColumnSource{From::kFact, 0, column};
  }
  static ColumnSource Dim(size_t dim_index, size_t column) {
    return ColumnSource{From::kDimension, dim_index, column};
  }

  bool operator==(const ColumnSource&) const = default;
};

/// Standard SQL aggregate functions (paper §2.1).
enum class AggFn { kCount, kSum, kMin, kMax, kAvg };

const char* AggFnName(AggFn fn);

/// One aggregate of the SELECT list. COUNT(*) has no input. The input is
/// either a column of the star (`input`) or an arbitrary expression over
/// the *fact* row (`fact_expr`), e.g. SUM(lo_revenue - lo_supplycost) in
/// SSB Q4.x; at most one of the two may be set.
struct AggregateSpec {
  AggFn fn = AggFn::kCount;
  std::optional<ColumnSource> input;
  /// Expression over the fact schema; alternative to `input`.
  ExprPtr fact_expr;
  /// Output column label, e.g. "sum_revenue".
  std::string label;
};

/// Selection predicate c_j on one referenced dimension. A dimension that
/// is referenced only for grouping/aggregation carries the TRUE predicate.
struct DimensionPredicate {
  size_t dim_index = 0;
  ExprPtr predicate;  ///< over the dimension schema; never null
};

/// A bound star query.
struct StarQuerySpec {
  const StarSchema* schema = nullptr;

  /// Referenced dimensions with their predicates; at most one entry per
  /// dimension. Dimensions used in group_by/aggregates must appear here
  /// (Validate() auto-adds TRUE entries via NormalizeSpec below).
  std::vector<DimensionPredicate> dim_predicates;

  /// c_0: selection predicate on the fact table; null means TRUE. (The
  /// paper's prototype lacked this; this implementation supports it.)
  ExprPtr fact_predicate;

  /// Grouping attributes B; empty means a single global group.
  std::vector<ColumnSource> group_by;
  /// Labels for the group-by output columns (same arity as group_by).
  std::vector<std::string> group_by_labels;

  /// Aggregates; may be empty (pure group enumeration).
  std::vector<AggregateSpec> aggregates;

  /// Snapshot the query reads under snapshot isolation (§3.5).
  SnapshotId snapshot = kReadLatestSnapshot;

  /// Fact partitions to scan; empty = all (§5 "Fact Table Partitioning").
  std::vector<uint32_t> partitions;

  /// Free-form tag for workload bookkeeping (e.g. "Q4.2").
  std::string label;
};

/// Checks that `src` names an existing column of `star`; `what` prefixes
/// the error message.
Status CheckColumnSource(const StarSchema& star, const ColumnSource& src,
                         const char* what);

/// The schema `src` reads through: the fact table's or its dimension's.
/// `src` must pass CheckColumnSource.
const Schema& SourceSchema(const StarSchema& star, const ColumnSource& src);

/// Checks internal consistency: dimension indices in range, group-by /
/// aggregate sources referencing the fact or a referenced dimension,
/// partition ids valid, label arities matching.
Status ValidateSpec(const StarQuerySpec& spec);

/// Returns a validated copy of `spec` with implicit TRUE predicates added
/// for dimensions referenced only by group-by/aggregates, duplicate
/// dimension predicates merged (ANDed), and missing labels synthesized.
Result<StarQuerySpec> NormalizeSpec(StarQuerySpec spec);

}  // namespace cjoin

#endif  // CJOIN_CATALOG_QUERY_SPEC_H_
