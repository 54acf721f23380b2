// Aggregation operators (the sinks of the CJOIN pipeline, §3.1).
//
// The Distributor routes each surviving fact tuple, together with its
// attached dimension-row pointers, to the aggregation operator of every
// query whose bit is set. Two implementations are provided:
//
//   * HashStarAggregator — hash-based group-by over the fixed-width
//     GroupTable kernel (the default): typed loads, no per-tuple Values;
//   * SortStarAggregator — sort-based: buffers Value (key, inputs) pairs
//     and aggregates sorted runs at Finish(). Slower but gives a second,
//     independently-derived answer used by property tests.
//
// Both consume (fact_row, dim_rows[]) and produce a ResultSet whose
// columns are the group-by attributes followed by the aggregates.

#ifndef CJOIN_EXEC_AGGREGATION_H_
#define CJOIN_EXEC_AGGREGATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "catalog/query_spec.h"
#include "exec/group_table.h"
#include "exec/result_set.h"
#include "expr/value.h"

namespace cjoin {

/// Common interface of per-query aggregation operators.
class StarAggregator {
 public:
  virtual ~StarAggregator() = default;

  /// Folds one joined tuple into the aggregate state. `dim_rows[i]` is the
  /// payload of the dimension row joining the fact row on dimension i of
  /// the star schema (may be null for dimensions the query does not
  /// reference).
  virtual void Consume(const uint8_t* fact_row,
                       const uint8_t* const* dim_rows) = 0;

  /// Completes the aggregation and returns the results. The operator may
  /// not be reused afterwards.
  virtual ResultSet Finish() = 0;

  /// Tuples consumed so far.
  virtual uint64_t tuples_consumed() const = 0;
};

/// Creates the default (hash-based) aggregator for a normalized spec.
std::unique_ptr<StarAggregator> MakeHashAggregator(const StarQuerySpec& spec);

/// Creates the sort-based aggregator (for testing / comparison).
std::unique_ptr<StarAggregator> MakeSortAggregator(const StarQuerySpec& spec);

/// GroupTable layout of a normalized spec: its group-by columns' storage
/// types, then one AggDef per aggregate (a fact expression's input is
/// FieldType::Numeric()).
GroupLayout StarGroupLayout(const StarQuerySpec& spec);

/// Receives an aggregator's *partial* group state when it finishes.
using PartialSink = std::function<void(GroupTable&& partial, uint64_t consumed)>;

/// Hash aggregator whose Finish() hands its raw GroupTable — un-finalized
/// running states — to `sink` instead of materializing final values, and
/// returns an empty ResultSet (tuples_consumed still set). The sharded
/// CJOIN operator installs one per shard and merges the partials
/// shard-wise, which is exact for every AggFn (AVG divides only after the
/// merged counts and sums are combined).
std::unique_ptr<StarAggregator> MakePartialHashAggregator(
    const StarQuerySpec& spec, PartialSink sink);

}  // namespace cjoin

#endif  // CJOIN_EXEC_AGGREGATION_H_
