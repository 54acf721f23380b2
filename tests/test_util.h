// Shared test fixtures and an independent reference evaluator.

#ifndef CJOIN_TESTS_TEST_UTIL_H_
#define CJOIN_TESTS_TEST_UTIL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/query_spec.h"
#include "catalog/star_schema.h"
#include "common/rng.h"
#include "exec/aggregation.h"
#include "exec/result_set.h"
#include "storage/table.h"

namespace cjoin {
namespace testing {

/// A tiny hand-built star schema: fact "sales" with dimensions "product"
/// and "store", small enough that expected results are hand-checkable.
///
///   product(p_id INT32, p_cat CHAR(8), p_price INT32)   x num_products
///   store(s_id INT32, s_region CHAR(8))                 x num_stores
///   sales(f_pid INT32, f_sid INT32, f_qty INT32, f_amount INT32)
struct TinyStar {
  std::unique_ptr<Table> product;
  std::unique_ptr<Table> store;
  std::unique_ptr<Table> sales;
  std::unique_ptr<StarSchema> star;
};

/// Builds the tiny star with deterministic contents.
/// Fact row i: pid = i % num_products + 1, sid = i % num_stores + 1,
/// qty = i % 10 + 1, amount = (i % 100) * 10.
/// Product p: cat = "cat<p%4>", price = p * 100.
/// Store s: region = "R<s%3>".
std::unique_ptr<TinyStar> MakeTinyStar(uint64_t num_facts = 1000,
                                       int num_products = 20,
                                       int num_stores = 6,
                                       uint32_t fact_partitions = 1);

/// A star over every column type, for differential tests of the
/// aggregation kernel and the executors:
///
///   dim0(k0 INT32, big INT64, dbl DOUBLE, name CHAR(6), small INT32) x 20
///   dim1(k1 INT64, code CHAR(3), w DOUBLE)                           x 6
///   fact(fk0 INT32, fk1 INT64, q INT32, amt INT64, price DOUBLE,
///        tag CHAR(4))                                                x n
///
/// Values come from small domains so groups collide. Doubles are
/// multiples of 0.25 (with both zeros), so their sums are exact in any
/// order. fk0 ranges over 1..25 and fk1 over 1..8, so some fact rows
/// join no dimension row. Fact row i is created at snapshot i % 4; every
/// seventh row is deleted at snapshot 2.
struct MixedStar {
  std::unique_ptr<Table> dim0;
  std::unique_ptr<Table> dim1;
  std::unique_ptr<Table> fact;
  std::unique_ptr<StarSchema> star;
};

std::unique_ptr<MixedStar> MakeMixedStar(uint64_t seed, uint64_t num_facts);

/// A random normalized spec over a MixedStar: 0-3 group-by columns of
/// any type, 1-4 aggregates of every AggFn over columns (any type for
/// COUNT/MIN/MAX, numeric for SUM/AVG) or fact expressions (int- and
/// double-valued, NULL on division by zero), and optional dimension and
/// fact predicates. Reads the latest snapshot; callers set another.
StarQuerySpec RandomMixedSpec(const MixedStar& ms, Rng& rng);

/// ResultSet::SameContents, but doubles compare within a relative
/// tolerance: a floating-point sum depends on its fold order, which
/// differs between the hash, merged and sort-based aggregations.
bool SameContentsApprox(const ResultSet& a, const ResultSet& b,
                        double rel_tol = 1e-9);

/// Independent reference evaluation of a normalized star query: full
/// nested scans with std::map join indexes, feeding the *sort-based*
/// aggregator (a different code path than the pipeline's hash
/// aggregation). Ignores SimDisk; honors snapshots/partitions/predicates.
ResultSet ReferenceEvaluate(const StarQuerySpec& spec);

}  // namespace testing
}  // namespace cjoin

#endif  // CJOIN_TESTS_TEST_UTIL_H_
