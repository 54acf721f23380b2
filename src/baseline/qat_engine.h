// Query-at-a-time baseline engine (paper §6.1.1's comparison systems).
//
// The paper compares CJOIN against a commercial DBMS ("System X") and
// PostgreSQL and verifies that both evaluate SSB star queries with the
// same physical plan: "a pipeline of hash joins that filter a single scan
// of the fact table". This module implements exactly that plan, on the
// same storage / expression / aggregation substrates CJOIN uses, so the
// comparison isolates the sharing strategy:
//
//   per query:  build one hash table per referenced dimension
//               (scan dimension, apply predicate, hash selected rows)
//               then scan the fact table privately, probing the hash
//               tables in ascending-selectivity order, and aggregate.
//
// The probe side runs a scan run (<= scan_batch_rows) at a time: a
// selection vector of the rows visible at the snapshot that pass the
// fact predicate, then per join a typed gather of the foreign keys, a
// batched (prefetching) hash-table probe and a compaction of the
// selection, and finally one fold per surviving row into the
// fixed-width GroupTable kernel.
//
// Under concurrency every query pays its own scan and its own hash
// builds — the contention the paper attributes to the query-at-a-time
// model. A per-tuple overhead knob models the heavier tuple interpreter
// of a full SQL system (used to differentiate the System X and
// PostgreSQL profiles in the benches); a shared reader id models
// PostgreSQL's synchronized sequential scans.

#ifndef CJOIN_BASELINE_QAT_ENGINE_H_
#define CJOIN_BASELINE_QAT_ENGINE_H_

#include <atomic>
#include <cstdint>

#include "catalog/query_spec.h"
#include "common/status.h"
#include "exec/result_set.h"
#include "storage/sim_disk.h"

namespace cjoin {

/// Execution knobs for the baseline.
struct QatOptions {
  /// Shared disk model; nullptr runs at memory speed.
  SimDisk* disk = nullptr;
  /// Disk reader identity. Private scans use distinct ids (each query
  /// seeks against the others); synchronized-scan mode shares one id.
  uint64_t reader_id = 0;
  /// Extra hash-mix rounds charged per scanned fact tuple, modelling the
  /// per-tuple interpretation cost of a general-purpose executor
  /// (0 ~ lean commercial executor, larger ~ PostgreSQL).
  int per_tuple_overhead = 0;
  /// Rows per scan run.
  size_t scan_batch_rows = 1024;

  /// Cooperative cancellation: when non-null and set to true, the
  /// executor stops at the next batch boundary and returns kCancelled.
  const std::atomic<bool>* cancel = nullptr;
  /// Absolute deadline, steady-clock nanos (0 = none); checked at batch
  /// boundaries, trips with kDeadlineExceeded.
  int64_t deadline_ns = 0;
};

/// Execution statistics of one baseline query.
struct QatStats {
  uint64_t fact_rows_scanned = 0;
  uint64_t fact_rows_output = 0;
  uint64_t dim_rows_hashed = 0;
  double build_seconds = 0.0;
  double probe_seconds = 0.0;
};

/// Evaluates one star query with a private hash-join pipeline.
/// `spec` must be normalized (NormalizeSpec).
Result<ResultSet> ExecuteStarQuery(const StarQuerySpec& spec,
                                   const QatOptions& options,
                                   QatStats* stats = nullptr);

}  // namespace cjoin

#endif  // CJOIN_BASELINE_QAT_ENGINE_H_
