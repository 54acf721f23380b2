#include "baseline/qat_engine.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/clock.h"
#include "exec/aggregation.h"
#include "exec/key_row_map.h"
#include "storage/continuous_scan.h"

namespace cjoin {

namespace {

/// One hash join of the pipeline: the dimension's hash table plus the fact
/// foreign-key column to probe with (offset and width resolved once).
struct JoinStage {
  size_t dim_index = 0;
  uint32_t fk_offset = 0;
  bool fk_is_i32 = false;
  KeyRowMap table;
  double selectivity = 1.0;  // |hash table| / |dimension|
};

/// Burns `rounds` hash-mix rounds; models interpreter overhead.
inline uint64_t BurnOverhead(uint64_t seed, int rounds) {
  uint64_t h = seed;
  for (int i = 0; i < rounds; ++i) h = Mix64(h);
  return h;
}

/// Batch-boundary interruption check (cancellation / deadline).
Status CheckInterrupt(const QatOptions& options) {
  if (options.cancel != nullptr &&
      options.cancel->load(std::memory_order_acquire)) {
    return Status::Cancelled("baseline query cancelled");
  }
  if (options.deadline_ns != 0 &&
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
              .count() >= options.deadline_ns) {
    return Status::DeadlineExceeded("baseline query deadline expired");
  }
  return Status::OK();
}

}  // namespace

Result<ResultSet> ExecuteStarQuery(const StarQuerySpec& spec,
                                   const QatOptions& options,
                                   QatStats* stats) {
  CJOIN_RETURN_IF_ERROR(ValidateSpec(spec));
  const StarSchema& star = *spec.schema;
  QatStats local_stats;
  Stopwatch watch;

  // ---- Build phase: one private hash table per referenced dimension ----
  std::vector<JoinStage> stages;
  stages.reserve(spec.dim_predicates.size());
  for (const DimensionPredicate& dp : spec.dim_predicates) {
    const DimensionDef& def = star.dimension(dp.dim_index);
    const Table& dim = *def.table;
    const Schema& dschema = dim.schema();

    const Column& fk = star.fact().schema().column(def.fact_fk_col);
    const Column& pk = dschema.column(def.dim_pk_col);
    const bool pk_is_i32 = pk.type == DataType::kInt32;

    JoinStage stage;
    stage.dim_index = dp.dim_index;
    stage.fk_offset = fk.offset;
    stage.fk_is_i32 = fk.type == DataType::kInt32;
    stage.table = KeyRowMap(static_cast<size_t>(dim.NumRows()));

    for (uint32_t p = 0; p < dim.num_partitions(); ++p) {
      CJOIN_RETURN_IF_ERROR(CheckInterrupt(options));
      for (uint64_t i = 0; i < dim.PartitionRows(p); ++i) {
        const RowId id{p, i};
        if (!dim.Header(id)->VisibleAt(spec.snapshot)) continue;
        const uint8_t* row = dim.RowPayload(id);
        if (!dp.predicate->EvalBool(dschema, row)) continue;
        stage.table.Insert(LoadFkKey(row, pk.offset, pk_is_i32), row);
      }
    }
    local_stats.dim_rows_hashed += stage.table.size();
    stage.selectivity =
        dim.NumRows() == 0
            ? 1.0
            : static_cast<double>(stage.table.size()) /
                  static_cast<double>(dim.NumRows());
    stages.push_back(std::move(stage));
  }

  // Probe the most selective joins first — the standard left-deep plan
  // ordering the comparison systems' optimizers chose as well.
  std::sort(stages.begin(), stages.end(),
            [](const JoinStage& a, const JoinStage& b) {
              return a.selectivity < b.selectivity;
            });
  local_stats.build_seconds = watch.ElapsedSeconds();
  watch.Restart();

  // ---- Probe phase: private scan of the fact table, a run at a time ----
  const Schema& fschema = star.fact().schema();
  std::unique_ptr<StarAggregator> agg = MakeHashAggregator(spec);

  ContinuousScan::Options scan_opts;
  scan_opts.max_run_rows = options.scan_batch_rows;
  scan_opts.disk = options.disk;
  scan_opts.reader_id = options.reader_id;
  SinglePassScan scan(star.fact(), scan_opts, spec.partitions);

  const size_t num_dims = star.num_dimensions();
  const size_t stride = star.fact().row_stride();
  const bool has_fact_pred =
      spec.fact_predicate != nullptr && !IsTrueLiteral(spec.fact_predicate);

  // Per-run scratch, indexed by the row's position in the run: the
  // selection vector of rows still alive and each row's joined dimension
  // rows (nullptr for dimensions the query does not reference).
  std::vector<uint32_t> sel;
  std::vector<const uint8_t*> dim_rows;
  const JoinStage* first_join = stages.empty() ? nullptr : &stages[0];

  ScanEvent ev;
  uint64_t burn_sink = 0;
  while (scan.Next(&ev)) {
    if (ev.kind != ScanEvent::Kind::kRows) continue;
    CJOIN_RETURN_IF_ERROR(CheckInterrupt(options));
    if (sel.size() < ev.count) {
      sel.resize(ev.count);
      dim_rows.resize(ev.count * num_dims, nullptr);
    }
    const uint8_t* const base = ev.base;
    auto payload = [base, stride](size_t r) {
      return base + r * stride + sizeof(RowHeader);
    };
    // Gathers row r's foreign key with the join's hoisted typed load,
    // probes its hash table and records the joined dimension row.
    auto join = [&](const JoinStage& stage, size_t r) {
      const uint8_t* drow = stage.table.Find(
          LoadFkKey(payload(r), stage.fk_offset, stage.fk_is_i32));
      if (drow == nullptr) return false;
      dim_rows[r * num_dims + stage.dim_index] = drow;
      return true;
    };

    // Selection: the rows visible at the snapshot that pass the fact
    // predicate and the first (most selective) join. Probing that join
    // while the row is at hand keeps the rows a selective query drops —
    // nearly all of them — out of the selection vector.
    const SnapshotId snap = spec.snapshot;
    size_t n = 0;
    for (size_t r = 0; r < ev.count; ++r) {
      const RowHeader* hdr =
          reinterpret_cast<const RowHeader*>(base + r * stride);
      if (options.per_tuple_overhead > 0) {
        burn_sink ^= BurnOverhead(local_stats.fact_rows_scanned + r + 1,
                                  options.per_tuple_overhead);
      }
      if (!hdr->VisibleToAll() && !hdr->VisibleAt(snap)) continue;
      if (has_fact_pred &&
          !spec.fact_predicate->EvalBool(fschema, payload(r))) {
        continue;
      }
      if (first_join != nullptr && !join(*first_join, r)) continue;
      sel[n++] = static_cast<uint32_t>(r);
    }
    local_stats.fact_rows_scanned += ev.count;

    // The remaining joins, in selectivity order, each compacting the
    // selection to the rows that found their dimension row.
    for (size_t s = 1; s < stages.size() && n > 0; ++s) {
      size_t m = 0;
      for (size_t j = 0; j < n; ++j) {
        if (join(stages[s], sel[j])) sel[m++] = sel[j];
      }
      n = m;
    }

    // Fold the survivors.
    local_stats.fact_rows_output += n;
    for (size_t j = 0; j < n; ++j) {
      agg->Consume(payload(sel[j]), dim_rows.data() + sel[j] * num_dims);
    }
  }
  // Keep the overhead loop from being optimized away.
  if (burn_sink == 0x5a5a5a5a5a5a5a5aULL) {
    local_stats.fact_rows_scanned += 1;
  }

  local_stats.probe_seconds = watch.ElapsedSeconds();
  if (stats != nullptr) *stats = local_stats;
  return agg->Finish();
}

}  // namespace cjoin
