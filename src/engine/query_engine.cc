#include "engine/query_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>

#include "exec/group_table.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"

namespace cjoin {

namespace {

/// One side of a galaxy join: the fact join key of every joined tuple and
/// its projected columns, kept as fixed-width records — per column a null
/// byte, then the column's raw bytes — that feed the GroupTable directly.
struct CollectedSide {
  std::vector<ColumnSource> projection;
  std::vector<Column> columns;   ///< storage column of each projection
  std::vector<uint32_t> offsets; ///< of each column's null byte
  size_t stride = 0;
  std::vector<int64_t> keys;
  std::vector<uint8_t> records;

  void Bind(std::vector<ColumnSource> proj, std::vector<Column> cols) {
    projection = std::move(proj);
    columns = std::move(cols);
    for (const Column& c : columns) {
      offsets.push_back(static_cast<uint32_t>(stride));
      stride += 1 + c.width();
    }
  }

  /// Raw bytes of column `c` of record `r`, or nullptr for NULL.
  const uint8_t* Field(size_t r, size_t c) const {
    const uint8_t* p = records.data() + r * stride + offsets[c];
    return p[0] != 0 ? nullptr : p + 1;
  }
};

/// Aggregator that materializes joined tuples instead of aggregating. On a
/// sharded pool the operator wraps it in a serializing proxy, so exactly
/// one thread writes at a time even with one instance shared by N
/// Distributors.
class CollectorAggregator final : public StarAggregator {
 public:
  CollectorAggregator(const StarSchema& star, size_t join_col,
                      CollectedSide* out)
      : out_(out) {
    const Column& jc = star.fact().schema().column(join_col);
    join_offset_ = jc.offset;
    join_is_i32_ = jc.type == DataType::kInt32;
  }

  void Consume(const uint8_t* fact_row,
               const uint8_t* const* dim_rows) override {
    ++consumed_;
    out_->keys.push_back(LoadFkKey(fact_row, join_offset_, join_is_i32_));
    const size_t base = out_->records.size();
    out_->records.resize(base + out_->stride, 0);
    uint8_t* rec = out_->records.data() + base;
    for (size_t c = 0; c < out_->projection.size(); ++c) {
      const ColumnSource& src = out_->projection[c];
      const uint8_t* row = src.from == ColumnSource::From::kFact
                               ? fact_row
                               : dim_rows[src.dim_index];
      uint8_t* p = rec + out_->offsets[c];
      if (row == nullptr) {
        p[0] = 1;
        continue;
      }
      const Column& col = out_->columns[c];
      std::memcpy(p + 1, row + col.offset, col.width());
    }
  }

  ResultSet Finish() override {
    ResultSet rs;
    rs.tuples_consumed = consumed_;
    return rs;
  }

  uint64_t tuples_consumed() const override { return consumed_; }

 private:
  CollectedSide* out_;
  uint32_t join_offset_ = 0;
  bool join_is_i32_ = false;
  uint64_t consumed_ = 0;
};

/// True iff two star schemas describe the same star: same fact table and
/// positionally identical dimensions (dim_index-based specs bound
/// against one are valid against the other).
bool SchemasEquivalent(const StarSchema& a, const StarSchema& b) {
  if (&a.fact() != &b.fact()) return false;
  if (a.num_dimensions() != b.num_dimensions()) return false;
  for (size_t d = 0; d < a.num_dimensions(); ++d) {
    const DimensionDef& da = a.dimension(d);
    const DimensionDef& db = b.dimension(d);
    if (da.table != db.table || da.fact_fk_col != db.fact_fk_col ||
        da.dim_pk_col != db.dim_pk_col) {
      return false;
    }
  }
  return true;
}

/// Spacing of disk reader identities between stars, leaving room for one
/// identity per shard within a star's pool.
constexpr uint64_t kReaderIdStride = 64;

/// Admission is keyed by tenant id; requests without one share the
/// "default" tenant.
std::string TenantOrDefault(const std::string& tenant) {
  return tenant.empty() ? "default" : tenant;
}

/// "admitted (within quota)" / "shed (tenant CJOIN slots)" — the form
/// RouteDecision::ToString and the shell surface.
std::string FormatAdmission(const AdmissionDecision& ad) {
  std::string out = AdmissionOutcomeName(ad.outcome);
  if (!ad.reason.empty()) out += " (" + ad.reason + ")";
  return out;
}

/// Registry label value for a route.
const char* RouteLabel(RouteChoice route) {
  return route == RouteChoice::kCJoin ? "cjoin" : "baseline";
}

/// One completed query's report to the route calibrator and the metrics
/// registry, shared by the three completion paths (admitted CJOIN,
/// deferred-grant CJOIN, baseline). Every completion records the
/// engine-wide per-route and per-tenant latency histograms and the
/// outcome counter; only successful kAuto-routed queries carry
/// calibration evidence (work_units > 0). [submit_ns, queue_end_ns) is
/// attributed to queueing, [queue_end_ns, done_ns) to service.
void ObserveCompletion(RouteCalibrator* cal, QueryEngine* engine,
                       const std::shared_ptr<obs::QueryTrace>& trace,
                       RouteChoice route, const std::string& tenant,
                       double work_units, const Result<ResultSet>& result,
                       int64_t submit_ns, int64_t queue_end_ns,
                       int64_t done_ns) {
  if (trace != nullptr && obs::MetricsEnabled()) {
    // Retain the span trace for the flight recorder's Perfetto dump
    // (re-emitted as async "query" events) and, past the threshold, for
    // the slow-query log.
    obs::FlightRecorder::Global().NoteQueryTrace(trace);
    const int64_t threshold = engine->slow_query_threshold().count();
    if (threshold > 0 && done_ns - submit_ns >= threshold) {
      engine->slow_query_log().Record(done_ns - submit_ns, *trace);
    }
  }
  if (obs::MetricsEnabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("queries_total",
                   "Completed queries by route and terminal status",
                   obs::LabelPair("route", RouteLabel(route)) + "," +
                       obs::LabelPair("status",
                                      result.ok() ? "ok" : "error"))
        ->Add();
    if (done_ns > submit_ns) {
      const uint64_t latency = static_cast<uint64_t>(done_ns - submit_ns);
      reg.GetHistogram("query_latency_ns",
                       "End-to-end query latency (submit to result)",
                       obs::LabelPair("route", RouteLabel(route)))
          ->Record(latency);
      reg.GetHistogram("tenant_query_latency_ns",
                       "End-to-end query latency per tenant",
                       obs::LabelPair("tenant", tenant))
          ->Record(latency);
    }
  }
  if (work_units <= 0.0 || !result.ok()) return;
  RouteObservation obs;
  obs.route = route;
  obs.work_units = work_units;
  obs.wall_seconds =
      done_ns > submit_ns ? static_cast<double>(done_ns - submit_ns) * 1e-9
                          : 0.0;
  obs.queue_wait_seconds =
      queue_end_ns > submit_ns
          ? static_cast<double>(queue_end_ns - submit_ns) * 1e-9
          : 0.0;
  cal->Observe(obs);
}

}  // namespace

QueryEngine::QueryEngine(Options options)
    : opts_(std::move(options)),
      calibrator_(opts_.router.calibration),
      router_(opts_.router),
      slow_log_(opts_.slow_query_log_capacity) {
  router_.set_calibrator(&calibrator_);
  slow_threshold_ns_.store(opts_.slow_query_threshold.count(),
                           std::memory_order_relaxed);
  AdmissionController::Options aopts = opts_.admission;
  if (aopts.max_total_cjoin == 0) {
    // Bound engine-wide CJOIN registrations by the operator capacity, so
    // the bit-vector id freelist can never block a submitter (excess
    // load sheds with kResourceExhausted at the admission gate instead).
    aopts.max_total_cjoin = opts_.cjoin.max_concurrent_queries;
  }
  admission_ = std::make_shared<AdmissionController>(aopts);
  baseline_pool_ = std::make_unique<BaselinePool>(opts_.baseline_workers,
                                                  opts_.baseline_max_queued);
  if (opts_.watchdog_enabled) {
    watchdog_ = std::make_unique<obs::Watchdog>(opts_.watchdog);
    watchdog_->AddSampler(
        [this](std::vector<obs::Watchdog::StageSample>& stages,
               std::vector<obs::Watchdog::QueueSample>& queues) {
          SampleForWatchdog(stages, queues);
        });
    watchdog_->Start();
  }
}

QueryEngine::~QueryEngine() { Shutdown(); }

void QueryEngine::Shutdown() {
  {
    // Serialized with SetShardCount (which holds update_mu_ end to end):
    // once the flag is up, no new pool can be built and swapped in.
    MutexLock ulk(&update_mu_);
    if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;
  }
  // The watchdog samples the pools and the admission controller; stop it
  // before tearing either down.
  if (watchdog_ != nullptr) watchdog_->Stop();
  // Fail parked admission waiters first: their grants would otherwise
  // submit into pools that are about to stop.
  admission_->Shutdown();
  baseline_pool_->Shutdown();
  std::vector<std::shared_ptr<ExecPool>> pools;
  {
    ReaderMutexLock lk(&ops_mu_);
    for (auto& entry : stars_) pools.push_back(entry->pool);
  }
  for (auto& pool : pools) {
    if (pool != nullptr && pool->op != nullptr) pool->op->Stop();
  }
}

bool QueryEngine::Shutdown(std::chrono::nanoseconds drain_timeout) {
  draining_.store(true, std::memory_order_release);
  // Every outstanding ticket is visible in the admission totals: CJOIN
  // registrations, baseline jobs in system (queued + running), and
  // parked wait-queue entries all release on their terminal paths, so
  // zero totals == no outstanding work.
  const int64_t deadline_ns = QueryRuntime::NowNs() + drain_timeout.count();
  bool drained = false;
  while (true) {
    const AdmissionController::Stats stats = admission_->GetStats();
    if (stats.total_cjoin_inflight == 0 &&
        stats.total_baseline_in_system == 0 && stats.total_waiting == 0) {
      drained = true;
      break;
    }
    if (QueryRuntime::NowNs() >= deadline_ns) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Shutdown();
  return drained;
}

Result<std::shared_ptr<QueryEngine::ExecPool>> QueryEngine::MakePool(
    const StarSchema& star, size_t shards, uint64_t disk_reader_base) {
  auto pool = std::make_shared<ExecPool>();
  CJOIN_ASSIGN_OR_RETURN(pool->shards, ShardManager::Make(star, shards));
  ShardedCJoinOperator::Options sopts;
  sopts.op = opts_.cjoin;
  sopts.op.disk_reader_id = disk_reader_base;
  sopts.shard_disks = opts_.cjoin_shard_disks;
  sopts.op.snapshot_probe = [this] {
    return snapshot_.load(std::memory_order_acquire);
  };
  pool->op = std::make_unique<ShardedCJoinOperator>(
      star, pool->shards->shard_stars(), sopts);
  CJOIN_RETURN_IF_ERROR(pool->op->Start());
  return pool;
}

Status QueryEngine::RegisterStar(std::string name, StarSchema star) {
  auto entry = std::make_unique<StarEntry>();
  entry->name = std::move(name);
  entry->star = std::make_unique<StarSchema>(std::move(star));
  // Duplicate check and insert under one exclusive section, so two
  // concurrent registrations of the same name cannot both succeed.
  WriterMutexLock lk(&ops_mu_);
  for (const auto& existing : stars_) {
    if (existing->name == entry->name) {
      return Status::AlreadyExists("star '" + entry->name +
                                   "' already registered");
    }
  }
  CJOIN_ASSIGN_OR_RETURN(
      entry->pool,
      MakePool(*entry->star,
               std::clamp<size_t>(opts_.cjoin_shards, 1, kReaderIdStride),
               stars_.size() * kReaderIdStride));
  stars_.push_back(std::move(entry));
  return Status::OK();
}

Result<const StarSchema*> QueryEngine::FindStar(
    std::string_view name) const {
  const StarEntry* entry = EntryByNameConst(name);
  if (entry == nullptr) {
    return Status::NotFound("no star named '" + std::string(name) + "'");
  }
  return const_cast<const StarSchema*>(entry->star.get());
}

const QueryEngine::StarEntry* QueryEngine::EntryByNameConst(
    std::string_view name) const {
  ReaderMutexLock lk(&ops_mu_);
  for (const auto& entry : stars_) {
    if (entry->name == name) return entry.get();
  }
  return nullptr;
}

Result<QueryEngine::StarEntry*> QueryEngine::EntryByName(
    std::string_view name) {
  ReaderMutexLock lk(&ops_mu_);
  for (auto& entry : stars_) {
    if (entry->name == name) return entry.get();
  }
  return Status::NotFound("no star named '" + std::string(name) + "'");
}

Result<QueryEngine::StarEntry*> QueryEngine::EntryFor(
    const StarSchema* schema) {
  ReaderMutexLock lk(&ops_mu_);
  for (auto& entry : stars_) {
    if (entry->star.get() == schema) return entry.get();
  }
  // RegisterStar stores a copy of the caller's StarSchema, so accept any
  // structurally equivalent schema — same fact table AND positionally
  // identical dimensions, since specs carry dim_index references (specs
  // are routinely bound against the original); callers rebind
  // spec.schema to the registered instance before submission.
  for (auto& entry : stars_) {
    if (SchemasEquivalent(*entry->star, *schema)) return entry.get();
  }
  return Status::NotFound(
      "query's star schema is not registered (or differs structurally "
      "from the registered star over the same fact table)");
}

std::shared_ptr<QueryEngine::ExecPool> QueryEngine::PoolFor(
    StarEntry* entry) const {
  ReaderMutexLock lk(&ops_mu_);
  return entry->pool;
}

RouteInputs QueryEngine::SampleRouteInputs(
    const ExecPool& pool, const std::string& tenant,
    AdmissionDecision* probe_cjoin,
    AdmissionDecision* probe_baseline) const {
  RouteInputs inputs;
  inputs.inflight = pool.op->InFlight();
  inputs.shards = pool.op->num_shards();
  inputs.baseline_queued = baseline_pool_->queued();
  inputs.baseline_workers = baseline_pool_->workers();
  admission_->SampleForRouting(tenant, &inputs, probe_cjoin,
                               probe_baseline);
  return inputs;
}

Status QueryEngine::SetShardCount(std::string_view star_name,
                                  size_t shards) {
  if (shards == 0) return Status::InvalidArgument("shard count must be >= 1");
  if (shards > kReaderIdStride) {
    // Each star's pool owns a block of kReaderIdStride disk-reader
    // identities; more shards would collide with the next star's scans
    // on a shared SimDisk.
    return Status::InvalidArgument("shard count must be <= " +
                                   std::to_string(kReaderIdStride));
  }
  // Freeze writers: the replica build must see one consistent committed
  // state, and mirrored updates must never straddle two shard sets. The
  // shutdown check lives under the same lock, so a pool can never be
  // built and started after Shutdown swept the existing ones.
  MutexLock ulk(&update_mu_);
  if (shut_down_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("engine shut down");
  }
  CJOIN_ASSIGN_OR_RETURN(StarEntry * entry, EntryByName(star_name));
  uint64_t reader_base = 0;
  {
    ReaderMutexLock lk(&ops_mu_);
    for (size_t i = 0; i < stars_.size(); ++i) {
      if (stars_[i].get() == entry) reader_base = i * kReaderIdStride;
    }
  }
  // Build and start the replacement pool first; swap, then stop the old
  // pool (its in-flight CJOIN queries resolve with kAborted). Concurrent
  // Execute() calls hold the pool by shared_ptr, so the old shard tables
  // stay alive until the last ticket lets go.
  CJOIN_ASSIGN_OR_RETURN(std::shared_ptr<ExecPool> fresh,
                         MakePool(*entry->star, shards, reader_base));
  std::shared_ptr<ExecPool> old;
  {
    WriterMutexLock lk(&ops_mu_);
    old = std::move(entry->pool);
    entry->pool = std::move(fresh);
  }
  if (old != nullptr && old->op != nullptr) old->op->Stop();
  // The shard count shifts the per-query timing regime (scan laps
  // shrink, pipeline threads multiply): age the calibrator's fits so
  // stale evidence stops steering decisions until fresh queries confirm.
  calibrator_.Decay();
  return Status::OK();
}

Result<size_t> QueryEngine::ShardCount(std::string_view star_name) {
  CJOIN_ASSIGN_OR_RETURN(StarEntry * entry, EntryByName(star_name));
  return PoolFor(entry)->op->num_shards();
}

Result<QueryEngine::StarEntry*> QueryEngine::ResolveRequest(
    QueryRequest* request) {
  StarEntry* entry;
  if (request->spec.schema != nullptr) {
    CJOIN_ASSIGN_OR_RETURN(entry, EntryFor(request->spec.schema));
    request->spec.schema = entry->star.get();
  } else {
    CJOIN_ASSIGN_OR_RETURN(entry, EntryByName(request->star));
    CJOIN_ASSIGN_OR_RETURN(request->spec,
                           ParseStarQuery(*entry->star, request->sql));
  }
  CJOIN_ASSIGN_OR_RETURN(request->spec,
                         NormalizeSpec(std::move(request->spec)));
  if (!request->label.empty()) request->spec.label = request->label;
  if (request->spec.snapshot == kReadLatestSnapshot) {
    request->spec.snapshot = CurrentSnapshot();
  }
  return entry;
}

Result<std::unique_ptr<QueryHandle>> QueryEngine::SubmitToCJoin(
    StarEntry* entry, const std::shared_ptr<ExecPool>& pool,
    StarQuerySpec spec, CJoinOperator::SubmitOptions options,
    std::atomic<SnapshotId>* read_snapshot) {
  // Exact snapshot semantics under concurrent appends: every shard's
  // continuous scan covers rows up to its last freeze, so while appends
  // beyond the pool-wide covered bound exist, cap the query's snapshot at
  // it (the min over shards — the snapshot then reads identical data on
  // every shard). Deletes never need capping — deleted rows stay inside
  // the scanned ranges and are filtered per row by xmax.
  const SnapshotId covered = pool->op->covered_snapshot();
  if (entry->last_append_snapshot.load(std::memory_order_acquire) >
      covered) {
    spec.snapshot = std::min(spec.snapshot, covered);
  }
  if (read_snapshot != nullptr) {
    read_snapshot->store(spec.snapshot, std::memory_order_release);
  }
  return pool->op->Submit(std::move(spec), std::move(options));
}

Result<std::unique_ptr<QueryTicket>> QueryEngine::Execute(
    QueryRequest request) {
  if (shut_down_) return Status::FailedPrecondition("engine shut down");
  if (draining_.load(std::memory_order_acquire)) {
    // Graceful-shutdown shedding follows the uniform-ticket contract:
    // Execute() succeeds and the refusal resolves through the ticket,
    // so callers (and the wire protocol) see one error path.
    RouteDecision decision;
    decision.reason = "draining";
    decision.admission = "shed (engine draining)";
    return std::make_unique<QueryTicket>(
        std::move(decision), request.label, SnapshotId{0},
        Result<ResultSet>(Status::Aborted("engine draining for shutdown")));
  }
  CJOIN_ASSIGN_OR_RETURN(StarEntry * entry, ResolveRequest(&request));
  std::shared_ptr<ExecPool> pool = PoolFor(entry);
  const std::string tenant = TenantOrDefault(request.tenant);

  // Always-on span trace (skipped entirely when metrics are disabled):
  // every layer this query crosses appends to it through the shared_ptr
  // threaded along the submission.
  std::shared_ptr<obs::QueryTrace> trace;
  if (obs::MetricsEnabled()) {
    trace = std::make_shared<obs::QueryTrace>();
    trace->set_tenant(tenant);
  }

  int64_t deadline_ns = request.deadline_ns;
  if (deadline_ns == 0 && request.timeout.count() > 0) {
    deadline_ns = QueryRuntime::NowNs() + request.timeout.count();
  }

  // §3.2.3: the optimizer choice. A per-query aggregator override is
  // CJOIN machinery, so it forces that path.
  RouteDecision decision;
  RoutePolicy policy = request.aggregator_factory != nullptr
                           ? RoutePolicy::kCJoin
                           : request.policy;
  switch (policy) {
    case RoutePolicy::kCJoin:
      decision.choice = RouteChoice::kCJoin;
      decision.forced = true;
      decision.reason = "policy";
      break;
    case RoutePolicy::kBaseline:
      decision.choice = RouteChoice::kBaseline;
      decision.forced = true;
      decision.reason = "policy";
      break;
    case RoutePolicy::kAuto: {
      const int64_t route0 = trace != nullptr ? obs::NowNs() : 0;
      decision =
          router_.Decide(request.spec, SampleRouteInputs(*pool, tenant));
      if (trace != nullptr) {
        trace->AddSpan(obs::SpanKind::kRoute, decision.explored
                                                  ? "explore"
                                                  : "decide",
                       route0, obs::NowNs());
      }
      break;
    }
  }
  decision.tenant = tenant;
  if (trace != nullptr) trace->set_route(RouteLabel(decision.choice));
  obs::RecordEvent(obs::EventKind::kRoute, RouteLabel(decision.choice));

  // Uniform-ticket contract: an already-expired deadline resolves through
  // the ticket (kDeadlineExceeded from Wait()) on BOTH routes — Execute()
  // itself only fails on submission errors. No quota is consumed.
  if (deadline_ns != 0 && QueryRuntime::NowNs() >= deadline_ns) {
    auto expired = std::make_unique<QueryTicket>(
        std::move(decision), request.spec.label, request.spec.snapshot,
        Result<ResultSet>(
            Status::DeadlineExceeded("deadline expired before submission")));
    expired->set_trace(std::move(trace));
    return expired;
  }

  if (decision.choice == RouteChoice::kCJoin) {
    // The grant closure (and its captured copy of the spec) is built
    // lazily, under the gate's lock, only if the verdict is kQueued —
    // the common admitted / shed paths never pay for it.
    std::shared_ptr<DeferredQuery> deferred;
    AdmissionController::GrantFactory make_grant =
        [&]() -> AdmissionController::GrantFn {
      deferred = std::make_shared<DeferredQuery>();
      deferred->label = request.spec.label;
      deferred->snapshot.store(request.spec.snapshot,
                               std::memory_order_relaxed);
      deferred->trace = trace;
      deferred->submit_ns.store(QueryRuntime::NowNs(),
                                std::memory_order_relaxed);
      return MakeDeferredGrant(entry, deferred, request.spec,
                               request.aggregator_factory, tenant,
                               deadline_ns,
                               decision.forced ? 0.0
                                               : decision.cjoin_work_units);
    };
    const int64_t adm0 = trace != nullptr ? obs::NowNs() : 0;
    AdmissionDecision ad = admission_->TryAdmit(
        tenant, RouteChoice::kCJoin, deadline_ns, std::move(make_grant));
    if (trace != nullptr) {
      trace->AddSpan(obs::SpanKind::kAdmission,
                     AdmissionOutcomeName(ad.outcome), adm0, obs::NowNs());
    }
    decision.admission = FormatAdmission(ad);
    switch (ad.outcome) {
      case AdmissionOutcome::kAdmitted:
        return SubmitAdmittedCJoin(entry, pool, std::move(request),
                                   std::move(decision), tenant, deadline_ns,
                                   std::move(trace));
      case AdmissionOutcome::kQueued: {
        std::future<Result<ResultSet>> fut = deferred->promise.get_future();
        {
          MutexLock lk(&deferred->mu);
          // The grant may already have fired (and with it the waiter's
          // lifetime). The weak capture covers the remaining race: a
          // copy of this hook taken by Cancel() can run after the
          // engine — and the controller — are gone.
          if (!deferred->waiter_done) {
            deferred->cancel_waiter =
                [weak = std::weak_ptr<AdmissionController>(admission_),
                 id = ad.waiter_id] {
              if (std::shared_ptr<AdmissionController> ctrl = weak.lock()) {
                ctrl->CancelWaiter(id);
              }
            };
          }
        }
        auto queued = std::make_unique<QueryTicket>(
            std::move(decision), std::move(deferred), std::move(fut));
        queued->set_trace(std::move(trace));
        return queued;
      }
      case AdmissionOutcome::kShed: {
        auto shed = std::make_unique<QueryTicket>(
            std::move(decision), request.spec.label, request.spec.snapshot,
            Result<ResultSet>(ad.status));
        shed->set_trace(std::move(trace));
        return shed;
      }
    }
  }

  const int64_t adm0 = trace != nullptr ? obs::NowNs() : 0;
  AdmissionDecision ad =
      admission_->TryAdmit(tenant, RouteChoice::kBaseline, deadline_ns);
  if (trace != nullptr) {
    trace->AddSpan(obs::SpanKind::kAdmission,
                   AdmissionOutcomeName(ad.outcome), adm0, obs::NowNs());
  }
  decision.admission = FormatAdmission(ad);
  if (ad.outcome == AdmissionOutcome::kShed) {
    auto shed = std::make_unique<QueryTicket>(
        std::move(decision), request.spec.label, request.spec.snapshot,
        Result<ResultSet>(ad.status));
    shed->set_trace(std::move(trace));
    return shed;
  }
  auto job = std::make_shared<BaselineJob>();
  job->spec = std::move(request.spec);
  job->options = request.baseline_options.value_or(opts_.baseline);
  job->priority = request.priority;
  job->deadline_ns = deadline_ns;
  job->tenant = tenant;
  job->trace = trace;
  job->fair_weight = admission_->GetTenantQuota(tenant).weight;
  // Quota returns on every terminal path — worker completion, sweeper
  // cancel / deadline, pool shutdown — via the resolve hook; successful
  // kAuto-routed completions also feed the route calibrator. The raw
  // BaselineJob pointer is safe: the hook only runs while the job is
  // being resolved (a shared_ptr capture would be a reference cycle).
  job->on_finished = [ctrl = admission_.get(), eng = this, tenant,
                      cal = &calibrator_,
                      work = decision.forced ? 0.0
                                             : decision.baseline_work_units,
                      j = job.get()](const Result<ResultSet>& result) {
    ctrl->Release(tenant, RouteChoice::kBaseline);
    // Pool-queue residence (submit -> worker start) is waiting, not
    // work: it is attributed out of the fitted service time.
    ObserveCompletion(cal, eng, j->trace, RouteChoice::kBaseline, tenant,
                      work, result,
                      j->submit_ns.load(std::memory_order_relaxed),
                      j->start_ns.load(std::memory_order_relaxed),
                      j->completed_ns.load(std::memory_order_relaxed));
  };
  std::future<Result<ResultSet>> fut = job->promise.get_future();
  if (Status st = baseline_pool_->Enqueue(job); !st.ok()) {
    if (st.code() == StatusCode::kResourceExhausted) {
      // Never entered the pool: the resolve hook will not run, and the
      // caller experienced a shed, not an admitted query.
      admission_->ReleaseAsShed(tenant, RouteChoice::kBaseline);
      decision.admission = "shed (baseline pool queue full)";
      auto shed = std::make_unique<QueryTicket>(
          std::move(decision), job->spec.label, job->spec.snapshot,
          Result<ResultSet>(std::move(st)));
      shed->set_trace(std::move(trace));
      return shed;
    }
    // Pool shut down: Enqueue resolved the promise (kAborted) and the
    // hook released the quota; the ticket surfaces the result.
  }
  auto ticket = std::make_unique<QueryTicket>(std::move(decision),
                                             std::move(job), std::move(fut));
  ticket->set_trace(std::move(trace));
  return ticket;
}

Result<std::unique_ptr<QueryTicket>> QueryEngine::SubmitAdmittedCJoin(
    StarEntry* entry, const std::shared_ptr<ExecPool>& pool,
    QueryRequest request, RouteDecision decision, const std::string& tenant,
    int64_t deadline_ns, std::shared_ptr<obs::QueryTrace> trace) {
  CJoinOperator::SubmitOptions so;
  so.aggregator_factory = std::move(request.aggregator_factory);
  so.deadline_ns = deadline_ns;
  so.assume_normalized = true;  // ResolveRequest normalized already
  so.reject_when_full = true;   // the freelist must never block (ROADMAP)
  so.trace = trace;
  // Quota release first, then the calibrator observation (successful
  // kAuto completions only — an immediately-admitted CJOIN query never
  // waited, so its whole wall clock is service).
  so.completion_observer = [ctrl = admission_.get(), eng = this, trace,
                            tenant, cal = &calibrator_,
                            work = decision.forced ? 0.0
                                                   : decision.cjoin_work_units,
                            submitted = QueryRuntime::NowNs()](
                               const Result<ResultSet>& result) {
    ctrl->Release(tenant, RouteChoice::kCJoin);
    ObserveCompletion(cal, eng, trace, RouteChoice::kCJoin, tenant, work,
                      result, submitted, submitted, QueryRuntime::NowNs());
  };
  const std::string label = request.spec.label;
  const SnapshotId snap = request.spec.snapshot;
  Result<std::unique_ptr<QueryHandle>> handle =
      SubmitToCJoin(entry, pool, std::move(request.spec), std::move(so));
  if (!handle.ok()) {
    // The observer never fired; give the slot back ourselves.
    admission_->Release(tenant, RouteChoice::kCJoin);
    if (handle.status().code() == StatusCode::kResourceExhausted) {
      // Freelist raced ahead of the admission bookkeeping (slots release
      // at Deliver, ids at cleanup): degrade by rejecting, not stalling.
      decision.admission = "shed (pipeline query ids exhausted)";
      auto shed = std::make_unique<QueryTicket>(
          std::move(decision), label, snap,
          Result<ResultSet>(handle.status()));
      shed->set_trace(std::move(trace));
      return shed;
    }
    return handle.status();
  }
  auto ticket = std::make_unique<QueryTicket>(std::move(decision),
                                              std::move(*handle));
  ticket->set_trace(std::move(trace));
  return ticket;
}

AdmissionController::GrantFn QueryEngine::MakeDeferredGrant(
    StarEntry* entry, std::shared_ptr<DeferredQuery> deferred,
    StarQuerySpec spec, AggregatorFactory aggregator, std::string tenant,
    int64_t deadline_ns, double work_units) {
  return [this, entry, deferred = std::move(deferred),
          spec = std::move(spec), aggregator = std::move(aggregator),
          tenant = std::move(tenant), deadline_ns,
          work_units](Status st) mutable {
    // Whatever the outcome, the waiter is out of the controller's queue:
    // drop the waiter-cancel hook so a ticket that outlives the engine
    // cannot call back into a destroyed controller.
    bool cancelled;
    {
      MutexLock lk(&deferred->mu);
      deferred->waiter_done = true;
      deferred->cancel_waiter = nullptr;
      cancelled = deferred->cancelled;
    }
    if (!st.ok()) {
      // Wait timed out / deadline expired / cancelled / shutdown: no slot
      // is held.
      deferred->TryResolve(std::move(st));
      return;
    }
    // The controller consumed one CJOIN slot on this query's behalf.
    const int64_t granted = QueryRuntime::NowNs();
    deferred->granted_ns.store(granted, std::memory_order_relaxed);
    if (deferred->trace != nullptr) {
      deferred->trace->AddSpan(
          obs::SpanKind::kWaitQueue, "",
          deferred->submit_ns.load(std::memory_order_relaxed), granted);
    }
    if (cancelled) {
      admission_->Release(tenant, RouteChoice::kCJoin);
      deferred->TryResolve(
          Status::Cancelled("query cancelled while awaiting admission"));
      return;
    }
    // Grant-time deadline check (the controller re-checks too, but this
    // closes the last gap): a slot granted to an already-expired query
    // must not reach the pipeline — it would hold the slot until the
    // deadline fan-out deregistered it. Return it and resolve without
    // ever binding a handle.
    if (deadline_ns != 0 && QueryRuntime::NowNs() >= deadline_ns) {
      // The query never entered the pipeline: rewrite the slot's
      // admitted+released round trip into the shed the caller actually
      // experienced (matching the controller's own grant-time undo).
      admission_->ReleaseAsShed(tenant, RouteChoice::kCJoin);
      deferred->TryResolve(Status::DeadlineExceeded(
          "query deadline expired before its admission grant ran"));
      return;
    }
    std::shared_ptr<ExecPool> pool = PoolFor(entry);
    CJoinOperator::SubmitOptions so;
    so.aggregator_factory = std::move(aggregator);
    so.deadline_ns = deadline_ns;
    so.assume_normalized = true;
    so.reject_when_full = true;
    so.trace = deferred->trace;
    // This submission runs on the controller's single service thread,
    // where every per-shard grace wait head-of-line delays other grants
    // and waiter expiries — and the slot that granted us was released at
    // delivery, so its id is only a prompt pipeline-cleanup away. Keep
    // the bridge short.
    so.id_acquire_grace_ns = 50'000'000;
    // Forward the query's terminal result into the deferred ticket (its
    // handle's own future is never consumed); quota releases first. A
    // successful kAuto completion feeds the calibrator: the wait-queue
    // residence (submit -> grant) is attributed to queueing, the rest
    // is CJOIN service.
    so.completion_observer = [ctrl = admission_.get(), eng = this, deferred,
                              tenant, cal = &calibrator_,
                              work_units](const Result<ResultSet>& result) {
      ctrl->Release(tenant, RouteChoice::kCJoin);
      ObserveCompletion(cal, eng, deferred->trace, RouteChoice::kCJoin,
                        tenant, work_units, result,
                        deferred->submit_ns.load(std::memory_order_relaxed),
                        deferred->granted_ns.load(std::memory_order_relaxed),
                        QueryRuntime::NowNs());
      deferred->TryResolve(result);
    };
    // The ticket reports the snapshot the pipeline reads: the grant-time
    // cap, not the one sampled when the query was parked.
    Result<std::unique_ptr<QueryHandle>> handle = SubmitToCJoin(
        entry, pool, std::move(spec), std::move(so), &deferred->snapshot);
    if (!handle.ok()) {
      admission_->Release(tenant, RouteChoice::kCJoin);
      deferred->TryResolve(handle.status());
      return;
    }
    bool cancel_now;
    {
      MutexLock lk(&deferred->mu);
      deferred->handle = std::move(*handle);
      cancel_now = deferred->cancelled;
    }
    // A cancel that raced the bind found no handle and no waiter; honor
    // it now (QueryHandle::Cancel is thread-safe and idempotent).
    if (cancel_now) {
      MutexLock lk(&deferred->mu);
      if (deferred->handle != nullptr) deferred->handle->Cancel();
    }
  };
}

Result<RouteDecision> QueryEngine::ProbeRoute(QueryRequest request) {
  // Same resolution pipeline as Execute(), so the verdict is exactly the
  // decision Execute() would make right now — the load inputs AND both
  // routes' admission probes are sampled under one controller lock
  // acquisition (the old code sampled load, then probed separately, so
  // the printed admission verdict could describe a different instant
  // than the costs). DecideMode::kProbe keeps the probe side-effect
  // free: no decision counters, no exploration tick, no quota consumed.
  CJOIN_ASSIGN_OR_RETURN(StarEntry * entry, ResolveRequest(&request));
  std::shared_ptr<ExecPool> pool = PoolFor(entry);
  const std::string t = TenantOrDefault(request.tenant);
  AdmissionDecision probe_cjoin, probe_baseline;
  const RouteInputs inputs =
      SampleRouteInputs(*pool, t, &probe_cjoin, &probe_baseline);
  RouteDecision decision =
      router_.Decide(request.spec, inputs, DecideMode::kProbe);
  decision.tenant = t;
  decision.admission =
      FormatAdmission(decision.choice == RouteChoice::kCJoin
                          ? probe_cjoin
                          : probe_baseline);
  return decision;
}

Result<RouteDecision> QueryEngine::ExplainRoute(StarQuerySpec spec,
                                                std::string_view tenant) {
  QueryRequest request = QueryRequest::FromSpec(std::move(spec));
  request.tenant = std::string(tenant);
  return ProbeRoute(std::move(request));
}

Result<RouteDecision> QueryEngine::ExplainRoute(std::string_view star_name,
                                                std::string_view sql,
                                                std::string_view tenant) {
  QueryRequest request =
      QueryRequest::Sql(std::string(star_name), std::string(sql));
  request.tenant = std::string(tenant);
  return ProbeRoute(std::move(request));
}

Status QueryEngine::SetTenantQuota(std::string_view tenant,
                                   TenantQuota quota) {
  Status st = admission_->SetTenantQuota(TenantOrDefault(std::string(tenant)),
                                         quota);
  // Rebalanced quotas change slot scarcity and fair pool shares —
  // queueing regimes the fits were observed under. Age them.
  if (st.ok()) calibrator_.Decay();
  return st;
}

TenantQuota QueryEngine::GetTenantQuota(std::string_view tenant) const {
  return admission_->GetTenantQuota(TenantOrDefault(std::string(tenant)));
}

AdmissionController::Stats QueryEngine::AdmissionStats() const {
  return admission_->GetStats();
}

void QueryEngine::SampleForWatchdog(
    std::vector<obs::Watchdog::StageSample>& stages,
    std::vector<obs::Watchdog::QueueSample>& queues) {
  if (shut_down_.load(std::memory_order_acquire)) return;
  std::vector<std::pair<std::string, std::shared_ptr<ExecPool>>> pools;
  {
    ReaderMutexLock lk(&ops_mu_);
    for (const auto& entry : stars_) {
      pools.emplace_back(entry->name, entry->pool);
    }
  }
  for (const auto& [star, pool] : pools) {
    if (pool == nullptr || pool->op == nullptr) continue;
    const std::vector<CJoinOperator::Stats> shards = pool->op->PerShardStats();
    for (size_t s = 0; s < shards.size(); ++s) {
      const CJoinOperator::Stats& st = shards[s];
      const std::string prefix = star + "/s" + std::to_string(s) + "/";
      // The continuous scan must advance whenever queries are registered;
      // rows_scanned frozen with active queries is the canonical stall.
      obs::Watchdog::StageSample scan;
      scan.name = prefix + "scan";
      scan.progress = st.rows_scanned;
      scan.backlog = st.active_queries;
      stages.push_back(std::move(scan));
      for (size_t i = 0; i < st.stage_batches.size(); ++i) {
        obs::Watchdog::StageSample stage;
        stage.name = prefix + "stage" + std::to_string(i);
        stage.progress = st.stage_batches[i];
        stage.backlog = i < st.queue_depths.size() ? st.queue_depths[i] : 0;
        stages.push_back(std::move(stage));
      }
      for (size_t q = 0; q < st.queue_depths.size(); ++q) {
        obs::Watchdog::QueueSample qs;
        qs.name = prefix + "q" + std::to_string(q);
        qs.depth = st.queue_depths[q];
        qs.capacity = st.queue_capacity;
        queues.push_back(std::move(qs));
      }
    }
  }
  const AdmissionController::Stats adm = admission_->GetStats();
  obs::Watchdog::StageSample gate;
  gate.name = "admission";
  uint64_t granted = 0;
  for (const auto& t : adm.tenants) granted += t.admitted;
  gate.progress = granted;
  gate.backlog = adm.total_waiting;
  gate.min_deadline_ns = adm.earliest_waiter_deadline_ns;
  stages.push_back(std::move(gate));
}

Result<ResultSet> QueryEngine::ExecuteGalaxyJoin(const GalaxyJoinSpec& spec) {
  CJOIN_ASSIGN_OR_RETURN(StarEntry * lentry, EntryFor(spec.left.schema));
  CJOIN_ASSIGN_OR_RETURN(StarEntry * rentry, EntryFor(spec.right.schema));
  if (spec.left_join_col >= lentry->star->fact().schema().num_columns() ||
      spec.right_join_col >= rentry->star->fact().schema().num_columns()) {
    return Status::InvalidArgument("galaxy join column out of range");
  }

  // Projections per side, deduplicated; remember where each output lands.
  const StarSchema* schemas[2] = {lentry->star.get(), rentry->star.get()};
  std::vector<ColumnSource> proj[2];
  std::vector<Column> proj_cols[2];
  auto project = [&](int side, const ColumnSource& src) -> Result<size_t> {
    auto& p = proj[side];
    for (size_t i = 0; i < p.size(); ++i) {
      if (p[i] == src) return i;
    }
    CJOIN_RETURN_IF_ERROR(
        CheckColumnSource(*schemas[side], src, "galaxy output"));
    p.push_back(src);
    proj_cols[side].push_back(
        SourceSchema(*schemas[side], src).column(src.column));
    return p.size() - 1;
  };
  struct OutRef {
    int side;
    size_t index;
  };
  std::vector<OutRef> key_refs;
  GroupLayout layout;
  for (const auto& g : spec.group_by) {
    if (g.side != 0 && g.side != 1) {
      return Status::InvalidArgument("galaxy output side must be 0 or 1");
    }
    CJOIN_ASSIGN_OR_RETURN(size_t index, project(g.side, g.source));
    key_refs.push_back({g.side, index});
    layout.keys.push_back(FieldType::Of(proj_cols[g.side][index]));
  }
  std::vector<OutRef> agg_refs;
  for (const auto& a : spec.aggregates) {
    if (a.side != 0 && a.side != 1) {
      return Status::InvalidArgument("galaxy output side must be 0 or 1");
    }
    AggDef def;
    def.fn = a.fn;
    if (a.input.has_value()) {
      CJOIN_ASSIGN_OR_RETURN(size_t index, project(a.side, *a.input));
      agg_refs.push_back({a.side, index});
      def.input = FieldType::Of(proj_cols[a.side][index]);
      if ((a.fn == AggFn::kSum || a.fn == AggFn::kAvg) &&
          def.input.kind == FieldType::Kind::kChar) {
        return Status::InvalidArgument(std::string(AggFnName(a.fn)) +
                                       " input must be numeric");
      }
    } else {
      agg_refs.push_back({a.side, SIZE_MAX});  // COUNT(*)
    }
    layout.aggs.push_back(def);
  }

  // Run both star sub-queries concurrently through the unified Execute()
  // path with collector sinks (§5: "the Distributor pipes the results of
  // Qi to a fact-to-fact join operator instead of an aggregation
  // operator"). Both sides read the same snapshot and share the request
  // deadline; if one side fails, the other is cancelled.
  CollectedSide sides[2];
  const size_t join_cols[2] = {spec.left_join_col, spec.right_join_col};
  StarQuerySpec sub[2] = {spec.left, spec.right};
  const SnapshotId snap = CurrentSnapshot();
  std::unique_ptr<QueryTicket> tickets[2];
  for (int s = 0; s < 2; ++s) {
    if (sub[s].snapshot == kReadLatestSnapshot) sub[s].snapshot = snap;
    sides[s].Bind(proj[s], proj_cols[s]);
    CollectedSide* out = &sides[s];
    const StarSchema* star = schemas[s];
    const size_t jcol = join_cols[s];
    QueryRequest req = QueryRequest::FromSpec(sub[s]);
    req.deadline_ns = spec.deadline_ns;
    req.aggregator_factory = [star, jcol, out](const StarQuerySpec&) {
      return std::make_unique<CollectorAggregator>(*star, jcol, out);
    };
    auto ticket = Execute(std::move(req));
    if (!ticket.ok()) {
      if (s == 1) {
        // Must drain the other side before returning: its collector
        // writes into this frame's `sides` until its query terminates.
        tickets[0]->Cancel();
        (void)tickets[0]->Wait();
      }
      return ticket.status();
    }
    tickets[s] = std::move(*ticket);
  }
  Result<ResultSet> left_rs = tickets[0]->Wait();
  if (!left_rs.ok()) {
    // Drain the right side before returning: its collector writes into
    // this frame's `sides` until its query terminates. (Wait is
    // single-shot, so the right side is only waited here, once.)
    tickets[1]->Cancel();
    (void)tickets[1]->Wait();
    return left_rs.status();
  }
  Result<ResultSet> right_rs = tickets[1]->Wait();
  if (!right_rs.ok()) return right_rs.status();

  // Hash join: build on the smaller side.
  const int build = sides[0].keys.size() <= sides[1].keys.size() ? 0 : 1;
  const int probe = 1 - build;
  std::multimap<int64_t, size_t> index;
  for (size_t i = 0; i < sides[build].keys.size(); ++i) {
    index.emplace(sides[build].keys[i], i);
  }

  GroupTable table(std::move(layout));
  std::vector<const uint8_t*> key_fields(key_refs.size());
  std::vector<const uint8_t*> input_fields(agg_refs.size());
  for (size_t pi = 0; pi < sides[probe].keys.size(); ++pi) {
    auto [lo, hi] = index.equal_range(sides[probe].keys[pi]);
    for (auto it = lo; it != hi; ++it) {
      const size_t bi = it->second;
      auto field_of = [&](const OutRef& ref) -> const uint8_t* {
        return sides[ref.side].Field(ref.side == probe ? pi : bi, ref.index);
      };
      for (size_t k = 0; k < key_refs.size(); ++k) {
        key_fields[k] = field_of(key_refs[k]);
      }
      for (size_t a = 0; a < agg_refs.size(); ++a) {
        input_fields[a] =
            agg_refs[a].index == SIZE_MAX ? nullptr : field_of(agg_refs[a]);
      }
      table.Fold(key_fields.data(), input_fields.data());
    }
  }

  std::vector<std::string> columns;
  for (const auto& g : spec.group_by) columns.push_back(g.label);
  for (const auto& a : spec.aggregates) columns.push_back(a.label);
  ResultSet rs =
      table.Finish(std::move(columns),
                   /*global_row_when_empty=*/spec.group_by.empty());
  rs.tuples_consumed = sides[0].keys.size() + sides[1].keys.size();
  return rs;
}

Result<SnapshotId> QueryEngine::AppendFacts(
    std::string_view star_name, const std::vector<std::vector<uint8_t>>& rows,
    uint32_t partition) {
  CJOIN_ASSIGN_OR_RETURN(StarEntry * entry, EntryByName(star_name));
  Table& fact = *const_cast<Table*>(&entry->star->fact());
  MutexLock lk(&update_mu_);
  std::shared_ptr<ExecPool> pool = PoolFor(entry);
  const SnapshotId commit = snapshot_.load(std::memory_order_relaxed) + 1;
  if (partition >= fact.num_partitions()) {
    return Status::InvalidArgument("partition out of range");
  }
  for (const auto& payload : rows) {
    if (payload.size() != fact.schema().row_size()) {
      return Status::InvalidArgument("row payload size mismatch");
    }
    fact.AppendRow(payload.data(), partition, commit);
    // Mirror into the owning shard replica under the same commit, so
    // every shard's next lap freeze exposes the row at one snapshot.
    pool->shards->MirrorAppend(payload.data(), partition, commit);
  }
  snapshot_.store(commit, std::memory_order_release);
  entry->last_append_snapshot.store(commit, std::memory_order_release);
  return commit;
}

Result<SnapshotId> QueryEngine::DeleteFacts(std::string_view star_name,
                                            const ExprPtr& predicate) {
  if (predicate == nullptr) {
    return Status::InvalidArgument("delete predicate is null");
  }
  CJOIN_ASSIGN_OR_RETURN(StarEntry * entry, EntryByName(star_name));
  Table& fact = *const_cast<Table*>(&entry->star->fact());
  const Schema& fs = fact.schema();
  MutexLock lk(&update_mu_);
  std::shared_ptr<ExecPool> pool = PoolFor(entry);
  const SnapshotId commit = snapshot_.load(std::memory_order_relaxed) + 1;
  for (uint32_t p = 0; p < fact.num_partitions(); ++p) {
    const uint64_t n = fact.PartitionRows(p);
    for (uint64_t i = 0; i < n; ++i) {
      const RowId id{p, i};
      if (fact.Header(id)->LoadXmax() != kMaxSnapshot) continue;
      if (!predicate->EvalBool(fs, fact.RowPayload(id))) continue;
      CJOIN_RETURN_IF_ERROR(fact.MarkDeleted(id, commit));
    }
  }
  CJOIN_RETURN_IF_ERROR(pool->shards->MirrorDelete(*predicate, commit));
  snapshot_.store(commit, std::memory_order_release);
  return commit;
}

Result<ShardedCJoinOperator*> QueryEngine::OperatorFor(
    std::string_view star_name) {
  CJOIN_ASSIGN_OR_RETURN(StarEntry * entry, EntryByName(star_name));
  return PoolFor(entry)->op.get();
}

}  // namespace cjoin
