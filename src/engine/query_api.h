// The unified asynchronous query API.
//
// QueryEngine::Execute(QueryRequest) is the single submission path for
// every query: structured StarQuerySpec or SQL text, routed to the shared
// CJOIN pipeline or the conventional query-at-a-time executor (by policy
// or by the §3.2.3 cost-based Router), with optional deadline and
// priority. Every path returns the same non-blocking QueryTicket:
//
//   QueryRequest req = QueryRequest::Sql("ssb", "SELECT ...");
//   req.timeout = std::chrono::seconds(5);
//   auto ticket = engine.Execute(std::move(req));
//   ... ticket->Cancel();                 // cooperative, any time
//   Result<ResultSet> rs = ticket->Wait();  // kCancelled / kDeadlineExceeded
//                                           // on early termination

#ifndef CJOIN_ENGINE_QUERY_API_H_
#define CJOIN_ENGINE_QUERY_API_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "baseline/qat_engine.h"
#include "catalog/query_spec.h"
#include "cjoin/query_runtime.h"
#include "common/mutex.h"
#include "engine/baseline_pool.h"
#include "engine/router.h"
#include "obs/query_trace.h"

namespace cjoin {

/// One query submission: what to run, where it may run, and its SLOs.
struct QueryRequest {
  /// Structured form; used when `spec.schema != nullptr`.
  StarQuerySpec spec;

  /// SQL form: `sql` parsed against the star registered as `star`; used
  /// when no structured spec is given.
  std::string star;
  std::string sql;

  /// Routing policy (§3.2.3): kAuto consults the cost-based Router.
  RoutePolicy policy = RoutePolicy::kAuto;

  /// Owning tenant for admission control and weighted-fair scheduling
  /// (empty = the "default" tenant). Quotas are keyed by this id; an
  /// over-quota submission's ticket resolves with kResourceExhausted
  /// instead of blocking.
  std::string tenant;

  /// Relative deadline from Execute() (zero = none). Expired queries are
  /// deregistered cooperatively and complete with kDeadlineExceeded.
  std::chrono::nanoseconds timeout{0};
  /// Absolute deadline, steady-clock nanos (0 = none); wins over timeout.
  int64_t deadline_ns = 0;

  /// Scheduling priority for the baseline worker pool (higher first).
  int priority = 0;

  /// Overrides the spec's / synthesized label when non-empty.
  std::string label;

  /// Per-request executor knobs for the baseline path (defaults to the
  /// engine's QatOptions); used by the bench harness to model the
  /// different comparison systems.
  std::optional<QatOptions> baseline_options;

  /// Per-query aggregator override on the CJOIN path (forces kCJoin);
  /// internal — used by the galaxy join (§5) to collect joined tuples.
  AggregatorFactory aggregator_factory;

  static QueryRequest FromSpec(StarQuerySpec s) {
    QueryRequest r;
    r.spec = std::move(s);
    return r;
  }
  static QueryRequest Sql(std::string star_name, std::string sql_text) {
    QueryRequest r;
    r.star = std::move(star_name);
    r.sql = std::move(sql_text);
    return r;
  }
};

/// Shared state of a CJOIN submission parked in the admission wait
/// queue: the caller's ticket waits on `promise` while the engine binds
/// the real pipeline handle once the admission controller grants a slot
/// (or resolves the promise directly on timeout / cancellation).
struct DeferredQuery {
  Mutex mu;
  /// Set at grant time. The completion observer installed at the
  /// deferred submission forwards the query's terminal result into
  /// `promise`, so the handle's own future is never consumed.
  std::unique_ptr<QueryHandle> handle GUARDED_BY(mu);
  bool cancelled GUARDED_BY(mu) = false;
  /// True once the controller's grant fired (with either outcome): the
  /// waiter no longer exists, so cancel_waiter must stay unset — the
  /// hook references the controller, which the ticket may outlive.
  bool waiter_done GUARDED_BY(mu) = false;
  /// Removes the parked waiter (engine-installed). Must be invoked
  /// *after* releasing mu (the controller calls back into this state
  /// from its grant path).
  std::function<void()> cancel_waiter GUARDED_BY(mu);

  std::promise<Result<ResultSet>> promise;
  std::string label;
  /// The snapshot the query reads: the request's until the grant, then
  /// the grant-time capped one (published before the pipeline can
  /// complete the query).
  std::atomic<SnapshotId> snapshot{0};
  /// Per-query span trace, threaded into the pipeline submission once the
  /// slot is granted (may be null).
  std::shared_ptr<obs::QueryTrace> trace;
  std::atomic<int64_t> submit_ns{0};
  /// Set when the admission controller granted the slot (0 while still
  /// parked): granted_ns - submit_ns is the wait-queue residence, which
  /// the route calibrator attributes to queueing rather than service.
  std::atomic<int64_t> granted_ns{0};
  std::atomic<int64_t> completed_ns{0};

  /// Resolves the promise exactly once; later callers are no-ops.
  bool TryResolve(Result<ResultSet> result) {
    bool expected = false;
    if (!resolved_.compare_exchange_strong(expected, true)) return false;
    completed_ns.store(QueryRuntime::NowNs(), std::memory_order_relaxed);
    promise.set_value(std::move(result));
    return true;
  }

 private:
  std::atomic<bool> resolved_{false};
};

/// Uniform non-blocking handle to a query executing on either engine.
class QueryTicket {
 public:
  /// CJOIN-routed ticket.
  QueryTicket(RouteDecision decision, std::unique_ptr<QueryHandle> handle);
  /// Baseline-routed ticket.
  QueryTicket(RouteDecision decision, std::shared_ptr<BaselineJob> job,
              std::future<Result<ResultSet>> future);
  /// Immediately-resolved ticket: a submission the admission gate shed
  /// (kResourceExhausted) or whose deadline expired before submission.
  /// Uniform-ticket contract: Execute() only *fails* on malformed
  /// requests; overload resolves through the ticket, without blocking.
  QueryTicket(RouteDecision decision, std::string label,
              SnapshotId snapshot, Result<ResultSet> immediate);
  /// Wait-queued CJOIN ticket (admission granted a place in the bounded
  /// wait queue instead of a slot).
  QueryTicket(RouteDecision decision, std::shared_ptr<DeferredQuery> deferred,
              std::future<Result<ResultSet>> future);
  ~QueryTicket();

  QueryTicket(const QueryTicket&) = delete;
  QueryTicket& operator=(const QueryTicket&) = delete;

  /// The engine this query was routed to.
  RouteChoice route() const { return decision_.choice; }
  /// The routing decision with its cost-model evidence.
  const RouteDecision& decision() const { return decision_; }

  const std::string& label() const;

  /// The snapshot this query actually reads (after any engine capping).
  SnapshotId snapshot() const;

  /// Blocks until the result is available. Cancelled queries yield
  /// kCancelled, deadline-expired ones kDeadlineExceeded. Single-shot.
  Result<ResultSet> Wait();

  /// True once Wait() would not block.
  bool Ready() const;

  /// Requests cooperative cancellation (non-blocking, idempotent, safe
  /// after completion). The query's resources — including its CJOIN
  /// bit-vector slot — are reclaimed by the owning engine.
  void Cancel();

  /// Seconds from submission to result delivery (0 until completed).
  double ResponseSeconds() const;
  /// CJOIN only: seconds from submission to pipeline registration.
  double SubmissionSeconds() const;

  /// CJOIN only: the query id / bit-vector slot (UINT32_MAX on baseline).
  uint32_t query_id() const;

  /// CJOIN only: underlying handle (nullptr on baseline). For stats and
  /// tests; lifetime owned by the ticket.
  QueryHandle* cjoin_handle() const { return cjoin_.get(); }

  /// The per-query span trace (nullptr when metrics are disabled or the
  /// request predates tracing). Populated incrementally while the query
  /// runs; complete — admission, route, stages, merge — once Wait()
  /// returns. See QueryTrace::Render() for the EXPLAIN ANALYZE-style
  /// text form. Mutable so serving layers can append their own spans
  /// (net streaming) before rendering.
  const std::shared_ptr<obs::QueryTrace>& trace() const { return trace_; }
  void set_trace(std::shared_ptr<obs::QueryTrace> trace) {
    trace_ = std::move(trace);
  }

 private:
  RouteDecision decision_;
  std::shared_ptr<obs::QueryTrace> trace_;
  // Exactly one of the backends is set: CJOIN handle, baseline job,
  // deferred (wait-queued) state, or an immediate result.
  std::unique_ptr<QueryHandle> cjoin_;
  std::shared_ptr<BaselineJob> baseline_;
  std::future<Result<ResultSet>> baseline_future_;
  std::shared_ptr<DeferredQuery> deferred_;
  std::optional<Result<ResultSet>> immediate_;
  std::string label_;        ///< immediate/deferred tickets
  SnapshotId snapshot_ = 0;  ///< immediate tickets
};

}  // namespace cjoin

#endif  // CJOIN_ENGINE_QUERY_API_H_
