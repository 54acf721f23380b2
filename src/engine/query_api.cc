#include "engine/query_api.h"

namespace cjoin {

QueryTicket::QueryTicket(RouteDecision decision,
                         std::unique_ptr<QueryHandle> handle)
    : decision_(std::move(decision)), cjoin_(std::move(handle)) {}

QueryTicket::QueryTicket(RouteDecision decision,
                         std::shared_ptr<BaselineJob> job,
                         std::future<Result<ResultSet>> future)
    : decision_(std::move(decision)),
      baseline_(std::move(job)),
      baseline_future_(std::move(future)) {}

QueryTicket::QueryTicket(RouteDecision decision, std::string label,
                         SnapshotId snapshot, Result<ResultSet> immediate)
    : decision_(std::move(decision)),
      immediate_(std::move(immediate)),
      label_(std::move(label)),
      snapshot_(snapshot) {}

QueryTicket::QueryTicket(RouteDecision decision,
                         std::shared_ptr<DeferredQuery> deferred,
                         std::future<Result<ResultSet>> future)
    : decision_(std::move(decision)),
      baseline_future_(std::move(future)),
      deferred_(std::move(deferred)) {}

QueryTicket::~QueryTicket() = default;

const std::string& QueryTicket::label() const {
  if (cjoin_ != nullptr) return cjoin_->label();
  if (baseline_ != nullptr) return baseline_->spec.label;
  if (deferred_ != nullptr) return deferred_->label;
  return label_;
}

SnapshotId QueryTicket::snapshot() const {
  if (cjoin_ != nullptr) return cjoin_->snapshot();
  if (baseline_ != nullptr) return baseline_->spec.snapshot;
  if (deferred_ != nullptr) {
    return deferred_->snapshot.load(std::memory_order_acquire);
  }
  return snapshot_;
}

Result<ResultSet> QueryTicket::Wait() {
  if (cjoin_ != nullptr) return cjoin_->Wait();
  if (immediate_.has_value()) return std::move(*immediate_);
  return baseline_future_.get();
}

bool QueryTicket::Ready() const {
  if (cjoin_ != nullptr) return cjoin_->Ready();
  if (immediate_.has_value()) return true;
  return baseline_future_.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

void QueryTicket::Cancel() {
  if (cjoin_ != nullptr) {
    cjoin_->Cancel();
    return;
  }
  if (baseline_ != nullptr) {
    baseline_->cancel.store(true, std::memory_order_release);
    return;
  }
  if (deferred_ != nullptr) {
    // Invoke the underlying cancel path outside the state lock: the
    // waiter-cancel calls back into the admission controller, whose
    // grant path takes this lock.
    QueryHandle* handle = nullptr;
    std::function<void()> cancel_waiter;
    {
      MutexLock lk(&deferred_->mu);
      deferred_->cancelled = true;
      if (deferred_->handle != nullptr) {
        handle = deferred_->handle.get();
      } else {
        cancel_waiter = deferred_->cancel_waiter;
      }
    }
    if (handle != nullptr) {
      handle->Cancel();
    } else if (cancel_waiter) {
      cancel_waiter();
    }
  }
  // Immediate tickets are already terminal: Cancel is a no-op.
}

double QueryTicket::ResponseSeconds() const {
  if (cjoin_ != nullptr) return cjoin_->ResponseSeconds();
  if (immediate_.has_value()) return 0.0;
  const BaselineJob* job = baseline_.get();
  int64_t done = 0, sub = 0;
  if (job != nullptr) {
    done = job->completed_ns.load();
    sub = job->submit_ns.load();
  } else if (deferred_ != nullptr) {
    done = deferred_->completed_ns.load();
    sub = deferred_->submit_ns.load();
  }
  return done > sub ? static_cast<double>(done - sub) * 1e-9 : 0.0;
}

double QueryTicket::SubmissionSeconds() const {
  return cjoin_ != nullptr ? cjoin_->SubmissionSeconds() : 0.0;
}

uint32_t QueryTicket::query_id() const {
  if (cjoin_ != nullptr) return cjoin_->query_id();
  if (deferred_ != nullptr) {
    MutexLock lk(&deferred_->mu);
    if (deferred_->handle != nullptr) return deferred_->handle->query_id();
  }
  return UINT32_MAX;
}

}  // namespace cjoin
