#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "engine/query_engine.h"
#include "engine/sql_parser.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "reference.h"
#include "ssb/generator.h"
#include "ssb_queries.h"
#include "stats.h"
#include "storage/sim_disk.h"

namespace perfbench {

namespace {

using cjoin::QueryEngine;
using cjoin::SnapshotId;

constexpr const char* kStar = "ssb";
/// Set-ups per run; setup_s is their median (the last one is measured).
constexpr int kSetups = 3;
/// Untimed load before the measured window: several closed-loop
/// generations, and enough completions to warm the router calibrator.
constexpr double kRampSeconds = 2.0;
constexpr int64_t kSampleIntervalNs = 10'000'000;
constexpr size_t kWarmupQueries = 8;
/// The fixed-rate ingest stream: operations per second, rows per
/// operation.
constexpr double kIngestRate = 20.0;
constexpr size_t kIngestRows = 8;

int64_t SecondsToNs(double s) { return static_cast<int64_t>(s * 1e9); }
double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

void SleepUntil(int64_t t_ns) {
  const int64_t d = t_ns - NowNs();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

/// Latency origin of an open-loop operation: its due time when the
/// previous operation of the same stream ended after it, so the wait a
/// stall imposes on later operations counts; otherwise the moment it was
/// sent, so the generator thread's own wake-up delay (reported as
/// bench.gen_late_p99_ms) does not.
int64_t LatencyOrigin(int64_t sched_ns, int64_t send_ns,
                      int64_t prev_done_ns) {
  return prev_done_ns > sched_ns ? sched_ns : send_ns;
}

enum class Outcome { kOk, kShed, kDeadline, kAborted, kError };

Outcome Classify(const cjoin::Status& s) {
  switch (s.code()) {
    case cjoin::StatusCode::kOk:
      return Outcome::kOk;
    case cjoin::StatusCode::kResourceExhausted:
      return Outcome::kShed;
    case cjoin::StatusCode::kDeadlineExceeded:
      return Outcome::kDeadline;
    case cjoin::StatusCode::kAborted:
    case cjoin::StatusCode::kCancelled:
      return Outcome::kAborted;
    default:
      return Outcome::kError;
  }
}

const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kShed:
      return "shed";
    case Outcome::kDeadline:
      return "deadline";
    case Outcome::kAborted:
      return "aborted";
    case Outcome::kError:
      return "error";
  }
  return "?";
}

struct SpanRec {
  std::string kind;
  std::string label;
  double start_us = 0.0;  ///< from the query's submission
  double dur_us = 0.0;
};

struct QueryRec {
  QueryDesc desc;
  int64_t sched_ns = 0;  ///< due time (open loop) or Execute start
  int64_t origin_ns = 0;  ///< latency origin (see LatencyOrigin)
  int64_t send_ns = 0;
  int64_t execute_ns = 0;  ///< duration of the Execute call (closed loop)
  int64_t done_ns = 0;
  Outcome outcome = Outcome::kOk;
  std::string error;
  Fingerprint fingerprint;  ///< of the result (reference.h)
  SnapshotId snapshot = 0;
  // Kept for queries completing in the traced window only.
  bool traced = false;
  bool cjoin_route = true;
  double submission_s = -1.0;       ///< QueryTicket::SubmissionSeconds
  double server_response_s = -1.0;  ///< QUERY_DONE response_seconds
  uint32_t trace_dropped = 0;
  std::vector<SpanRec> spans;
  cjoin::ResultSet result;  ///< for net.encode_ns_per_row
};

struct IngestRec {
  std::vector<FactRow> rows;
  int64_t sched_ns = 0, origin_ns = 0, send_ns = 0, done_ns = 0;
  Outcome outcome = Outcome::kOk;
  std::string error;
  SnapshotId commit = 0;
};

struct Window {
  int64_t begin = 0, end = 0;
  bool Contains(int64_t t) const { return t >= begin && t < end; }
  double Seconds() const { return static_cast<double>(end - begin) / 1e9; }
};

/// One measured pass: a ramp from `start`, then the measured window;
/// generators stop issuing at its end.
struct Timeline {
  int64_t start = 0;
  Window window;
};

/// One pass of a workload: its own set-ups, ramp and measured window.
struct Pass {
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Keep the engine's per-query spans and GetStats samples, and report
  /// per-layer metrics too.
  bool traced = false;
  std::string trace_out;  ///< where a traced pass writes them ("" = nowhere)
};

Timeline MakeTimeline(double seconds) {
  Timeline t;
  t.start = NowNs();
  t.window.begin = t.start + SecondsToNs(kRampSeconds);
  t.window.end = t.window.begin + SecondsToNs(seconds);
  return t;
}

std::vector<SpanRec> SpansOf(const cjoin::obs::QueryTrace& trace) {
  std::vector<SpanRec> out;
  for (const cjoin::obs::TraceSpan& s : trace.Spans()) {
    if (s.end_ns == 0) continue;
    out.push_back({cjoin::obs::SpanKindName(s.kind), s.label,
                   static_cast<double>(s.start_ns - trace.origin_ns()) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3});
  }
  return out;
}

/// Text of the JSON string value following `"key":` at or after `pos`.
std::string JsonString(const std::string& j, const std::string& key,
                       size_t pos = 0) {
  const std::string pat = "\"" + key + "\":\"";
  size_t b = j.find(pat, pos);
  if (b == std::string::npos) return "";
  b += pat.size();
  std::string out;
  for (size_t i = b; i < j.size() && j[i] != '"'; ++i) {
    if (j[i] == '\\' && i + 1 < j.size()) ++i;
    out.push_back(j[i]);
  }
  return out;
}

double JsonNumber(const std::string& j, const std::string& key,
                  size_t pos = 0) {
  const std::string pat = "\"" + key + "\":";
  const size_t b = j.find(pat, pos);
  if (b == std::string::npos) return 0.0;
  return std::strtod(j.c_str() + b + pat.size(), nullptr);
}

/// Route, dropped count and spans of a QUERY_DONE trace payload
/// (obs::QueryTrace::ToJson).
void ParseTraceJson(const std::string& j, QueryRec* r) {
  r->cjoin_route = JsonString(j, "route") == "cjoin";
  r->trace_dropped = static_cast<uint32_t>(JsonNumber(j, "dropped"));
  for (size_t p = j.find("{\"kind\":"); p != std::string::npos;
       p = j.find("{\"kind\":", p + 1)) {
    SpanRec s{JsonString(j, "kind", p), JsonString(j, "label", p),
              JsonNumber(j, "start_us", p), JsonNumber(j, "dur_us", p)};
    if (s.dur_us >= 0) r->spans.push_back(std::move(s));
  }
}

// --- Pipeline samples (traced window) ---------------------------------------

struct Sample {
  int64_t t_ns = 0;
  uint64_t rows_scanned = 0, tuples_routed = 0, laps = 0;
  uint64_t filter_in = 0, filter_dropped = 0;
  double pool_in_use = 0, dim_entries = 0;
  /// Per queue index: how many shards had that queue at capacity.
  std::vector<size_t> queues_full;
  size_t shards = 0;
  double disk_busy_s = 0;
  uint64_t disk_seeks = 0;
};

/// Samples the pipeline pool's GetStats (and the SimDisk volumes) every
/// kSampleIntervalNs across the traced window, from its own thread.
class Sampler {
 public:
  Sampler(QueryEngine* engine, std::vector<cjoin::SimDisk*> disks,
          Window window)
      : engine_(engine), disks_(std::move(disks)), window_(window) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Sampler() { Join(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Join() {
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<Sample>& samples() const { return samples_; }

 private:
  void Loop() {
    SleepUntil(window_.begin);
    while (true) {
      samples_.push_back(Take());
      if (samples_.back().t_ns >= window_.end) break;
      SleepUntil(std::min(NowNs() + kSampleIntervalNs, window_.end));
    }
  }

  Sample Take() {
    Sample s;
    auto op = engine_->OperatorFor(kStar);
    if (op.ok()) {
      const cjoin::CJoinOperator::Stats st = (*op)->GetStats();
      s.rows_scanned = st.rows_scanned;
      s.tuples_routed = st.tuples_routed;
      s.laps = st.table_laps;
      s.pool_in_use = static_cast<double>(st.pool_in_use);
      for (size_t n : st.dim_table_sizes) {
        s.dim_entries += static_cast<double>(n);
      }
      for (uint64_t n : st.filter_tuples_in) s.filter_in += n;
      for (uint64_t n : st.filter_tuples_dropped) s.filter_dropped += n;
      for (const auto& sh : (*op)->PerShardStats()) {
        ++s.shards;
        s.queues_full.resize(std::max(s.queues_full.size(),
                                      sh.queue_depths.size()));
        for (size_t i = 0; i < sh.queue_depths.size(); ++i) {
          if (sh.queue_depths[i] >= sh.queue_capacity) ++s.queues_full[i];
        }
      }
    }
    for (cjoin::SimDisk* d : disks_) {
      s.disk_busy_s += d->BusySeconds();
      s.disk_seeks += d->SeekCount();
    }
    s.t_ns = NowNs();
    return s;
  }

  QueryEngine* engine_;
  std::vector<cjoin::SimDisk*> disks_;
  Window window_;
  std::vector<Sample> samples_;
  std::thread thread_;  // last: uses the members above
};

/// Generates the SSB database of a workload (the same for a given seed).
std::unique_ptr<cjoin::ssb::SsbDatabase> GenerateDb(double scale_factor,
                                                    uint64_t seed) {
  cjoin::ssb::GenOptions go;
  go.scale_factor = scale_factor;
  go.seed = seed;
  auto db = cjoin::ssb::Generate(go);
  if (!db.ok()) {
    std::fprintf(stderr, "perfbench: generate: %s\n",
                 db.status().ToString().c_str());
    return nullptr;
  }
  const cjoin::ssb::SsbDatabase& d = **db;
  std::fprintf(stderr,
               "perfbench: SSB sf %g: %llu fact rows, %.1f MiB; dimension "
               "rows date %llu, customer %llu, supplier %llu, part %llu\n",
               scale_factor,
               static_cast<unsigned long long>(d.lineorder->NumRows()),
               static_cast<double>(d.TotalBytes()) / (1 << 20),
               static_cast<unsigned long long>(d.date->NumRows()),
               static_cast<unsigned long long>(d.customer->NumRows()),
               static_cast<unsigned long long>(d.supplier->NumRows()),
               static_cast<unsigned long long>(d.part->NumRows()));
  return std::move(db).value();
}

// --- Ingest stream ----------------------------------------------------------

/// Fixed-rate open-loop ingest from `begin` until `stop`, through
/// QueryEngine::AppendFacts in this process. (Over loopback an INGEST
/// round trip is four thread wake-ups, ~240 of its ~250 us on the VM the
/// benchmark was tuned on, and their cost drifted enough between minutes
/// to put the ingest percentiles' run-to-run spread at 0.25-1.2; the
/// engine's own append cost is what the metric gates.)
std::vector<IngestRec> IngestLoop(const Generator& gen, uint64_t seed,
                                  int64_t begin, int64_t stop,
                                  QueryEngine* engine) {
  cjoin::Rng rng(seed);
  std::vector<IngestRec> out;
  const int64_t period = SecondsToNs(1.0 / kIngestRate);
  for (int64_t k = 0;; ++k) {
    IngestRec r;
    r.sched_ns = begin + k * period;
    if (r.sched_ns >= stop) break;
    for (size_t i = 0; i < kIngestRows; ++i) r.rows.push_back(gen.Row(rng));
    std::vector<std::vector<uint8_t>> payloads;
    for (const FactRow& row : r.rows) payloads.push_back(row.payload);
    SleepUntil(r.sched_ns);
    r.send_ns = NowNs();
    r.origin_ns = LatencyOrigin(r.sched_ns, r.send_ns,
                                out.empty() ? 0 : out.back().done_ns);
    cjoin::Result<SnapshotId> res = engine->AppendFacts(kStar, payloads);
    r.done_ns = NowNs();
    r.outcome = Classify(res.status());
    if (res.ok()) {
      r.commit = *res;
    } else {
      r.error = res.status().ToString();
    }
    out.push_back(std::move(r));
  }
  return out;
}

// --- Result checking --------------------------------------------------------

/// Checks every OK result of the warm-up and the run against the
/// reference at the snapshot the result reports.
void CheckResults(const cjoin::ssb::SsbDatabase& db, uint64_t base_rows,
                  const std::vector<QueryRec>& warmup,
                  const std::vector<QueryRec>& queries,
                  const std::vector<IngestRec>& ingests, Report* report) {
  const int64_t t0 = NowNs();
  Reference ref(db, base_rows);
  for (const IngestRec& r : ingests) {
    if (r.outcome != Outcome::kOk) continue;
    for (const FactRow& row : r.rows) ref.AddRow(row, r.commit);
  }
  ref.Index();
  std::vector<const QueryRec*> ok;
  for (const auto* v : {&warmup, &queries}) {
    for (const QueryRec& q : *v) {
      if (q.outcome == Outcome::kOk) ok.push_back(&q);
    }
  }
  const size_t workers = std::max<size_t>(
      1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  std::vector<std::vector<std::string>> found(workers);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = w; i < ok.size(); i += workers) {
        const QueryRec& q = *ok[i];
        const std::string diff =
            Diff(ref.Evaluate(q.desc, q.snapshot), q.fingerprint);
        if (diff.empty()) continue;
        std::string line = "query " + q.desc.name + " at snapshot " +
                           std::to_string(q.snapshot) + ": " + diff;
        // Diagnosis only: the newest earlier snapshot the result matches.
        for (SnapshotId s = q.snapshot; s-- > 0;) {
          if (Diff(ref.Evaluate(q.desc, s), q.fingerprint).empty()) {
            line += " (equals the reference at snapshot " +
                    std::to_string(s) + ")";
            break;
          }
        }
        found[w].push_back(std::move(line));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& f : found) {
    report->mismatches.insert(report->mismatches.end(), f.begin(), f.end());
  }
  std::fprintf(stderr,
               "perfbench: checked %zu results in %.2f s, %zu mismatches\n",
               ok.size(), static_cast<double>(NowNs() - t0) / 1e9,
               report->mismatches.size());
}

// --- Metrics ----------------------------------------------------------------

void Add(std::vector<Metric>* m, const char* name, double value,
         const char* unit) {
  m->push_back({name, value, unit});
}

/// p50 of the durations (ms) of spans of `kind` whose label satisfies
/// `match`.
double SpanP50(const std::vector<const QueryRec*>& qs, const char* kind,
               const std::function<bool(const std::string&)>& match,
               double scale) {
  std::vector<double> v;
  for (const QueryRec* q : qs) {
    for (const SpanRec& s : q->spans) {
      if (s.kind == kind && match(s.label)) v.push_back(s.dur_us * scale);
    }
  }
  return Quantile(v, 0.5);
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

void WarnIfThin(const char* what, size_t n, double q) {
  const double beyond = static_cast<double>(n) * (1.0 - q);
  if (beyond < 10.0) {
    std::fprintf(stderr,
                 "perfbench: warning: %s has %zu samples, %.1f beyond its "
                 "percentile (want >= 10)\n",
                 what, n, beyond);
  }
}

void CountAttempts(const std::vector<QueryRec>& qs,
                   const std::vector<IngestRec>& is, Report* r) {
  size_t by[5] = {};
  for (const QueryRec& q : qs) ++by[static_cast<int>(q.outcome)];
  for (const IngestRec& i : is) ++by[static_cast<int>(i.outcome)];
  r->attempted = qs.size() + is.size();
  r->failed = r->attempted - by[0];
  if (r->failed > 0) {
    std::fprintf(stderr,
                 "perfbench: %llu of %llu operations failed (shed %zu, "
                 "deadline %zu, aborted %zu, error %zu)\n",
                 static_cast<unsigned long long>(r->failed),
                 static_cast<unsigned long long>(r->attempted), by[1], by[2],
                 by[3], by[4]);
    for (const QueryRec& q : qs) {
      if (q.outcome != Outcome::kOk) {
        std::fprintf(stderr, "perfbench:   %s: %s\n", q.desc.name.c_str(),
                     q.error.c_str());
        break;
      }
    }
  }
}

void AddEndToEnd(const std::vector<QueryRec>& qs,
                 const std::vector<IngestRec>& is, const Window& w,
                 double setup_s, double peak_rss_mb, Report* r) {
  std::vector<Metric>* m = &r->metrics;
  std::vector<double> lat, ing;
  int64_t first_done = w.end, last_done = w.begin;
  for (const QueryRec& q : qs) {
    if (q.outcome == Outcome::kOk && w.Contains(q.done_ns)) {
      lat.push_back(NsToMs(q.done_ns - q.origin_ns));
      first_done = std::min(first_done, q.done_ns);
      last_done = std::max(last_done, q.done_ns);
    }
  }
  for (const IngestRec& i : is) {
    if (i.outcome == Outcome::kOk && w.Contains(i.done_ns)) {
      ing.push_back(NsToMs(i.done_ns - i.origin_ns));
    }
  }
  WarnIfThin("query latency", lat.size(), 0.99);
  WarnIfThin("ingest latency", ing.size(), 0.5);
  std::fprintf(stderr, "perfbench: window %.2f s: %zu queries, %zu ingests\n",
               w.Seconds(), lat.size(), ing.size());
  Add(m, "setup_s", setup_s, "s");
  // Completion rate between the window's first and last completion.
  Add(m, "queries_per_s",
      lat.size() > 1 ? static_cast<double>(lat.size() - 1) * 1e9 /
                           static_cast<double>(last_done - first_done)
                     : 0.0,
      "1/s");
  Add(m, "query_p50_ms", Quantile(lat, 0.5), "ms");
  Add(m, "query_p99_ms", Quantile(lat, 0.99), "ms");
  Add(m, "ingest_p50_ms", Quantile(ing, 0.5), "ms");
  Add(m, "ok_frac",
      1.0 - static_cast<double>(r->failed) /
                static_cast<double>(std::max<uint64_t>(r->attempted, 1)),
      "frac");
  Add(m, "peak_rss_mb", peak_rss_mb, "MiB");
}

void AddPerLayer(const std::vector<QueryRec>& qs,
                 const std::vector<IngestRec>& is, const Window& w,
                 const std::vector<Sample>& samples,
                 const cjoin::StarSchema& star, Report* report) {
  std::vector<Metric>* r = &report->layers;
  std::vector<const QueryRec*> traced;
  for (const QueryRec& q : qs) {
    if (q.traced && q.outcome == Outcome::kOk) traced.push_back(&q);
  }
  auto any = [](const std::string&) { return true; };

  // cjoin: GetStats deltas and fixed-interval samples.
  double rows_per_s = 0, lap_ms = 0, routed_per_scanned = 0;
  double drop_frac = 0, pool_mean = 0, dim_mean = 0;
  double disk_busy = 0, disk_seeks = 0;
  double queue_full[2] = {0, 0};
  if (samples.size() >= 2) {
    const Sample& a = samples.front();
    const Sample& b = samples.back();
    const double secs = static_cast<double>(b.t_ns - a.t_ns) / 1e9;
    const double scanned = static_cast<double>(b.rows_scanned - a.rows_scanned);
    rows_per_s = scanned / secs;
    if (b.laps > a.laps) {
      lap_ms = secs * 1e3 / static_cast<double>(b.laps - a.laps);
    }
    if (scanned > 0) {
      routed_per_scanned =
          static_cast<double>(b.tuples_routed - a.tuples_routed) / scanned;
    }
    disk_busy = (b.disk_busy_s - a.disk_busy_s) / secs /
                static_cast<double>(std::max<size_t>(b.shards, 1));
    disk_seeks = static_cast<double>(b.disk_seeks - a.disk_seeks);
    double in = 0, dropped = 0, shard_samples = 0;
    for (const Sample& s : samples) {
      in += static_cast<double>(s.filter_in);
      dropped += static_cast<double>(s.filter_dropped);
      pool_mean += s.pool_in_use / static_cast<double>(samples.size());
      dim_mean += s.dim_entries / static_cast<double>(samples.size());
      shard_samples += static_cast<double>(s.shards);
      for (size_t i = 0; i < 2 && i < s.queues_full.size(); ++i) {
        queue_full[i] += static_cast<double>(s.queues_full[i]);
      }
    }
    drop_frac = in > 0 ? dropped / in : 0;
    for (double& f : queue_full) f = shard_samples > 0 ? f / shard_samples : 0;
  }
  Add(r, "cjoin.rows_scanned_per_s", rows_per_s, "1/s");
  Add(r, "cjoin.lap_ms", lap_ms, "ms");
  Add(r, "cjoin.pre_span_ms_p50",
      SpanP50(traced, "stage",
              [](const std::string& l) { return EndsWith(l, "pre"); }, 1e-3),
      "ms");
  Add(r, "cjoin.filter_span_ms_p50",
      SpanP50(traced, "stage",
              [](const std::string& l) {
                return !EndsWith(l, "pre") && !EndsWith(l, "dist");
              },
              1e-3),
      "ms");
  Add(r, "cjoin.dist_span_ms_p50",
      SpanP50(traced, "stage",
              [](const std::string& l) { return EndsWith(l, "dist"); }, 1e-3),
      "ms");
  Add(r, "cjoin.filter_drop_frac", drop_frac, "frac");
  Add(r, "cjoin.routed_per_scanned", routed_per_scanned, "ratio");
  Add(r, "cjoin.queue_full_frac.0", queue_full[0], "frac");
  Add(r, "cjoin.queue_full_frac.1", queue_full[1], "frac");
  Add(r, "cjoin.pool_in_use_mean", pool_mean, "count");
  Add(r, "cjoin.dim_entries_mean", dim_mean, "count");

  // engine
  std::vector<double> submit_ms, execute_us, parse_us;
  double cjoin_routed = 0;
  for (const QueryRec* q : traced) {
    if (q->submission_s >= 0) submit_ms.push_back(q->submission_s * 1e3);
    if (q->execute_ns > 0) execute_us.push_back(q->execute_ns / 1e3);
    cjoin_routed += q->cjoin_route;
  }
  for (const QueryRec* q : traced) {
    const std::string sql = ToSql(q->desc, star);
    const int64_t t0 = NowNs();
    auto parsed = cjoin::ParseStarQuery(star, sql);
    const int64_t t1 = NowNs();
    if (!parsed.ok()) {
      std::fprintf(stderr, "perfbench: parse failed: %s\n",
                   parsed.status().ToString().c_str());
    }
    parse_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  Add(r, "engine.submit_ms_p50", Quantile(submit_ms, 0.5), "ms");
  Add(r, "engine.submit_ms_p99", Quantile(submit_ms, 0.99), "ms");
  Add(r, "engine.execute_us_p50", Quantile(execute_us, 0.5), "us");
  Add(r, "engine.execute_us_p99", Quantile(execute_us, 0.99), "us");
  Add(r, "engine.admission_us_p50", SpanP50(traced, "admission", any, 1.0),
      "us");
  Add(r, "engine.route_cjoin_frac",
      traced.empty() ? 0 : cjoin_routed / static_cast<double>(traced.size()),
      "frac");
  Add(r, "engine.sql_parse_us_p50", Quantile(parse_us, 0.5), "us");
  // The ingest tail: multi-modal (appends that touch a fresh page fault
  // it in), so its run-to-run spread is too wide for an end-to-end gate.
  std::vector<double> append_us;
  for (const IngestRec& i : is) {
    if (i.outcome == Outcome::kOk && w.Contains(i.done_ns)) {
      append_us.push_back(static_cast<double>(i.done_ns - i.origin_ns) / 1e3);
    }
  }
  Add(r, "engine.append_us_p90", Quantile(append_us, 0.9), "us");

  // baseline, exec
  Add(r, "baseline.queue_ms_p50",
      SpanP50(traced, "baseline_queue", any, 1e-3), "ms");
  Add(r, "baseline.run_ms_p50", SpanP50(traced, "baseline_run", any, 1e-3),
      "ms");
  Add(r, "exec.merge_us_p50", SpanP50(traced, "merge", any, 1.0), "us");
  std::vector<double> rows;
  for (const QueryRec* q : traced) {
    rows.push_back(static_cast<double>(q->fingerprint.rows));
  }
  Add(r, "exec.result_rows_mean", Mean(rows), "count");

  // net
  std::vector<double> overhead;
  for (const QueryRec* q : traced) {
    if (q->server_response_s >= 0) {
      overhead.push_back(NsToMs(q->done_ns - q->send_ns) -
                         q->server_response_s * 1e3);
    }
  }
  int64_t encode_ns = 0;
  uint64_t encoded_rows = 0;
  for (const QueryRec* q : traced) {
    const int64_t t0 = NowNs();
    cjoin::net::EncodeResultBatches(
        1, q->result, cjoin::net::CjoinServer::Options{}.batch_rows);
    encode_ns += NowNs() - t0;
    encoded_rows += q->result.rows.size();
  }
  Add(r, "net.wire_overhead_ms_p50", Quantile(overhead, 0.5), "ms");
  Add(r, "net.stream_ms_p50", SpanP50(traced, "net_stream", any, 1e-3),
      "ms");
  Add(r, "net.encode_ns_per_row",
      encoded_rows > 0
          ? static_cast<double>(encode_ns) / static_cast<double>(encoded_rows)
          : 0,
      "ns");

  // storage
  Add(r, "storage.disk_busy_frac", disk_busy, "frac");
  Add(r, "storage.disk_seeks", disk_seeks, "count");

  // obs and the benchmark itself
  double dropped = 0;
  for (const QueryRec* q : traced) dropped += q->trace_dropped;
  Add(r, "obs.trace_dropped", dropped, "count");
  std::vector<double> late;
  for (const QueryRec* q : traced) {
    // Closed-loop queries (timed Execute calls) have no due time.
    if (q->execute_ns == 0) late.push_back(NsToMs(q->send_ns - q->sched_ns));
  }
  for (const IngestRec& i : is) {
    if (w.Contains(i.sched_ns)) {
      late.push_back(NsToMs(i.send_ns - i.sched_ns));
    }
  }
  Add(r, "bench.gen_late_p99_ms", Quantile(late, 0.99), "ms");
}

/// Writes the traced window's benchmark spans, engine spans and samples
/// as JSON lines (times in microseconds from the window's start).
void WriteTrace(const std::string& path, const std::vector<QueryRec>& qs,
                const std::vector<IngestRec>& is,
                const std::vector<Sample>& samples, const Window& w) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  auto us = [&](int64_t t) { return static_cast<double>(t - w.begin) / 1e3; };
  for (const QueryRec& q : qs) {
    if (!q.traced) continue;
    std::fprintf(f,
                 "{\"type\":\"query\",\"name\":\"%s\",\"outcome\":\"%s\","
                 "\"route\":\"%s\",\"sched_us\":%.1f,\"send_us\":%.1f,"
                 "\"execute_us\":%.1f,\"done_us\":%.1f,\"spans\":[",
                 q.desc.name.c_str(), OutcomeName(q.outcome),
                 q.cjoin_route ? "cjoin" : "baseline", us(q.sched_ns),
                 us(q.send_ns), static_cast<double>(q.execute_ns) / 1e3,
                 us(q.done_ns));
    for (size_t i = 0; i < q.spans.size(); ++i) {
      const SpanRec& s = q.spans[i];
      std::fprintf(f,
                   "%s{\"kind\":\"%s\",\"label\":\"%s\",\"start_us\":%.1f,"
                   "\"dur_us\":%.1f}",
                   i ? "," : "", s.kind.c_str(), s.label.c_str(), s.start_us,
                   s.dur_us);
    }
    std::fprintf(f, "]}\n");
  }
  for (const IngestRec& i : is) {
    if (!w.Contains(i.sched_ns)) continue;
    std::fprintf(f,
                 "{\"type\":\"ingest\",\"outcome\":\"%s\",\"rows\":%zu,"
                 "\"sched_us\":%.1f,\"send_us\":%.1f,\"done_us\":%.1f}\n",
                 OutcomeName(i.outcome), i.rows.size(), us(i.sched_ns),
                 us(i.send_ns), us(i.done_ns));
  }
  for (const Sample& s : samples) {
    std::fprintf(f,
                 "{\"type\":\"sample\",\"t_us\":%.1f,\"rows_scanned\":%llu,"
                 "\"laps\":%llu,\"pool_in_use\":%.0f,\"dim_entries\":%.0f}\n",
                 us(s.t_ns), static_cast<unsigned long long>(s.rows_scanned),
                 static_cast<unsigned long long>(s.laps), s.pool_in_use,
                 s.dim_entries);
  }
  std::fclose(f);
}

/// Ends a pass: counts failures, checks every OK result, and reports the
/// end-to-end metrics and, for a traced pass, the per-layer ones.
void Conclude(const Pass& p, const Timeline& t,
              const cjoin::ssb::SsbDatabase& db, uint64_t base_rows,
              const std::vector<QueryRec>& warmup,
              const std::vector<QueryRec>& queries,
              const std::vector<IngestRec>& ingests,
              const std::vector<Sample>& samples, double setup_s,
              Report* report) {
  const double rss = PeakRssMb();  // before the reference adds its copy
  CountAttempts(queries, ingests, report);
  CheckResults(db, base_rows, warmup, queries, ingests, report);
  AddEndToEnd(queries, ingests, t.window, setup_s, rss, report);
  if (p.traced) {
    AddPerLayer(queries, ingests, t.window, samples, *db.star, report);
    WriteTrace(p.trace_out, queries, ingests, samples, t.window);
  }
}

/// Runs `setup` kSetups times (each replacing the previous environment)
/// and returns the median set-up time.
template <typename Env, typename SetupFn>
double TimedSetups(std::unique_ptr<Env>* env, const SetupFn& setup) {
  std::vector<double> times;
  for (int i = 0; i < kSetups; ++i) {
    env->reset();
    const int64_t t0 = NowNs();
    *env = setup();
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (*env == nullptr) return -1.0;
  }
  return Quantile(times, 0.5);
}

// --- Closed loop over QueryEngine::Execute ----------------------------------

struct ClosedConfig {
  double scale_factor = 0.05;
  size_t shards = 1;
  double disk_bytes_per_sec = 0;  ///< 0 = memory-resident
  size_t inflight = 128;
  double selectivity = 0.02;
};

struct EngineEnv {
  std::unique_ptr<cjoin::ssb::SsbDatabase> db;
  std::vector<std::unique_ptr<cjoin::SimDisk>> disks;
  std::unique_ptr<QueryEngine> engine;  // after db and disks: uses both
  std::unique_ptr<Generator> gen;
  uint64_t base_rows = 0;
  std::vector<QueryRec> warmup;

  std::vector<cjoin::SimDisk*> disk_ptrs() const {
    std::vector<cjoin::SimDisk*> out;
    for (const auto& d : disks) out.push_back(d.get());
    return out;
  }
};

cjoin::QueryRequest CJoinRequest(const QueryDesc& q) {
  cjoin::QueryRequest req = cjoin::QueryRequest::FromSpec(q.spec);
  req.policy = cjoin::RoutePolicy::kCJoin;
  return req;
}

/// Records a finished ticket's outcome (and, when `traced`, what the
/// engine recorded about it).
void Finish(cjoin::QueryTicket* ticket, bool traced, QueryRec* r) {
  cjoin::Result<cjoin::ResultSet> res = ticket->Wait();
  r->outcome = Classify(res.status());
  if (res.ok()) {
    r->fingerprint = FingerprintOf(Canonicalize(*res));
    r->snapshot = ticket->snapshot();
    if (traced) r->result = std::move(res).value();
  } else {
    r->error = res.status().ToString();
  }
  if (!traced) return;
  r->traced = true;
  r->cjoin_route = ticket->route() == cjoin::RouteChoice::kCJoin;
  if (r->cjoin_route) r->submission_s = ticket->SubmissionSeconds();
  if (ticket->trace() != nullptr) {
    r->spans = SpansOf(*ticket->trace());
    r->trace_dropped = ticket->trace()->dropped();
  }
}

std::unique_ptr<EngineEnv> SetupEngine(const ClosedConfig& cfg,
                                       uint64_t seed) {
  auto env = std::make_unique<EngineEnv>();
  env->db = GenerateDb(cfg.scale_factor, seed);
  if (env->db == nullptr) return nullptr;
  env->base_rows = env->db->lineorder->NumRows();
  QueryEngine::Options eo;
  eo.cjoin_shards = cfg.shards;
  if (cfg.disk_bytes_per_sec > 0) {
    for (size_t s = 0; s < cfg.shards; ++s) {
      cjoin::SimDisk::Options d;
      d.bandwidth_bytes_per_sec = cfg.disk_bytes_per_sec;
      env->disks.push_back(std::make_unique<cjoin::SimDisk>(d));
    }
    eo.cjoin_shard_disks = env->disk_ptrs();
  }
  env->engine = std::make_unique<QueryEngine>(eo);
  cjoin::Status st = env->engine->RegisterStar(kStar, *env->db->star);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: register: %s\n", st.ToString().c_str());
    return nullptr;
  }
  env->gen = std::make_unique<Generator>(*env->db);

  cjoin::Rng rng(seed * 7919 + 3);
  std::vector<std::unique_ptr<cjoin::QueryTicket>> tickets;
  for (size_t i = 0; i < kWarmupQueries; ++i) {
    QueryRec r;
    r.desc = env->gen->Query(rng, cfg.selectivity, i);
    r.desc.name = "warmup-" + r.desc.name;
    auto t = env->engine->Execute(CJoinRequest(r.desc));
    if (!t.ok()) {
      std::fprintf(stderr, "perfbench: warm-up: %s\n",
                   t.status().ToString().c_str());
      return nullptr;
    }
    tickets.push_back(std::move(t).value());
    env->warmup.push_back(std::move(r));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    Finish(tickets[i].get(), false, &env->warmup[i]);
  }
  return env;
}

bool RunClosed(const ClosedConfig& cfg, const Pass& p, Report* report) {
  std::unique_ptr<EngineEnv> env;
  const double setup_s =
      TimedSetups(&env, [&] { return SetupEngine(cfg, p.seed); });
  if (env == nullptr) return false;
  QueryEngine& engine = *env->engine;
  const Timeline t = MakeTimeline(p.seconds);

  std::vector<IngestRec> ingests;
  std::thread ingest([&] {
    ingests = IngestLoop(*env->gen, p.seed * 7919 + 2, t.start, t.window.end,
                         &engine);
  });
  std::unique_ptr<Sampler> sampler;
  if (p.traced) {
    sampler = std::make_unique<Sampler>(&engine, env->disk_ptrs(), t.window);
  }

  // One generator thread keeps cfg.inflight queries in flight.
  cjoin::Rng rng(p.seed * 7919 + 1);
  std::vector<QueryRec> queries;
  struct Slot {
    std::unique_ptr<cjoin::QueryTicket> ticket;
    QueryRec rec;
  };
  std::vector<Slot> slots;
  uint64_t seq = 0;
  // False when Execute itself failed (a malformed request), so a broken
  // build cannot spin here.
  auto submit = [&] {
    Slot s;
    s.rec.desc = env->gen->Query(rng, cfg.selectivity, seq++);
    cjoin::QueryRequest req = CJoinRequest(s.rec.desc);
    s.rec.sched_ns = s.rec.origin_ns = s.rec.send_ns = NowNs();
    auto ticket = engine.Execute(std::move(req));
    s.rec.execute_ns = NowNs() - s.rec.send_ns;
    if (!ticket.ok()) {
      s.rec.outcome = Classify(ticket.status());
      s.rec.error = ticket.status().ToString();
      s.rec.done_ns = NowNs();
      queries.push_back(std::move(s.rec));
      return false;
    }
    s.ticket = std::move(ticket).value();
    slots.push_back(std::move(s));
    return true;
  };
  auto complete = [&](Slot& s) {
    s.rec.done_ns = NowNs();
    Finish(s.ticket.get(), p.traced && t.window.Contains(s.rec.done_ns),
           &s.rec);
    queries.push_back(std::move(s.rec));
  };
  while (NowNs() < t.window.end) {
    while (slots.size() < cfg.inflight && submit()) {
    }
    bool progressed = false;
    for (size_t i = 0; i < slots.size();) {
      if (slots[i].ticket->Ready()) {
        complete(slots[i]);
        slots[i] = std::move(slots.back());
        slots.pop_back();
        progressed = true;
      } else {
        ++i;
      }
    }
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  for (Slot& s : slots) {
    while (!s.ticket->Ready()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    complete(s);
  }
  slots.clear();
  ingest.join();
  if (sampler != nullptr) sampler->Join();
  if (!engine.Shutdown(std::chrono::seconds(10))) {
    std::fprintf(stderr, "perfbench: engine did not drain\n");
  }
  Conclude(p, t, *env->db, env->base_rows, env->warmup, queries, ingests,
           sampler != nullptr ? sampler->samples() : std::vector<Sample>{},
           setup_s, report);
  return true;
}

// --- Open loop over the wire ------------------------------------------------

struct WireConfig {
  static constexpr double kScaleFactor = 0.05;
  static constexpr size_t kConnections = 4;
  static constexpr double kRatePerConnection = 20.0;  ///< queries/s
  /// Share of broad queries. Small, so the median is a body quantile of
  /// the narrow class and the p99 one of the broad class (~the broad
  /// p80): quantiles near the edge of a class jump with host stalls.
  static constexpr int kBroadPercent = 5;
  static constexpr double kBroadSelectivity = 0.9;
  static constexpr double kNarrowSelectivity = 0.01;
  /// Warm-up queries per connection: enough for the router to observe
  /// both routes (16 each, exploring every 8th decision).
  static constexpr size_t kWarmupPerConnection = 48;

  static double Selectivity(bool broad) {
    return broad ? kBroadSelectivity : kNarrowSelectivity;
  }
};

constexpr int64_t kWireTimeoutNs = 10'000'000'000;

struct WireEnv {
  std::unique_ptr<cjoin::ssb::SsbDatabase> db;
  std::unique_ptr<QueryEngine> engine;          // uses db
  std::unique_ptr<cjoin::net::CjoinServer> server;  // uses engine
  std::vector<std::unique_ptr<cjoin::net::CjoinClient>> clients;
  std::unique_ptr<Generator> gen;
  uint64_t base_rows = 0;
  std::vector<QueryRec> warmup;
};

/// Sends `r.desc` as SQL (routed by kAuto) and records the outcome;
/// keeps the server's trace of queries completing in `traced`.
void WireQuery(cjoin::net::CjoinClient* client, const cjoin::StarSchema& star,
               const Window& traced, QueryRec* r) {
  r->send_ns = NowNs();
  auto res = client->Query(kStar, ToSql(r->desc, star), kWireTimeoutNs);
  r->done_ns = NowNs();
  r->outcome = Classify(res.status());
  if (!res.ok()) {
    r->error = res.status().ToString();
    return;
  }
  r->snapshot = static_cast<SnapshotId>(res->snapshot);
  r->fingerprint = FingerprintOf(Canonicalize(res->result));
  if (!traced.Contains(r->done_ns)) return;
  r->traced = true;
  r->result = std::move(res->result);
  r->server_response_s = res->response_seconds;
  ParseTraceJson(res->trace_json, r);
}

std::unique_ptr<WireEnv> SetupWire(uint64_t seed) {
  auto env = std::make_unique<WireEnv>();
  env->db = GenerateDb(WireConfig::kScaleFactor, seed);
  if (env->db == nullptr) return nullptr;
  env->base_rows = env->db->lineorder->NumRows();
  env->engine = std::make_unique<QueryEngine>();
  cjoin::Status st = env->engine->RegisterStar(kStar, *env->db->star);
  env->server = std::make_unique<cjoin::net::CjoinServer>(
      env->engine.get(), cjoin::net::CjoinServer::Options{});
  if (st.ok()) st = env->server->Start();
  for (size_t c = 0; st.ok() && c < WireConfig::kConnections; ++c) {
    cjoin::net::CjoinClient::Options co;
    co.port = env->server->port();
    env->clients.push_back(std::make_unique<cjoin::net::CjoinClient>(co));
    st = env->clients.back()->Connect();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: wire setup: %s\n", st.ToString().c_str());
    return nullptr;
  }
  env->gen = std::make_unique<Generator>(*env->db);
  // Warm-up that also calibrates the router: a closed loop on every
  // connection, half broad and half narrow. Until both routes have
  // enough observations the router explores, and explored CJOIN queries
  // back up an open loop for up to a second; here they cannot reach the
  // measured window.
  std::vector<std::vector<QueryRec>> per_conn(WireConfig::kConnections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < WireConfig::kConnections; ++c) {
    threads.emplace_back([&, c] {
      cjoin::Rng rng(seed * 7919 + 3 + 1000 * c);
      for (size_t i = 0; i < WireConfig::kWarmupPerConnection; ++i) {
        QueryRec r;
        const bool broad = i % 2 == 0;
        r.desc = env->gen->Query(rng, WireConfig::Selectivity(broad),
                                 i * WireConfig::kConnections + c, broad);
        r.desc.name = "warmup-" + r.desc.name;
        WireQuery(env->clients[c].get(), *env->db->star, Window{}, &r);
        per_conn[c].push_back(std::move(r));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (auto& v : per_conn) {
    for (QueryRec& r : v) env->warmup.push_back(std::move(r));
  }
  if (!env->engine->GetRouterStats().calibration.BothWarm()) {
    std::fprintf(stderr, "perfbench: router not calibrated after warm-up\n");
  }
  return env;
}

bool RunWire(const Pass& p, Report* report) {
  std::unique_ptr<WireEnv> env;
  const double setup_s = TimedSetups(&env, [&] { return SetupWire(p.seed); });
  if (env == nullptr) return false;
  const cjoin::StarSchema& star = *env->db->star;
  const Timeline t = MakeTimeline(p.seconds);

  std::vector<std::vector<QueryRec>> per_conn(WireConfig::kConnections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < WireConfig::kConnections; ++c) {
    threads.emplace_back([&, c] {
      // Each connection has its own fixed schedule, staggered so the
      // connections' arrivals interleave evenly.
      cjoin::Rng rng(p.seed * 7919 + 10 + c);
      const double period_s = 1.0 / WireConfig::kRatePerConnection;
      const int64_t offset = SecondsToNs(
          period_s * static_cast<double>(c) /
          static_cast<double>(WireConfig::kConnections));
      for (int64_t k = 0;; ++k) {
        QueryRec r;
        r.sched_ns = t.start + offset + SecondsToNs(period_s * k);
        if (r.sched_ns >= t.window.end) break;
        const bool broad =
            rng.UniformInt(1, 100) <= WireConfig::kBroadPercent;
        r.desc = env->gen->Query(
            rng, WireConfig::Selectivity(broad),
            static_cast<uint64_t>(k) * WireConfig::kConnections + c, broad);
        r.desc.name = (broad ? "broad-" : "narrow-") + r.desc.name;
        SleepUntil(r.sched_ns);
        WireQuery(env->clients[c].get(), star,
                  p.traced ? t.window : Window{}, &r);
        r.origin_ns =
            LatencyOrigin(r.sched_ns, r.send_ns,
                          per_conn[c].empty() ? 0 : per_conn[c].back().done_ns);
        per_conn[c].push_back(std::move(r));
      }
    });
  }
  std::vector<IngestRec> ingests;
  threads.emplace_back([&] {
    ingests = IngestLoop(*env->gen, p.seed * 7919 + 2, t.start, t.window.end,
                         env->engine.get());
  });
  std::unique_ptr<Sampler> sampler;
  if (p.traced) {
    sampler = std::make_unique<Sampler>(env->engine.get(),
                                        std::vector<cjoin::SimDisk*>{},
                                        t.window);
  }
  for (auto& th : threads) th.join();
  if (sampler != nullptr) sampler->Join();
  for (auto& c : env->clients) c->Close();
  if (!env->engine->Shutdown(std::chrono::seconds(10))) {
    std::fprintf(stderr, "perfbench: engine did not drain\n");
  }
  env->server->Stop();

  std::vector<QueryRec> queries;
  for (auto& v : per_conn) {
    for (QueryRec& q : v) queries.push_back(std::move(q));
  }
  Conclude(p, t, *env->db, env->base_rows, env->warmup, queries, ingests,
           sampler != nullptr ? sampler->samples() : std::vector<Sample>{},
           setup_s, report);
  return true;
}

/// Runs one pass of `workload`.
bool RunPass(const std::string& workload, const Pass& p, Report* report) {
  if (workload == "cjoin_mem_n128") {
    return RunClosed(ClosedConfig{}, p, report);
  }
  if (workload == "cjoin_disk_shards4") {
    ClosedConfig cfg;
    cfg.shards = 4;
    cfg.disk_bytes_per_sec = 16.0 * 1024 * 1024;
    return RunClosed(cfg, p, report);
  }
  if (workload == "wire_mixed_open") {
    return RunWire(p, report);
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               workload.c_str());
  return false;
}

double MetricValue(const Report& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "cjoin_mem_n128", "cjoin_disk_shards4", "wire_mixed_open"};
  return kNames;
}

bool RunWorkload(const RunOptions& o, Report* report) {
  Pass pass;
  pass.seed = o.seed;
  pass.seconds = o.seconds;
  if (!o.trace) return RunPass(o.workload, pass, report);
  // The traced run: an untraced pass, then a traced pass of the same
  // seed, each over half the window and on a fresh set-up. Both are
  // checked; the per-layer metrics come from the traced pass.
  pass.seconds = o.seconds / 2;
  Report untraced;
  if (!RunPass(o.workload, pass, &untraced)) return false;
  pass.traced = true;
  pass.trace_out = o.trace_out;
  if (!RunPass(o.workload, pass, report)) return false;
  report->attempted += untraced.attempted;
  report->failed += untraced.failed;
  report->mismatches.insert(report->mismatches.end(),
                            untraced.mismatches.begin(),
                            untraced.mismatches.end());
  // What tracing costs: lost throughput in a closed loop; in the open
  // loop, where throughput is the offered rate, the same share of
  // per-query speed (1/p50).
  double overhead = 0.0;
  if (o.workload == "wire_mixed_open") {
    const double traced_p50 = MetricValue(*report, "query_p50_ms");
    if (traced_p50 > 0) {
      overhead = 1.0 - MetricValue(untraced, "query_p50_ms") / traced_p50;
    }
  } else {
    const double untraced_qps = MetricValue(untraced, "queries_per_s");
    if (untraced_qps > 0) {
      overhead = 1.0 - MetricValue(*report, "queries_per_s") / untraced_qps;
    }
  }
  report->layers.push_back({"bench.trace_overhead_frac", overhead, "frac"});
  return true;
}

}  // namespace perfbench
