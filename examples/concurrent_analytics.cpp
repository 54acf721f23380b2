// Concurrent ad-hoc analytics on the Star Schema Benchmark — the paper's
// motivating scenario (§1): many analysts issuing ad-hoc star queries at
// once, without "workload fear".
//
// Generates an SSB database, then runs the same 48-query ad-hoc workload
// two ways and compares wall-clock time and per-query latency spread:
//   1. through CJOIN, 32 queries at a time, sharing one plan;
//   2. through the conventional query-at-a-time executor, 32 worker
//      threads with private plans.
//
// Both run behind the same simulated warehouse disk (README, "Simulated
// disk"): the paper's fact table is far larger than RAM, so concurrent
// private scans contend for one device while CJOIN's single continuous
// scan does not.
//
//   $ ./examples/concurrent_analytics [scale_factor]

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "baseline/qat_engine.h"
#include "common/clock.h"
#include "engine/query_engine.h"
#include "ssb/generator.h"
#include "ssb/queries.h"
#include "storage/sim_disk.h"

using namespace cjoin;

int main(int argc, char** argv) {
  const double sf = argc > 1 ? std::atof(argv[1]) : 0.01;
  constexpr size_t kQueries = 48;
  constexpr size_t kConcurrency = 32;

  std::printf("Generating SSB data at sf=%.3f ...\n", sf);
  ssb::GenOptions gopts;
  gopts.scale_factor = sf;
  auto db_or = ssb::Generate(gopts);
  if (!db_or.ok()) {
    std::fprintf(stderr, "%s\n", db_or.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(db_or).value();
  std::printf("  lineorder: %llu rows, total %.1f MB\n",
              static_cast<unsigned long long>(db->lineorder->NumRows()),
              db->TotalBytes() / 1e6);

  ssb::SsbQueries queries(*db);
  Rng rng(2026);
  auto workload_or = queries.MakeWorkload(kQueries, 0.01, rng);
  if (!workload_or.ok()) {
    std::fprintf(stderr, "%s\n", workload_or.status().ToString().c_str());
    return 1;
  }
  const auto workload = std::move(workload_or).value();

  // Both phases drive the same unified QueryEngine::Execute() API; only
  // the routing policy differs. Each phase gets a fresh engine over a
  // fresh simulated disk so device state doesn't leak across runs.
  auto run_phase = [&](RoutePolicy policy, RunningStat* latency,
                       SimDisk* disk) -> double {
    QueryEngine::Options eopts;
    eopts.cjoin.max_concurrent_queries = kConcurrency;
    eopts.cjoin.num_worker_threads = 4;
    eopts.cjoin.disk = disk;
    eopts.baseline.disk = disk;
    eopts.baseline_workers = kConcurrency;
    QueryEngine engine(eopts);
    {
      auto star = StarSchema::Make(
          db->lineorder.get(),
          std::vector<StarSchema::DimensionByName>{
              {db->date.get(), "lo_orderdate", "d_datekey"},
              {db->customer.get(), "lo_custkey", "c_custkey"},
              {db->supplier.get(), "lo_suppkey", "s_suppkey"},
              {db->part.get(), "lo_partkey", "p_partkey"},
          });
      if (!star.ok() ||
          !engine.RegisterStar("ssb", std::move(*star)).ok()) {
        std::abort();
      }
    }

    Stopwatch total;
    std::vector<std::unique_ptr<QueryTicket>> tickets;
    size_t next = 0, done = 0;
    while (done < workload.size()) {
      while (tickets.size() < kConcurrency && next < workload.size()) {
        QueryRequest req = QueryRequest::FromSpec(workload[next]);
        req.policy = policy;
        if (policy == RoutePolicy::kBaseline) {
          // Private scans contend for the device (per-query reader id).
          QatOptions qopts;
          qopts.disk = disk;
          qopts.reader_id = next;
          req.baseline_options = qopts;
        }
        ++next;
        auto t = engine.Execute(std::move(req));
        if (!t.ok()) std::abort();
        tickets.push_back(std::move(*t));
      }
      for (size_t i = 0; i < tickets.size();) {
        if (tickets[i]->Ready()) {
          if (!tickets[i]->Wait().ok()) std::abort();
          latency->Add(tickets[i]->ResponseSeconds());
          tickets[i] = std::move(tickets.back());
          tickets.pop_back();
          ++done;
        } else {
          ++i;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return total.ElapsedSeconds();
  };

  // ---- CJOIN: one shared always-on plan ------------------------------------
  RunningStat cjoin_latency;
  double cjoin_seconds = 0;
  {
    SimDisk disk;
    cjoin_seconds = run_phase(RoutePolicy::kCJoin, &cjoin_latency, &disk);
  }

  // ---- Query-at-a-time: private plans ---------------------------------------
  RunningStat qat_latency;
  double qat_seconds = 0;
  {
    SimDisk disk;
    qat_seconds = run_phase(RoutePolicy::kBaseline, &qat_latency, &disk);
  }

  std::printf("\n%zu ad-hoc star queries, %zu concurrent:\n", kQueries,
              kConcurrency);
  std::printf("  %-18s %8.2fs total   latency avg %6.1fms  max %6.1fms\n",
              "CJOIN (shared)", cjoin_seconds, cjoin_latency.mean() * 1e3,
              cjoin_latency.max() * 1e3);
  std::printf("  %-18s %8.2fs total   latency avg %6.1fms  max %6.1fms\n",
              "query-at-a-time", qat_seconds, qat_latency.mean() * 1e3,
              qat_latency.max() * 1e3);
  std::printf("  speedup: %.1fx\n", qat_seconds / cjoin_seconds);
  return 0;
}
