// The benchmark's workloads (see README.md for why each exists).
//
//   cjoin_mem_n128      memory-resident SSB sf 0.05, closed loop, 128 in
//                       flight through Execute (kCJoin)
//   cjoin_disk_shards4  same data on 4 shards, each behind its own
//                       16 MB/s SimDisk volume, closed loop, 128 in flight
//   wire_mixed_open     SSB sf 0.05 behind an in-process CjoinServer, open
//                       loop over 4 query connections, SQL text routed
//                       by kAuto
//
// Every workload also runs a fixed-rate ingest stream, so each reports
// the same end-to-end metrics, and every OK result is checked against
// the reference evaluator at the snapshot it reports.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured window.
  double seconds = 10.0;
  /// Traced run: an untraced and a traced pass of the same seed, each
  /// over half the window, reporting per-layer metrics.
  bool trace = false;
  /// Where the traced run writes its spans and samples ("" = nowhere).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (of the traced pass in a traced run).
  std::vector<Metric> metrics;
  /// Per-layer metrics (traced run only).
  std::vector<Metric> layers;
  /// One line per OK result that differs from the reference.
  std::vector<std::string> mismatches;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload. False (with a message on stderr) on an unknown
/// workload name or a setup failure.
bool RunWorkload(const RunOptions& opts, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
