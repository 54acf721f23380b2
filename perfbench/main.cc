// cjoin_perfbench: runs one benchmark workload and prints its result as
// one JSON object on the last line of stdout.
//
//   cjoin_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-out PATH]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics (writing its spans and
// samples to PATH). Exits 1 without a result when any OK query result
// differs from the reference evaluator, 2 on bad arguments or a failed
// set-up.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cjoin_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\nworkloads:");
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = v;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(v);
    } else if (flag == "--trace") {
      opts.trace = std::atoi(v) != 0;
    } else if (flag == "--trace-out") {
      opts.trace_out = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opts.workload.empty() || !(opts.seconds > 0)) {
    return Usage();
  }

  perfbench::Report report;
  if (!perfbench::RunWorkload(opts, &report)) return 2;
  if (!report.mismatches.empty()) {
    for (const std::string& m : report.mismatches) {
      std::fprintf(stderr, "MISMATCH %s\n", m.c_str());
    }
    return 1;
  }

  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  const std::vector<perfbench::Metric>& metrics =
      opts.trace ? report.layers : report.metrics;
  for (size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
