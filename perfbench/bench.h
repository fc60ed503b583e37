// Shared declarations of the end-to-end benchmark: run options, the
// metric catalogue and the per-run report the workloads fill in.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "util/status.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string trace_file;
  /// Corpus seeds handed to textgen (its own defaults for C' and D').
  /// The run's --seed shuffles the order of the files and of the
  /// queries; it does not change the text.
  uint64_t corpus_seed_c = 1003;
  uint64_t corpus_seed_d = 1004;
  /// Shared decoded-rule cache of the serving workloads in MiB (0 = off;
  /// -1 = the workload's default: 16 on serve_mix, 0 on ingest_refresh).
  int64_t shared_cache_mb = -1;
  /// Process start, for the run's hard time limit.
  uint64_t process_start_ns = 0;
};

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  // "lower" or "higher"
  double bound = 0;    // end-to-end metrics only
};

/// Every end-to-end metric; each workload reports all of them.
const std::vector<MetricDef>& EndToEndMetrics();

/// Every per-layer metric; a layer a workload does not exercise reads 0.
const std::vector<MetricDef>& PerLayerMetrics();

/// Solo configurations, in run order (suffixes of per-config metrics).
inline const std::vector<std::string>& SoloConfigs() {
  static const std::vector<std::string> kConfigs = {"phase", "op_ci1",
                                                    "op_ci8", "phase_tier"};
  return kConfigs;
}

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;

  /// Records a wrong answer or a failed property check.
  void Wrong(const std::string& why);
};

/// Peak resident memory of this process so far, MiB.
double PeakRssMib();

ntadoc::Status RunServeMix(const Options& opts, Tracer* tracer,
                           Report* report);
ntadoc::Status RunSoloDurable(const Options& opts, Tracer* tracer,
                              Report* report);
ntadoc::Status RunIngestRefresh(const Options& opts, Tracer* tracer,
                                Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
