// ntadoc end-to-end benchmark: runs one workload and prints one JSON
// result line (see README.md).
//
//   ntadoc_perfbench --workload serve_mix|solo_durable|ingest_refresh
//                    --seed N --seconds S --trace 0|1 [--trace-file PATH]
//                    [--corpus-seed-c N] [--corpus-seed-d N]
//                    [--shared-cache-mb N]
//   ntadoc_perfbench --list-metrics

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s", "lower", 0.25},
      {"wall_qps", "queries/s", "higher", 0.25},
      {"wall_p50_ms", "ms", "lower", 0.25},
      {"sim_s", "s", "lower", 0.05},
      {"sim_p50_ms", "ms", "lower", 0.1},
      {"sim_p90_ms", "ms", "lower", 0.1},
      {"sim_qps", "queries/s", "higher", 0.05},
      {"peak_rss_mib", "MiB", "lower", 0.1},
      {"ingest_mb_s", "MB/s", "higher", 0.25},
      {"stored_bytes_per_raw_byte", "ratio", "lower", 0.05},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = [] {
    std::vector<MetricDef> d;
    auto add = [&d](const std::string& name, const char* unit,
                    const char* better) {
      d.push_back({name, unit, better, 0});
    };
    // nvm
    add("nvm.device_create_ms", "ms", "lower");
    add("nvm.materialize_ms", "ms", "lower");
    for (const std::string& c : SoloConfigs()) {
      add("nvm.bytes_read." + c, "bytes", "lower");
      add("nvm.bytes_written." + c, "bytes", "lower");
      add("nvm.read_misses." + c, "count", "lower");
      add("nvm.write_misses." + c, "count", "lower");
      add("nvm.flushed_lines." + c, "count", "lower");
      add("nvm.drains." + c, "count", "lower");
    }
    add("nvm.redo_logged_bytes.op_ci1", "bytes", "lower");
    add("nvm.redo_logged_bytes.op_ci8", "bytes", "lower");
    add("nvm.tier.promotions", "count", "lower");
    add("nvm.tier.demotions", "count", "lower");
    add("nvm.tier.migration_epochs", "count", "lower");
    add("nvm.tier.top_resident_bytes", "bytes", "higher");
    add("nvm.store.bytes_written", "bytes", "lower");
    add("nvm.store.flushed_lines", "count", "lower");
    add("nvm.store.drains", "count", "lower");
    add("nvm.self_ms", "ms", "lower");
    // core
    for (const std::string& c : SoloConfigs()) {
      add("core.run_ms." + c, "ms", "lower");
    }
    std::vector<std::string> phases_of = SoloConfigs();
    phases_of.push_back("serve");
    for (const std::string& c : phases_of) {
      add("core.init_wall_ms." + c, "ms", "lower");
      add("core.traversal_wall_ms." + c, "ms", "lower");
      add("core.init_sim_ms." + c, "ms", "lower");
      add("core.traversal_sim_ms." + c, "ms", "lower");
    }
    for (const char* c : {"op_ci1", "op_ci8"}) {
      add(std::string("core.epoch_commits.") + c, "count", "lower");
      add(std::string("core.coalesced_records.") + c, "count", "higher");
      add(std::string("core.coalesced_flush_lines.") + c, "count", "higher");
      add(std::string("core.group_checkpoints.") + c, "count", "lower");
    }
    add("core.shared_init_sim_ms", "ms", "higher");
    add("core.rule_cache_hits", "count", "higher");
    add("core.rule_cache_misses", "count", "lower");
    add("core.rule_cache_hit_ratio", "ratio", "higher");
    add("core.pool_used_bytes", "bytes", "lower");
    add("core.store_create_ms", "ms", "lower");
    add("core.store_reopen_ms", "ms", "lower");
    add("core.self_ms", "ms", "lower");
    // compress
    add("compress.compress_ms", "ms", "lower");
    add("compress.append_merge_ms", "ms", "lower");
    add("compress.merged_rules", "count", "lower");
    add("compress.deduped_rules", "count", "higher");
    add("compress.container_bytes", "bytes", "lower");
    add("compress.self_ms", "ms", "lower");
    // serve
    add("serve.seal_ms", "ms", "lower");
    add("serve.reseal_ms", "ms", "lower");
    add("serve.refresh_ms", "ms", "lower");
    add("serve.submit_us", "us", "lower");
    add("serve.drain_ms", "ms", "lower");
    add("serve.session_wall_ms", "ms", "lower");
    add("serve.makespan_sim_ms", "ms", "lower");
    add("serve.stolen", "count", "lower");
    add("serve.max_queue_depth", "count", "lower");
    add("serve.generations_published", "count", "higher");
    add("serve.drained_sessions", "count", "lower");
    add("serve.self_ms", "ms", "lower");
    // the harness's own spans (waves, queries, checks excluded)
    add("bench.self_ms", "ms", "lower");
    return d;
  }();
  return kDefs;
}

void Report::Wrong(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ntadoc_perfbench --workload "
               "serve_mix|solo_durable|ingest_refresh --seed N --seconds S "
               "--trace 0|1 [--trace-file PATH] [--corpus-seed-c N] "
               "[--corpus-seed-d N] [--shared-cache-mb N]\n"
               "       ntadoc_perfbench --list-metrics\n");
  return 2;
}

void ListMetrics() {
  std::printf("{\"end_to_end\": [");
  const auto& e2e = EndToEndMetrics();
  for (size_t i = 0; i < e2e.size(); ++i) {
    std::printf("%s\n  {\"name\": \"%s\", \"unit\": \"%s\", \"better\": "
                "\"%s\", \"bound\": %g}",
                i == 0 ? "" : ",", e2e[i].name.c_str(), e2e[i].unit.c_str(),
                e2e[i].better.c_str(), e2e[i].bound);
  }
  std::printf("\n],\n\"per_layer\": [");
  const auto& layer = PerLayerMetrics();
  for (size_t i = 0; i < layer.size(); ++i) {
    std::printf("%s\n  {\"name\": \"%s\", \"unit\": \"%s\", \"better\": "
                "\"%s\"}",
                i == 0 ? "" : ",", layer[i].name.c_str(),
                layer[i].unit.c_str(), layer[i].better.c_str());
  }
  std::printf("\n]}\n");
}

}  // namespace

double PeakRssMib() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Main(int argc, char** argv) {
  Options opts;
  opts.process_start_ns = NowNs();
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      ListMetrics();
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opts.workload = v;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opts.trace = v == "1";
    } else if (a == "--trace-file") {
      opts.trace_file = v;
    } else if (a == "--corpus-seed-c") {
      opts.corpus_seed_c = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--corpus-seed-d") {
      opts.corpus_seed_d = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--shared-cache-mb") {
      opts.shared_cache_mb = std::strtoll(v.c_str(), nullptr, 10);
    } else {
      return Usage();
    }
  }

  Tracer tracer(opts.trace);
  Report report;
  ntadoc::Status st;
  if (opts.workload == "serve_mix") {
    st = RunServeMix(opts, &tracer, &report);
  } else if (opts.workload == "solo_durable") {
    st = RunSoloDurable(opts, &tracer, &report);
  } else if (opts.workload == "ingest_refresh") {
    st = RunIngestRefresh(opts, &tracer, &report);
  } else {
    return Usage();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 1;
  }

  if (opts.trace) {
    if (!opts.trace_file.empty()) {
      st = tracer.WriteChromeTrace(opts.trace_file);
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                   tracer.records().size(), opts.trace_file.c_str());
    }
  }

  const auto& defs = opts.trace ? PerLayerMetrics() : EndToEndMetrics();
  const auto& values = opts.trace ? report.per_layer : report.end_to_end;
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const MetricDef& d : defs) known |= d.name == name;
    if (!known) {
      std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
      return 1;
    }
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = values.find(defs[i].name);
    if (it == values.end() && !opts.trace) {
      std::fprintf(stderr, "perfbench: workload left %s unmeasured\n",
                   defs[i].name.c_str());
      return 1;
    }
    const double v = it == values.end() ? 0.0 : it->second;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + defs[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
