// The three workloads. Each is a closed loop driven from this thread:
// it builds its inputs from the seed (untimed), times the program's
// set-up, computes its own reference (untimed), then repeats whole
// rounds of identical operations until --seconds of measured time have
// passed. Answer checks run between measured intervals, never inside.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "compress/format.h"
#include "compress/parallel_compress.h"
#include "core/container_store.h"
#include "core/engine.h"
#include "nvm/nvm_device.h"
#include "nvm/tiered_pool.h"
#include "serve/refresh.h"
#include "serve/serving.h"
#include "textgen/generator.h"
#include "util/random.h"

namespace perfbench {
namespace {

using ntadoc::Result;
using ntadoc::Status;
using ntadoc::compress::CompressedCorpus;
using ntadoc::compress::InputFile;
using ntadoc::core::NTadocEngine;
using ntadoc::core::NTadocOptions;
using ntadoc::core::PersistenceMode;
using ntadoc::nvm::NvmDevice;
using ntadoc::tadoc::AnalyticsOutput;
using ntadoc::tadoc::kAllTasks;
using ntadoc::tadoc::Task;

constexpr uint64_t kMiB = 1ull << 20;
// Worker plus compression threads never exceed this (the machine's
// cores the benchmark was sized on).
constexpr uint32_t kThreads = 4;
// No new round starts once the process would pass this age.
constexpr uint64_t kHardLimitNs = 140ull * 1000 * 1000 * 1000;
// Serving-queue shape. Placement is round-robin without work stealing:
// stealing follows host wall time, which would make the simulated fleet
// makespan (sim_qps) depend on machine noise.
constexpr uint32_t kServeWave = 24;       // serve_mix: each task 4 times
constexpr uint32_t kIngestWave = 12;      // ingest_refresh: each task twice
constexpr uint32_t kIngestWorkers = 2;    // + 2 refresh compression threads
constexpr size_t kIngestInitialFiles = 36;
constexpr size_t kIngestBatches = 4;
constexpr size_t kIngestBatchFiles = 5;
// Shared decoded-rule cache per serving workload. ingest_refresh runs
// without it: sessions still draining on a retired generation refill the
// cache after PublishGeneration invalidated it, and new-generation
// sessions then fail on the stale payloads (see README.md).
constexpr uint64_t kServeMixCacheMb = 16;
constexpr uint64_t kIngestCacheMb = 0;
// Compression samples behind ingest_mb_s on the workloads that compress
// only at set-up (repeated after the timed phase).
constexpr size_t kCompressMinSamples = 8;
constexpr uint64_t kCompressSampleNs = 4ull * 1000 * 1000 * 1000;
// DRAM tier over NVM for the solo phase_tier configuration.
constexpr uint64_t kTierDramBudget = 32 * kMiB;
// One solo_durable round (24 queries on D') takes about 24 s and is a
// single sample of a single-threaded loop, which the host's speed moves
// by up to a quarter from run to run; wall_qps averages at least two.
constexpr uint64_t kSoloMinRounds = 2;

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Nearest-rank percentile (p in (0, 1]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// The middle value, or the mean of the two middle values of an even
/// count: a wall median over few samples (4 refresh steps, 8 waves) then
/// rests on two measured intervals rather than one.
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double upper = v[mid];
  return (upper + *std::max_element(v.begin(), v.begin() + mid)) / 2;
}

/// Per-layer accumulator: each metric reports the mean of its samples.
class Means {
 public:
  void Add(const std::string& name, double v) {
    auto& [sum, n] = acc_[name];
    sum += v;
    ++n;
  }
  void Publish(Report* report) const {
    for (const auto& [name, sn] : acc_) {
      report->per_layer[name] = sn.first / static_cast<double>(sn.second);
    }
  }

 private:
  std::map<std::string, std::pair<double, uint64_t>> acc_;
};

/// Accumulates measured time and decides whether another round fits.
class TimedPhase {
 public:
  /// Runs at least `min_rounds` rounds, then rounds until the budget is
  /// spent; no round starts that would end past the hard limit.
  explicit TimedPhase(const Options& opts, uint64_t min_rounds = 1)
      : budget_ns_(static_cast<uint64_t>(opts.seconds * 1e9)),
        process_start_ns_(opts.process_start_ns),
        min_rounds_(min_rounds) {}

  /// Call once per round with that round's measured time.
  void Add(uint64_t ns) {
    measured_ns_ += ns;
    ++rounds_;
  }

  /// Call after each round with that round's wall time.
  bool AnotherRound(uint64_t round_wall_ns) const {
    return (rounds_ < min_rounds_ || measured_ns_ < budget_ns_) &&
           NowNs() - process_start_ns_ + round_wall_ns < kHardLimitNs;
  }

  uint64_t measured_ns() const { return measured_ns_; }
  /// Start of the timed phase, for per-layer self times.
  uint64_t start_ns() const { return start_ns_; }

 private:
  uint64_t budget_ns_;
  uint64_t process_start_ns_;
  uint64_t min_rounds_;
  uint64_t start_ns_ = NowNs();
  uint64_t measured_ns_ = 0;
  uint64_t rounds_ = 0;
};

/// C' or D' at the corpus seed, files in an order drawn from `rng`.
std::vector<InputFile> MakeCorpus(bool dataset_d, const Options& opts,
                                  ntadoc::Rng* rng) {
  ntadoc::textgen::CorpusSpec spec = dataset_d
                                         ? ntadoc::textgen::DatasetD(1.0)
                                         : ntadoc::textgen::DatasetC(1.0);
  spec.seed = dataset_d ? opts.corpus_seed_d : opts.corpus_seed_c;
  std::vector<InputFile> files = ntadoc::textgen::GenerateCorpus(spec);
  std::shuffle(files.begin(), files.end(), *rng);
  return files;
}

uint64_t RawBytes(const std::vector<InputFile>& files) {
  uint64_t total = 0;
  for (const auto& f : files) total += f.content.size();
  return total;
}

/// The CLI's device sizing rule: max(256 MiB, 48 B per token).
uint64_t SessionCapacity(const CompressedCorpus& corpus) {
  return std::max<uint64_t>(256 * kMiB,
                            corpus.grammar.ExpandedLength() * 48);
}

uint64_t CacheBytes(const Options& opts, uint64_t default_mb) {
  const uint64_t mb = opts.shared_cache_mb < 0
                          ? default_mb
                          : static_cast<uint64_t>(opts.shared_cache_mb);
  return mb * kMiB;
}

ntadoc::compress::ParallelCompressOptions CompressOpts(uint32_t threads) {
  ntadoc::compress::ParallelCompressOptions o;
  o.threads = threads;
  return o;
}

/// Compresses `files` inside a compress span; records its wall time.
Result<CompressedCorpus> TimedCompress(const std::vector<InputFile>& files,
                                       Tracer* tracer, Means* layer,
                                       uint64_t* wall_ns) {
  ntadoc::compress::ParallelCompressStats stats;
  const uint64_t t0 = NowNs();
  Result<CompressedCorpus> corpus = [&] {
    Span s(tracer, "compress.parallel_compress");
    return ntadoc::compress::ParallelCompress(files, CompressOpts(kThreads),
                                              &stats);
  }();
  *wall_ns = NowNs() - t0;
  layer->Add("compress.compress_ms", Ms(*wall_ns));
  layer->Add("compress.merged_rules", static_cast<double>(stats.merged_rules));
  layer->Add("compress.deduped_rules",
             static_cast<double>(stats.deduped_rules));
  return corpus;
}

/// Checks answers against the reference and cross-checks, per key (a
/// generation or a configuration), ranked inverted index sums against
/// sequence counts.
class AnswerChecker {
 public:
  explicit AnswerChecker(Report* report) : report_(report) {}

  void Check(const AnalyticsOutput& out, const Expected& exp, uint64_t key) {
    std::string why;
    if (!CheckAnswer(out, exp, &why)) report_->Wrong(why);
    if (out.task == Task::kWordCount &&
        !CheckWordCountTotal(out.word_counts, exp.tokens, &why)) {
      report_->Wrong(why);
    }
    if (out.task == Task::kSequenceCount) {
      seq_fp_[key] = Fingerprint(out);
    } else if (out.task == Task::kRankedInvertedIndex) {
      ranked_fp_[key] = RankedSumFingerprint(out.ranked_index);
    }
  }

  /// Runs the cross-check for every key that saw both answers.
  void Finish() {
    size_t pairs = 0;
    for (const auto& [key, fp] : seq_fp_) {
      auto it = ranked_fp_.find(key);
      if (it == ranked_fp_.end()) continue;
      ++pairs;
      std::string why;
      if (!CheckRankedMatchesSequence(it->second, fp, &why)) {
        report_->Wrong(why + "(key " + std::to_string(key) + ")");
      }
    }
    if (pairs == 0) {
      report_->Wrong("no sequence count / ranked index pair to cross-check");
    }
  }

 private:
  Report* report_;
  std::map<uint64_t, uint64_t> seq_fp_;
  std::map<uint64_t, uint64_t> ranked_fp_;
};

void CheckDecoded(const CompressedCorpus& corpus, const Reference& ref,
                  size_t files, Report* report) {
  std::string why;
  if (!CheckDecodedText(corpus, ref, files, &why)) report->Wrong(why);
}

/// One wave: the six tasks in paper order, `per_task` times over. With
/// round-robin placement every worker receives the same share of the
/// heavy n-gram tasks, so the fleet makespan measures the scheduler and
/// not the luck of the draw.
std::vector<Task> TaskMix(uint32_t per_task) {
  std::vector<Task> mix;
  for (uint32_t i = 0; i < per_task; ++i) {
    for (Task t : kAllTasks) mix.push_back(t);
  }
  return mix;
}

/// Raw MB per wall second of ParallelCompress over `files`: the median
/// of the set-up compression and repeats until kCompressSampleNs of
/// compression (at least kCompressMinSamples in all), so one cold
/// outlier does not decide the figure.
double CompressMbPerS(const std::vector<InputFile>& files, uint64_t setup_ns) {
  std::vector<double> secs = {static_cast<double>(setup_ns) / 1e9};
  uint64_t total_ns = setup_ns;
  while (secs.size() < kCompressMinSamples || total_ns < kCompressSampleNs) {
    const uint64_t t0 = NowNs();
    auto c = ntadoc::compress::ParallelCompress(files, CompressOpts(kThreads));
    const uint64_t ns = NowNs() - t0;
    total_ns += ns;
    secs.push_back(static_cast<double>(ns) / 1e9);
  }
  return static_cast<double>(RawBytes(files)) / 1e6 / Median(secs);
}

/// Traced-run probes of session materialisation: a fresh device, and a
/// device built over the sealed image (what every session pays).
void ProbeDevices(const ntadoc::serve::SealedPool& pool, Tracer* tracer,
                  Means* layer) {
  ntadoc::nvm::DeviceOptions d;
  d.capacity = pool.options.capacity;
  d.profile = pool.options.profile;
  {
    const uint64_t t0 = NowNs();
    Span s(tracer, "nvm.device_create");
    auto dev = NvmDevice::Create(d);
    layer->Add("nvm.device_create_ms", Ms(NowNs() - t0));
  }
  d.base_image = pool.image;
  {
    const uint64_t t0 = NowNs();
    Span s(tracer, "nvm.materialize");
    auto dev = NvmDevice::Create(d);
    layer->Add("nvm.materialize_ms", Ms(NowNs() - t0));
  }
}

/// Wall and sim samples of served queries.
struct ServedSamples {
  std::vector<double> sim_ms;  // per completed session
  uint64_t makespan_ns = 0;    // summed over serving engines
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

/// Checks one drained wave and folds its sessions into the samples.
void CollectWave(const ntadoc::serve::ServingEngine& server,
                 const std::vector<std::pair<uint64_t, Task>>& tickets,
                 const std::map<uint64_t, Expected>& expected,
                 AnswerChecker* checker, ServedSamples* samples, Means* layer,
                 Report* report) {
  for (const auto& [t, task] : tickets) {
    const ntadoc::serve::QueryResult& r = server.result(t);
    if (!r.status.ok()) {
      ++report->failed;
      std::fprintf(stderr, "perfbench: %s on generation %llu failed: %s\n",
                   ntadoc::tadoc::TaskToString(task),
                   static_cast<unsigned long long>(r.generation),
                   r.status.ToString().c_str());
      continue;
    }
    auto exp = expected.find(r.generation);
    if (exp == expected.end()) {
      report->Wrong("no reference for generation " +
                    std::to_string(r.generation));
      continue;
    }
    checker->Check(r.output, exp->second, r.generation);
    samples->sim_ms.push_back(Ms(r.latency_sim_ns));
    samples->cache_hits += r.info.rule_cache_hits;
    samples->cache_misses += r.info.rule_cache_misses;
    layer->Add("core.init_wall_ms.serve", Ms(r.metrics.init_wall_ns));
    layer->Add("core.traversal_wall_ms.serve",
               Ms(r.metrics.traversal_wall_ns));
    layer->Add("core.init_sim_ms.serve", Ms(r.metrics.init_sim_ns));
    layer->Add("core.traversal_sim_ms.serve", Ms(r.metrics.traversal_sim_ns));
    layer->Add("core.shared_init_sim_ms", Ms(r.metrics.shared_init_sim_ns));
    layer->Add("core.rule_cache_hits",
               static_cast<double>(r.info.rule_cache_hits));
    layer->Add("core.rule_cache_misses",
               static_cast<double>(r.info.rule_cache_misses));
    layer->Add("core.pool_used_bytes",
               static_cast<double>(r.info.pool_used_bytes));
    layer->Add("serve.session_wall_ms", Ms(r.metrics.TotalWallNs()));
  }
}

/// Submits `mix` and returns the tickets with their tasks; submit
/// latency goes to layer.
std::vector<std::pair<uint64_t, Task>> SubmitWave(
    ntadoc::serve::ServingEngine* server, const std::vector<Task>& mix,
    uint64_t* next_query, Tracer* tracer, Means* layer, Report* report) {
  std::vector<std::pair<uint64_t, Task>> tickets;
  for (Task task : mix) {
    ++report->attempted;
    ntadoc::serve::QueryRequest req;
    req.task = task;
    const uint64_t t0 = NowNs();
    Result<uint64_t> t = [&] {
      Span s(tracer, "serve.submit", static_cast<int64_t>((*next_query)++));
      return server->Submit(std::move(req));
    }();
    layer->Add("serve.submit_us", static_cast<double>(NowNs() - t0) / 1e3);
    if (t.ok()) {
      tickets.emplace_back(*t, task);
    } else {
      ++report->failed;
      std::fprintf(stderr, "perfbench: submit failed: %s\n",
                   t.status().ToString().c_str());
    }
  }
  return tickets;
}

void TimedDrain(ntadoc::serve::ServingEngine* server, Tracer* tracer,
                Means* layer) {
  const uint64_t t0 = NowNs();
  {
    Span s(tracer, "serve.drain");
    server->Drain();
  }
  layer->Add("serve.drain_ms", Ms(NowNs() - t0));
}

void AddServeStats(const ntadoc::serve::ServingEngine& server, Means* layer) {
  const ntadoc::serve::ServingStats st = server.stats();
  layer->Add("serve.makespan_sim_ms", Ms(server.makespan_sim_ns()));
  layer->Add("serve.stolen", static_cast<double>(st.stolen));
  layer->Add("serve.max_queue_depth", static_cast<double>(st.max_queue_depth));
  layer->Add("serve.generations_published",
             static_cast<double>(st.generations_published));
  layer->Add("serve.drained_sessions",
             static_cast<double>(st.drained_sessions));
}

/// Sim-clock end-to-end metrics shared by the serving workloads.
void PublishServed(const ServedSamples& s, double sim_ns_per_round,
                   Report* report) {
  report->end_to_end["sim_s"] = sim_ns_per_round / 1e9;
  report->end_to_end["sim_p50_ms"] = Percentile(s.sim_ms, 0.5);
  report->end_to_end["sim_p90_ms"] = Percentile(s.sim_ms, 0.9);
  report->end_to_end["sim_qps"] =
      static_cast<double>(s.sim_ms.size()) /
      (static_cast<double>(s.makespan_ns) / 1e9);
}

void PublishSelfTimes(const Tracer& tracer, uint64_t since_ns,
                      uint64_t rounds, Report* report) {
  if (!tracer.enabled() || rounds == 0) return;
  for (const auto& [layer, ns] : tracer.SelfTimeNs(since_ns)) {
    report->per_layer[layer + ".self_ms"] =
        Ms(ns) / static_cast<double>(rounds);
  }
}

ntadoc::serve::SealOptions PhaseSealOptions(const CompressedCorpus& corpus) {
  ntadoc::serve::SealOptions so;
  so.capacity = SessionCapacity(corpus);
  so.engine.persistence = PersistenceMode::kPhase;
  return so;
}

/// SealPool inside a serve span; records its wall time.
Result<ntadoc::serve::SealedPool> TimedSeal(
    const CompressedCorpus& corpus, const ntadoc::serve::SealOptions& so,
    Tracer* tracer, Means* layer) {
  const uint64_t t0 = NowNs();
  Span s(tracer, "serve.seal_pool");
  Result<ntadoc::serve::SealedPool> pool = ntadoc::serve::SealPool(&corpus, so);
  layer->Add("serve.seal_ms", Ms(NowNs() - t0));
  return pool;
}

/// Hit ratio of the shared rule cache over every served session.
void AddCacheHitRatio(const ServedSamples& s, Means* layer) {
  const uint64_t lookups = s.cache_hits + s.cache_misses;
  layer->Add("core.rule_cache_hit_ratio",
             lookups == 0 ? 0.0
                          : static_cast<double>(s.cache_hits) /
                                static_cast<double>(lookups));
}

}  // namespace

// ---------------------------------------------------------------------------
// serve_mix: the six-task mix on C' through SealPool + ServingEngine.
// ---------------------------------------------------------------------------

Status RunServeMix(const Options& opts, Tracer* tracer, Report* report) {
  ntadoc::Rng rng(opts.seed);
  const std::vector<InputFile> files = MakeCorpus(false, opts, &rng);
  const uint64_t raw_bytes = RawBytes(files);
  Means layer;

  const uint64_t setup0 = NowNs();
  uint64_t compress_ns = 0;
  NTADOC_ASSIGN_OR_RETURN(CompressedCorpus corpus,
                          TimedCompress(files, tracer, &layer, &compress_ns));
  NTADOC_ASSIGN_OR_RETURN(
      const ntadoc::serve::SealedPool pool,
      TimedSeal(corpus, PhaseSealOptions(corpus), tracer, &layer));
  report->end_to_end["setup_s"] = static_cast<double>(NowNs() - setup0) / 1e9;

  const Reference ref(files);
  std::map<uint64_t, Expected> expected;
  NTADOC_ASSIGN_OR_RETURN(expected[0],
                          ref.Expect(files.size(), corpus.dict, {}));
  CheckDecoded(corpus, ref, files.size(), report);
  const uint64_t container_bytes =
      ntadoc::compress::SerializeCorpus(corpus).size();
  layer.Add("compress.container_bytes", static_cast<double>(container_bytes));

  ntadoc::serve::ServingOptions sopts;
  sopts.workers = kThreads;
  sopts.queue_capacity = kServeWave;
  sopts.shared_cache_bytes = CacheBytes(opts, kServeMixCacheMb);
  sopts.work_stealing = false;
  const std::vector<Task> mix = TaskMix(kServeWave / kAllTasks.size());

  AnswerChecker checker(report);
  ServedSamples samples;
  std::vector<double> wave_ms;
  double sim_ns_sum = 0;
  uint64_t next_query = 0;
  TimedPhase phase(opts);
  for (;;) {
    ntadoc::serve::ServingEngine server(&pool, sopts);
    if (tracer->enabled()) ProbeDevices(pool, tracer, &layer);
    const uint64_t t0 = NowNs();
    std::vector<std::pair<uint64_t, Task>> tickets;
    {
      Span wave(tracer, "bench.wave");
      tickets = SubmitWave(&server, mix, &next_query, tracer, &layer, report);
      TimedDrain(&server, tracer, &layer);
    }
    const uint64_t wave_ns = NowNs() - t0;
    phase.Add(wave_ns);
    wave_ms.push_back(Ms(wave_ns));

    const size_t before = samples.sim_ms.size();
    CollectWave(server, tickets, expected, &checker, &samples, &layer, report);
    for (size_t i = before; i < samples.sim_ms.size(); ++i) {
      sim_ns_sum += samples.sim_ms[i] * 1e6;
    }
    samples.makespan_ns += server.makespan_sim_ns();
    AddServeStats(server, &layer);
    if (!phase.AnotherRound(wave_ns)) break;
  }
  checker.Finish();
  AddCacheHitRatio(samples, &layer);

  PublishServed(samples, sim_ns_sum / static_cast<double>(wave_ms.size()),
                report);
  report->end_to_end["wall_p50_ms"] = Median(wave_ms);
  // Every wave is the same work: the median wave resists a noisy one.
  report->end_to_end["wall_qps"] = kServeWave / (Median(wave_ms) / 1e3);
  // Read before the extra compressions, which are not the workload's.
  report->end_to_end["peak_rss_mib"] = PeakRssMib();
  report->end_to_end["ingest_mb_s"] = CompressMbPerS(files, compress_ns);
  report->end_to_end["stored_bytes_per_raw_byte"] =
      static_cast<double>(container_bytes) / static_cast<double>(raw_bytes);
  layer.Publish(report);
  PublishSelfTimes(*tracer, phase.start_ns(), wave_ms.size(), report);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// solo_durable: each task on D', fresh device per query, four
// persistence configurations.
// ---------------------------------------------------------------------------

Status RunSoloDurable(const Options& opts, Tracer* tracer, Report* report) {
  ntadoc::Rng rng(opts.seed);
  const std::vector<InputFile> files = MakeCorpus(true, opts, &rng);
  const uint64_t raw_bytes = RawBytes(files);
  Means layer;

  const uint64_t setup0 = NowNs();
  uint64_t compress_ns = 0;
  NTADOC_ASSIGN_OR_RETURN(CompressedCorpus corpus,
                          TimedCompress(files, tracer, &layer, &compress_ns));
  report->end_to_end["setup_s"] = static_cast<double>(NowNs() - setup0) / 1e9;

  const Reference ref(files);
  NTADOC_ASSIGN_OR_RETURN(const Expected expected,
                          ref.Expect(files.size(), corpus.dict, {}));
  CheckDecoded(corpus, ref, files.size(), report);
  const uint64_t container_bytes =
      ntadoc::compress::SerializeCorpus(corpus).size();
  layer.Add("compress.container_bytes", static_cast<double>(container_bytes));

  std::vector<NTadocOptions> configs(SoloConfigs().size());
  configs[0].persistence = PersistenceMode::kPhase;
  configs[1].persistence = PersistenceMode::kOperation;
  configs[1].commit_interval = 1;
  configs[2].persistence = PersistenceMode::kOperation;
  configs[2].commit_interval = 8;
  configs[3].persistence = PersistenceMode::kPhase;
  {
    auto tier = std::make_shared<ntadoc::nvm::TierConfig>();
    tier->tiers.push_back({ntadoc::nvm::MediumKind::kDram, kTierDramBudget});
    tier->migrate = true;
    configs[3].tiering = std::move(tier);
  }

  ntadoc::nvm::DeviceOptions dopts;
  dopts.capacity = SessionCapacity(corpus);
  dopts.profile = ntadoc::nvm::OptaneProfile();

  AnswerChecker checker(report);
  std::vector<double> wall_ms, sim_ms;
  double sim_ns_sum = 0;
  uint64_t rounds = 0;
  int64_t next_query = 0;
  TimedPhase phase(opts, kSoloMinRounds);
  for (;;) {
    const uint64_t round0 = NowNs();
    uint64_t round_measured = 0;
    for (size_t c = 0; c < configs.size(); ++c) {
      const std::string& name = SoloConfigs()[c];
      for (Task task : kAllTasks) {
        ++report->attempted;
        const int64_t qid = next_query++;
        ntadoc::tadoc::RunMetrics m;
        Result<AnalyticsOutput> out = Status::Internal("not run");
        ntadoc::core::NTadocRunInfo info;
        ntadoc::nvm::AccessStats stats;
        uint64_t sim_ns = 0;
        const uint64_t t0 = NowNs();
        uint64_t answer_ns = 0;
        {
          Span q(tracer, "bench.query", qid);
          Result<std::unique_ptr<NvmDevice>> dev = [&] {
            Span s(tracer, "nvm.device_create", qid);
            return NvmDevice::Create(dopts);
          }();
          const uint64_t created = NowNs();
          if (dev.ok()) {
            NTadocEngine engine(&corpus, dev->get(), configs[c]);
            const uint64_t r0 = NowNs();
            {
              Span s(tracer, "core.run", qid);
              out = engine.Run(task, {}, &m);
            }
            answer_ns = NowNs();
            layer.Add("core.run_ms." + name, Ms(answer_ns - r0));
            info = engine.run_info();
            stats = (*dev)->stats();
            sim_ns = (*dev)->clock().NowNanos();
          } else {
            out = dev.status();
            answer_ns = NowNs();
          }
          layer.Add("nvm.device_create_ms", Ms(created - t0));
        }
        const uint64_t query_ns = NowNs() - t0;  // incl. teardown
        round_measured += query_ns;
        if (!out.ok()) {
          ++report->failed;
          std::fprintf(stderr, "perfbench: %s/%s failed: %s\n", name.c_str(),
                       ntadoc::tadoc::TaskToString(task),
                       out.status().ToString().c_str());
          continue;
        }
        checker.Check(*out, expected, c);
        wall_ms.push_back(Ms(answer_ns - t0));
        sim_ms.push_back(Ms(sim_ns));
        sim_ns_sum += static_cast<double>(sim_ns);

        layer.Add("nvm.bytes_read." + name,
                  static_cast<double>(stats.bytes_read));
        layer.Add("nvm.bytes_written." + name,
                  static_cast<double>(stats.bytes_written));
        layer.Add("nvm.read_misses." + name,
                  static_cast<double>(stats.read_misses));
        layer.Add("nvm.write_misses." + name,
                  static_cast<double>(stats.write_misses));
        layer.Add("nvm.flushed_lines." + name,
                  static_cast<double>(stats.flushed_lines));
        layer.Add("nvm.drains." + name, static_cast<double>(stats.drains));
        layer.Add("core.init_wall_ms." + name, Ms(m.init_wall_ns));
        layer.Add("core.traversal_wall_ms." + name, Ms(m.traversal_wall_ns));
        layer.Add("core.init_sim_ms." + name, Ms(m.init_sim_ns));
        layer.Add("core.traversal_sim_ms." + name, Ms(m.traversal_sim_ns));
        layer.Add("core.pool_used_bytes",
                  static_cast<double>(info.pool_used_bytes));
        if (configs[c].persistence == PersistenceMode::kOperation) {
          layer.Add("nvm.redo_logged_bytes." + name,
                    static_cast<double>(info.redo_logged_bytes));
          layer.Add("core.epoch_commits." + name,
                    static_cast<double>(info.epoch_commits));
          layer.Add("core.coalesced_records." + name,
                    static_cast<double>(info.coalesced_records));
          layer.Add("core.coalesced_flush_lines." + name,
                    static_cast<double>(info.coalesced_flush_lines));
          layer.Add("core.group_checkpoints." + name,
                    static_cast<double>(info.group_checkpoints));
        }
        if (configs[c].tiering != nullptr) {
          layer.Add("nvm.tier.promotions",
                    static_cast<double>(info.promotions));
          layer.Add("nvm.tier.demotions", static_cast<double>(info.demotions));
          layer.Add("nvm.tier.migration_epochs",
                    static_cast<double>(info.migration_epochs));
          layer.Add("nvm.tier.top_resident_bytes",
                    static_cast<double>(info.tier_resident_bytes[0]));
        }
      }
    }
    ++rounds;
    phase.Add(round_measured);
    if (!phase.AnotherRound(NowNs() - round0)) break;
  }
  checker.Finish();

  const double queries = static_cast<double>(wall_ms.size());
  report->end_to_end["wall_qps"] =
      queries / (static_cast<double>(phase.measured_ns()) / 1e9);
  report->end_to_end["wall_p50_ms"] = Median(wall_ms);
  report->end_to_end["sim_s"] = sim_ns_sum / static_cast<double>(rounds) / 1e9;
  report->end_to_end["sim_p50_ms"] = Percentile(sim_ms, 0.5);
  report->end_to_end["sim_p90_ms"] = Percentile(sim_ms, 0.9);
  report->end_to_end["sim_qps"] = queries / (sim_ns_sum / 1e9);
  // Read before the extra compressions, which are not the workload's.
  report->end_to_end["peak_rss_mib"] = PeakRssMib();
  report->end_to_end["ingest_mb_s"] = CompressMbPerS(files, compress_ns);
  report->end_to_end["stored_bytes_per_raw_byte"] =
      static_cast<double>(container_bytes) / static_cast<double>(raw_bytes);
  layer.Publish(report);
  PublishSelfTimes(*tracer, phase.start_ns(), rounds, report);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ingest_refresh: D' split into an initial container and batches that
// arrive through CorpusRefresher::Refresh while queries are in flight.
// ---------------------------------------------------------------------------

namespace {

struct IngestStore {
  std::unique_ptr<NvmDevice> device;
  std::optional<ntadoc::core::ContainerStore> store;
};

/// A strict-persistence store device holding `corpus` as generation 1,
/// sized (like the CLI) for every batch still to come.
Result<IngestStore> CreateStore(const CompressedCorpus& corpus,
                                uint64_t pending_raw_bytes, Tracer* tracer,
                                Means* layer) {
  const uint64_t slot_bytes =
      (ntadoc::compress::SerializeCorpus(corpus).size() + pending_raw_bytes +
       8192) &
      ~63ull;
  ntadoc::core::ContainerStoreOptions csopts;
  const uint64_t region = 2 * 64 + csopts.log_bytes + 2 * slot_bytes;
  ntadoc::nvm::DeviceOptions d;
  d.capacity = region + 4096;
  d.strict_persistence = true;
  IngestStore s;
  NTADOC_ASSIGN_OR_RETURN(s.device, NvmDevice::Create(d));
  const uint64_t t0 = NowNs();
  {
    Span span(tracer, "core.store_create");
    NTADOC_ASSIGN_OR_RETURN(auto store,
                            ntadoc::core::ContainerStore::Create(
                                s.device.get(), 0, region, corpus, csopts));
    s.store.emplace(std::move(store));
  }
  layer->Add("core.store_create_ms", Ms(NowNs() - t0));
  return s;
}

/// Restarts on a fresh device holding only `device`'s persisted bytes:
/// ContainerStore::Open must recover generation `gen`, whose container
/// decodes to every raw file and answers a word count like the last
/// generation's reference.
Status ReopenAndCheck(const NvmDevice& device, uint64_t gen,
                      const Reference& ref,
                      const std::map<uint64_t, Expected>& expected,
                      const NTadocOptions& engine_opts, Tracer* tracer,
                      AnswerChecker* checker, Report* report) {
  ntadoc::nvm::DeviceOptions d;
  d.capacity = device.capacity();
  d.strict_persistence = true;
  NTADOC_ASSIGN_OR_RETURN(std::unique_ptr<NvmDevice> restarted,
                          NvmDevice::Create(d));
  restarted->LoadSnapshot(device.PersistedSnapshot());
  Span s(tracer, "core.store_reopen");
  NTADOC_ASSIGN_OR_RETURN(
      auto store, ntadoc::core::ContainerStore::Open(restarted.get(), 0));
  if (store.generation() != gen) {
    return Status::DataLoss("reopened generation " +
                            std::to_string(store.generation()) +
                            ", last acknowledged " + std::to_string(gen));
  }
  NTADOC_ASSIGN_OR_RETURN(const CompressedCorpus corpus, store.Load());
  CheckDecoded(corpus, ref, ref.num_files(), report);
  ntadoc::nvm::DeviceOptions q;
  q.capacity = SessionCapacity(corpus);
  NTADOC_ASSIGN_OR_RETURN(std::unique_ptr<NvmDevice> qdev,
                          NvmDevice::Create(q));
  NTadocEngine engine(&corpus, qdev.get(), engine_opts);
  NTADOC_ASSIGN_OR_RETURN(const AnalyticsOutput out,
                          engine.Run(Task::kWordCount));
  checker->Check(out, expected.at(gen), gen);
  return Status::OK();
}

}  // namespace

Status RunIngestRefresh(const Options& opts, Tracer* tracer, Report* report) {
  ntadoc::Rng rng(opts.seed);
  const std::vector<InputFile> files = MakeCorpus(true, opts, &rng);
  if (files.size() !=
      kIngestInitialFiles + kIngestBatches * kIngestBatchFiles) {
    return Status::Internal("unexpected D' file count " +
                            std::to_string(files.size()));
  }
  const std::vector<InputFile> initial(files.begin(),
                                       files.begin() + kIngestInitialFiles);
  std::vector<std::vector<InputFile>> batches;
  for (size_t b = 0; b < kIngestBatches; ++b) {
    auto first = files.begin() + kIngestInitialFiles + b * kIngestBatchFiles;
    batches.emplace_back(first, first + kIngestBatchFiles);
  }
  const uint64_t raw_bytes = RawBytes(files);
  const uint64_t batch_bytes = raw_bytes - RawBytes(initial);
  Means layer;

  const uint64_t setup0 = NowNs();
  uint64_t compress_ns = 0;
  NTADOC_ASSIGN_OR_RETURN(CompressedCorpus corpus,
                          TimedCompress(initial, tracer, &layer, &compress_ns));
  NTADOC_ASSIGN_OR_RETURN(IngestStore store,
                          CreateStore(corpus, batch_bytes, tracer, &layer));
  ntadoc::serve::SealOptions so = PhaseSealOptions(corpus);
  so.engine.container_generation = store.store->generation();
  NTADOC_ASSIGN_OR_RETURN(const ntadoc::serve::SealedPool pool,
                          TimedSeal(corpus, so, tracer, &layer));
  report->end_to_end["setup_s"] = static_cast<double>(NowNs() - setup0) / 1e9;

  const Reference ref(files);
  const uint64_t gen1 = store.store->generation();
  std::map<uint64_t, Expected> expected;
  NTADOC_ASSIGN_OR_RETURN(expected[gen1],
                          ref.Expect(kIngestInitialFiles, corpus.dict, {}));

  ntadoc::serve::ServingOptions sopts;
  sopts.workers = kIngestWorkers;
  sopts.queue_capacity = 2 * kIngestWave;
  sopts.shared_cache_bytes = CacheBytes(opts, kIngestCacheMb);
  sopts.work_stealing = false;
  ntadoc::serve::RefreshOptions ropts;
  ropts.compress = CompressOpts(kThreads - kIngestWorkers);
  const std::vector<Task> mix = TaskMix(kIngestWave / kAllTasks.size());

  AnswerChecker checker(report);
  ServedSamples samples;
  std::vector<double> step_ms;
  double sim_ns_sum = 0;
  uint64_t rounds = 0, refresh_ns = 0, refreshed_bytes = 0;
  uint64_t next_query = 0;
  TimedPhase phase(opts);
  for (;;) {
    const uint64_t round0 = NowNs();
    if (rounds > 0) {
      store.store.reset();
      store.device.reset();
      NTADOC_ASSIGN_OR_RETURN(store,
                              CreateStore(corpus, batch_bytes, tracer, &layer));
    }
    ntadoc::serve::ServingEngine server(&pool, sopts);
    ntadoc::serve::CorpusRefresher refresher(&*store.store, &server, ropts);
    const size_t before = samples.sim_ms.size();
    uint64_t round_measured = 0;
    size_t applied = 0;  // batches this round's refreshes acknowledged
    for (size_t b = 0; b <= kIngestBatches; ++b) {
      const bool refresh = b < kIngestBatches;
      if (refresh && tracer->enabled()) {
        // Probes: the merge and the re-seal one refresh performs.
        std::shared_ptr<const ntadoc::serve::SealedPool> cur =
            server.current_pool();
        ProbeDevices(*cur, tracer, &layer);
        ntadoc::compress::ParallelCompressStats mstats;
        uint64_t t0 = NowNs();
        Result<CompressedCorpus> merged = [&] {
          Span s(tracer, "compress.append_files");
          return ntadoc::compress::AppendFiles(*cur->corpus, batches[b],
                                               ropts.compress, &mstats);
        }();
        layer.Add("compress.append_merge_ms", Ms(NowNs() - t0));
        NTADOC_RETURN_IF_ERROR(merged.status());
        ntadoc::serve::SealOptions reseal = cur->options;
        t0 = NowNs();
        {
          Span s(tracer, "serve.seal_pool");
          NTADOC_RETURN_IF_ERROR(
              ntadoc::serve::SealPool(&*merged, reseal).status());
        }
        layer.Add("serve.reseal_ms", Ms(NowNs() - t0));
      }
      const ntadoc::nvm::AccessStats store0 = store.device->stats();
      const uint64_t t0 = NowNs();
      std::vector<std::pair<uint64_t, Task>> tickets;
      {
        Span step(tracer, "bench.wave");
        tickets = SubmitWave(&server, mix, &next_query, tracer, &layer, report);
        if (refresh) {
          ++report->attempted;
          const uint64_t r0 = NowNs();
          Status st;
          {
            Span s(tracer, "serve.refresh");
            st = refresher.Refresh(batches[b]);
          }
          const uint64_t r_ns = NowNs() - r0;
          layer.Add("serve.refresh_ms", Ms(r_ns));
          if (st.ok()) {
            ++applied;
            refresh_ns += r_ns;
            refreshed_bytes += RawBytes(batches[b]);
          } else {
            ++report->failed;
            std::fprintf(stderr, "perfbench: refresh failed: %s\n",
                         st.ToString().c_str());
          }
        }
        TimedDrain(&server, tracer, &layer);
      }
      const uint64_t step_ns = NowNs() - t0;
      round_measured += step_ns;
      if (refresh) {
        step_ms.push_back(Ms(step_ns));
        const ntadoc::nvm::AccessStats& s1 = store.device->stats();
        layer.Add("nvm.store.bytes_written",
                  static_cast<double>(s1.bytes_written - store0.bytes_written));
        layer.Add("nvm.store.flushed_lines",
                  static_cast<double>(s1.flushed_lines - store0.flushed_lines));
        layer.Add("nvm.store.drains",
                  static_cast<double>(s1.drains - store0.drains));
      }
      // Reference for the generation just published (first round only;
      // later rounds publish the same generations): the initial files
      // plus every acknowledged batch.
      const uint64_t gen = server.current_generation();
      if (expected.count(gen) == 0) {
        std::shared_ptr<const ntadoc::serve::SealedPool> cur =
            server.current_pool();
        NTADOC_ASSIGN_OR_RETURN(
            expected[gen],
            ref.Expect(kIngestInitialFiles + applied * kIngestBatchFiles,
                       cur->corpus->dict, {}));
      }
      CollectWave(server, tickets, expected, &checker, &samples, &layer,
                  report);
    }
    for (size_t i = before; i < samples.sim_ms.size(); ++i) {
      sim_ns_sum += samples.sim_ms[i] * 1e6;
    }
    samples.makespan_ns += server.makespan_sim_ns();
    AddServeStats(server, &layer);
    ++rounds;
    phase.Add(round_measured);
    if (!phase.AnotherRound(NowNs() - round0)) break;
  }
  checker.Finish();

  // The final container decodes to every raw file, and survives a
  // restart from the store device's persisted bytes alone.
  {
    Result<CompressedCorpus> live = store.store->Load();
    NTADOC_RETURN_IF_ERROR(live.status());
    CheckDecoded(*live, ref, files.size(), report);
    ++report->attempted;
    const uint64_t t0 = NowNs();
    const Status st = ReopenAndCheck(*store.device, store.store->generation(),
                                     ref, expected, so.engine, tracer,
                                     &checker, report);
    layer.Add("core.store_reopen_ms", Ms(NowNs() - t0));
    if (!st.ok()) {
      ++report->failed;
      std::fprintf(stderr, "perfbench: reopen failed: %s\n",
                   st.ToString().c_str());
    }
  }

  report->end_to_end["wall_qps"] =
      static_cast<double>(samples.sim_ms.size()) /
      (static_cast<double>(phase.measured_ns()) / 1e9);
  AddCacheHitRatio(samples, &layer);
  layer.Add("compress.container_bytes",
            static_cast<double>(store.store->container_bytes()));
  PublishServed(samples, sim_ns_sum / static_cast<double>(rounds), report);
  report->end_to_end["wall_p50_ms"] = Median(step_ms);
  report->end_to_end["peak_rss_mib"] = PeakRssMib();
  report->end_to_end["ingest_mb_s"] =
      static_cast<double>(refreshed_bytes) / 1e6 /
      (static_cast<double>(refresh_ns) / 1e9);
  report->end_to_end["stored_bytes_per_raw_byte"] =
      static_cast<double>(store.store->container_bytes()) /
      static_cast<double>(raw_bytes);
  layer.Publish(report);
  PublishSelfTimes(*tracer, phase.start_ns(), rounds, report);
  return Status::OK();
}

}  // namespace perfbench
