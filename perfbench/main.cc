// kqr_perfbench: the repo benchmark. One run sets up one workload three
// times and times one untraced slice after each set-up; with --trace 1 it
// then replays the last slice's requests through the public layer entry
// points with spans around every call, reporting where each request's
// time went.
//
//   kqr_perfbench --workload <server_mapped|fleet_short>
//                 --seed N --seconds S --trace <0|1>
//                 [--work-dir DIR] [--spans-out FILE]
//
// Workloads (all over the default DBLP corpus, 15k tuples, corpus seed
// 42; the workload seed drives query sampling and arrivals):
//   server_mapped  open loop, Poisson arrivals at a fixed rate into a
//                  kqr::Server (2 workers) over a model opened with
//                  ServingModel::OpenMapped from a v3 file written during
//                  set-up; 1–8 keywords.
//   fleet_short    closed loop, one ShardRouter thread sending
//                  ReformulateBatch calls of 64 one-keyword queries to a
//                  fleet of 2 shard groups × 1 replica of kqr_shardd
//                  (1 worker each, all opening the same v3 file) on
//                  loopback.
//
// Every answer, timed or replayed, is compared against a serial
// single-thread reference fingerprint computed during set-up; any
// mismatch or error fails the run (exit code 1). The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}, with
// the end-to-end metrics untraced and the per-layer metrics traced.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "eval/experiment.h"  // DBLP corpus generator + query sampler
#include "harness.h"
#include "kqr.h"
#include "shardd_harness.h"  // spawns kqr_shardd (KQR_SHARDD_PATH)

namespace kqr::perfbench {
namespace {

constexpr size_t kTopK = 10;
/// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 3;
/// Distinct queries in the server_mapped pool.
constexpr size_t kPoolSize = 2000;
constexpr size_t kServerWorkers = 2;
/// server_mapped arrival rate. A 2-worker Server over the mapped model
/// has a capacity near 8k req/s (2 workers / ~240 us of service per
/// request, traced) on a quiet 4-vCPU VM, but on a shared host the
/// service time of this memory-bound pipeline swings up to 2.5x for
/// minutes at a time, and at 1500/s such a spell pushed the Server past
/// 60% busy and its p99 from ~1.4 ms to ~9 ms. At this rate it stays
/// below ~45% busy even then, so queueing shows without blowing up.
constexpr double kOfferedRate = 1000.0;
constexpr size_t kFleetGroups = 2;
/// One replica per group: with 2 x 2, nine busy threads share four vCPUs
/// and the batch p99 spread across runs doubles (0.18 -> 0.53 IQR/median
/// over five seeds). Failover needs replicas; this workload measures hops.
constexpr size_t kFleetReplicas = 1;
constexpr size_t kShardWorkers = 1;
constexpr size_t kBatchQueries = 64;
constexpr double kBatchDeadlineSeconds = 10.0;
/// Timed fleet batches slower than this multiple of the median are
/// "slow". An unwarmed replica makes the first batches of a slice pay its
/// one-off costs, so more than kMaxEarlySlowBatches slow batches among the
/// first kEarlyBatches of any slice fail the run. Lazily prepared
/// replicas put 11–14 of the first 32 over the line. 5–40 ms vCPU stalls
/// come in spells on a shared VM, hitting up to 0.5% of a slice's batches
/// and, right after set-up, sometimes two of the first 32: up to three
/// early slow batches are tolerated, and up to kMaxSlowBatchShare of all.
constexpr double kMaxBatchOverMedian = 10.0;
constexpr size_t kEarlyBatches = 32;
constexpr size_t kMaxEarlySlowBatches = 3;
constexpr double kMaxSlowBatchShare = 0.02;

enum class Workload { kServerMapped, kFleetShort };

/// End-to-end figures are medians over windows of at least this many
/// samples (requests; batches on fleet_short), about one second each on
/// a quiet 4-vCPU VM. server_mapped's is a little under 1.5 s of
/// arrivals, so that a slice's Poisson count, a few percent either way,
/// still fills the same number of windows.
size_t WindowSamples(Workload workload) {
  switch (workload) {
    case Workload::kServerMapped:
      return 1400;
    case Workload::kFleetShort:
      return 2000;
  }
  return 0;
}

struct Args {
  std::string workload_name;
  Workload workload = Workload::kServerMapped;
  uint64_t seed = 1;
  double seconds = 5.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string spans_out;
};

const char* BuildType() {
#ifdef KQR_PERFBENCH_BUILD_TYPE
  return KQR_PERFBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

const char* Compiler() {
#ifdef __clang__
  return "clang " __clang_version__;
#else
  return "gcc " __VERSION__;
#endif
}

EngineOptions BenchEngineOptions() {
  EngineOptions options;
  options.precompute_offline = true;
  return options;
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

// -- Set-up ------------------------------------------------------------------

/// Per-layer set-up costs of one set-up pass.
struct LayerTimes {
  double datagen_s = 0.0;
  double build_s = 0.0;
  double similarity_s = 0.0;
  double closeness_s = 0.0;
  double index_s = 0.0;
  double save_s = 0.0;
  double model_bytes = 0.0;
  double open_s = 0.0;
};

struct Setup {
  std::shared_ptr<const ServingModel> model;  // the served representation
  std::vector<std::vector<TermId>> pool;
  std::vector<uint64_t> reference;  // serial fingerprint per pool query
  std::unique_ptr<Server> server;          // server_mapped
  std::vector<ShardProcess> shards;        // fleet_short
  std::unique_ptr<ShardRouter> router;     // fleet_short
  LayerTimes layers;
  double seconds = 0.0;
};

Result<DblpCorpus> TimedCorpus(LayerTimes* layers) {
  const int64_t start = NowNs();
  auto corpus = GenerateDblp(DblpOptions{});
  layers->datagen_s += SecondsSince(start);
  return corpus;
}

Result<std::shared_ptr<const ServingModel>> BuildEager(LayerTimes* layers) {
  KQR_ASSIGN_OR_RETURN(DblpCorpus corpus, TimedCorpus(layers));
  const int64_t start = NowNs();
  KQR_ASSIGN_OR_RETURN(
      std::shared_ptr<const ServingModel> model,
      EngineBuilder(BenchEngineOptions()).Build(std::move(corpus.db)));
  layers->build_s = SecondsSince(start);
  for (const TraceSpan& span : model->build_trace().spans()) {
    const std::string name = span.name;
    if (name == "similarity-index") {
      layers->similarity_s += span.duration_seconds;
    } else if (name == "closeness-index") {
      layers->closeness_s += span.duration_seconds;
    } else if (name == "inverted-index" || name == "tat-graph" ||
               name == "graph-stats") {
      layers->index_s += span.duration_seconds;
    }
  }
  return model;
}

/// Saves `model` as a v3 file at `path` and reopens it mapped over a
/// regenerated corpus.
Result<std::shared_ptr<const ServingModel>> SaveAndOpen(
    const ServingModel& model, const std::string& path, LayerTimes* layers) {
  int64_t start = NowNs();
  KQR_RETURN_NOT_OK(EngineBuilder::SaveModel(model, path));
  layers->save_s = SecondsSince(start);
  std::error_code ec;
  layers->model_bytes =
      static_cast<double>(std::filesystem::file_size(path, ec));
  if (ec) return Status::IOError("cannot stat " + path);
  KQR_ASSIGN_OR_RETURN(DblpCorpus corpus, TimedCorpus(layers));
  start = NowNs();
  KQR_ASSIGN_OR_RETURN(std::shared_ptr<const ServingModel> mapped,
                       ServingModel::OpenMapped(std::move(corpus.db), path,
                                                BenchEngineOptions()));
  layers->open_s = SecondsSince(start);
  return mapped;
}

Result<std::vector<std::vector<TermId>>> SamplePool(const ServingModel& model,
                                                    Workload workload,
                                                    uint64_t seed) {
  std::vector<std::vector<TermId>> pool;
  if (workload == Workload::kFleetShort) {
    // One-keyword queries: every vocabulary term once.
    for (TermId t = 0; t < model.vocab().size(); ++t) pool.push_back({t});
    return pool;
  }
  QuerySampler sampler(model, seed);
  Rng lengths(seed ^ 0x5bd1e995ULL);
  std::set<std::vector<TermId>> seen;
  for (size_t attempts = 0; pool.size() < kPoolSize; ++attempts) {
    if (attempts > 50 * kPoolSize) {
      return Status::Internal("cannot sample enough distinct queries");
    }
    std::vector<TermId> q =
        sampler.SampleQuery(static_cast<size_t>(lengths.NextInt(1, 8)));
    if (seen.insert(q).second) pool.push_back(std::move(q));
  }
  return pool;
}

Result<std::vector<uint64_t>> SerialReference(
    const ServingModel& model, const std::vector<std::vector<TermId>>& pool) {
  std::vector<uint64_t> reference;
  reference.reserve(pool.size());
  RequestContext ctx;
  for (const auto& q : pool) {
    KQR_ASSIGN_OR_RETURN(std::vector<ReformulatedQuery> ranking,
                         model.ReformulateTerms(q, kTopK, &ctx));
    reference.push_back(Fingerprint(ranking));
  }
  return reference;
}

Status CheckAnswer(const ServeResult& result, uint64_t expected) {
  if (!result.ok()) return result.status();
  if (Fingerprint(*result) != expected) {
    return Status::Internal("answer differs from the serial reference");
  }
  return Status::OK();
}

/// Submits bursts wide enough that every worker dequeues batches (and
/// grows its RequestContext) before timing starts.
Status WarmServer(Setup* s) {
  ServerOptions options;
  options.num_workers = kServerWorkers;
  KQR_ASSIGN_OR_RETURN(s->server, Server::Create(s->model, options));
  for (size_t round = 0; round < 4; ++round) {
    std::vector<std::future<ServeResult>> futures;
    std::vector<size_t> picks;
    for (size_t i = 0; i < 128; ++i) {
      const size_t idx = (round * 128 + i) % s->pool.size();
      ServerRequest request;
      request.terms = s->pool[idx];
      request.k = kTopK;
      futures.push_back(s->server->Submit(std::move(request)));
      picks.push_back(idx);
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      KQR_RETURN_NOT_OK(CheckAnswer(futures[i].get(), s->reference[picks[i]]));
    }
  }
  return Status::OK();
}

/// Queries served by one replica so far, scraped from its stats JSON.
Result<uint64_t> ReplicaQueries(ShardRouter* router, ReplicaRef ref) {
  KQR_ASSIGN_OR_RETURN(std::string json,
                       router->Stats(ref, Deadline::After(5.0)));
  const std::string key = "\"kqr_shard_queries_total\": ";
  const size_t at = json.find(key);
  if (at == std::string::npos) {
    return Status::Corruption("stats JSON lacks kqr_shard_queries_total");
  }
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

Status StartFleet(Setup* s, const std::string& model_path) {
  // Started one after another from this thread: kqr_shardd arms
  // PR_SET_PDEATHSIG, which fires when the thread that forked it exits.
  const size_t replicas = kFleetGroups * kFleetReplicas;
  s->shards.resize(replicas);
  FleetTopology topology;
  topology.groups.resize(kFleetGroups);
  for (size_t i = 0; i < replicas; ++i) {
    if (!s->shards[i].Start({"--model", model_path, "--workers",
                             std::to_string(kShardWorkers)})) {
      return Status::Unavailable("kqr_shardd did not start");
    }
    ShardAddress address;
    address.port = s->shards[i].port();
    topology.groups[i / kFleetReplicas].push_back(address);
  }
  KQR_ASSIGN_OR_RETURN(s->router, ShardRouter::Connect(std::move(topology)));

  // Warm every replica of every group: batches round-robin their
  // sub-batches across a group's replicas, so keep sending until each
  // replica reports served queries (and a few batches more).
  Rng rng(0x3c6ef372ULL);
  for (size_t round = 0; round < 64; ++round) {
    for (size_t b = 0; b < 8; ++b) {
      std::vector<std::vector<TermId>> batch;
      std::vector<size_t> picks;
      for (size_t j = 0; j < kBatchQueries; ++j) {
        picks.push_back(rng.NextBounded(s->pool.size()));
        batch.push_back(s->pool[picks.back()]);
      }
      std::vector<ServeResult> results = s->router->ReformulateBatch(
          batch, kTopK, Deadline::After(kBatchDeadlineSeconds));
      for (size_t j = 0; j < results.size(); ++j) {
        KQR_RETURN_NOT_OK(CheckAnswer(results[j], s->reference[picks[j]]));
      }
    }
    bool all_warm = true;
    for (size_t g = 0; g < kFleetGroups; ++g) {
      for (size_t r = 0; r < kFleetReplicas; ++r) {
        KQR_ASSIGN_OR_RETURN(uint64_t served,
                             ReplicaQueries(s->router.get(), {g, r}));
        all_warm = all_warm && served >= 4 * kBatchQueries;
      }
    }
    if (all_warm) return Status::OK();
  }
  return Status::Unavailable("a fleet replica never served warm-up traffic");
}

/// One set-up pass. `reference` is the serial fingerprint of every pool
/// query; the first pass computes it (every pass samples the same pool)
/// and that harness-only work is left out of the pass's set-up time.
Result<std::unique_ptr<Setup>> RunSetup(const Args& args,
                                        std::vector<uint64_t>* reference) {
  int64_t start = NowNs();
  auto s = std::make_unique<Setup>();
  KQR_ASSIGN_OR_RETURN(std::shared_ptr<const ServingModel> eager,
                       BuildEager(&s->layers));
  KQR_ASSIGN_OR_RETURN(s->pool, SamplePool(*eager, args.workload, args.seed));
  if (reference->empty()) {
    // From the eager model even where the mapped one serves: this also
    // pins mapped == eager.
    const int64_t reference_start = NowNs();
    KQR_ASSIGN_OR_RETURN(*reference, SerialReference(*eager, s->pool));
    start += NowNs() - reference_start;
  }
  s->reference = *reference;
  const std::string model_path = args.work_dir + "/model.kqrm";
  KQR_ASSIGN_OR_RETURN(s->model, SaveAndOpen(*eager, model_path, &s->layers));
  eager.reset();
  switch (args.workload) {
    case Workload::kServerMapped:
      KQR_RETURN_NOT_OK(WarmServer(s.get()));
      break;
    case Workload::kFleetShort:
      KQR_RETURN_NOT_OK(StartFleet(s.get(), model_path));
      break;
  }
  s->seconds = SecondsSince(start);
  return s;
}

// -- Timed phase -------------------------------------------------------------

/// Pool picks of fleet_short batches: a pure function of the workload
/// seed, so the replay can regenerate them instead of the timed phase
/// storing them.
Rng BatchPicks(uint64_t seed) { return Rng(seed ^ 0x85ebca6bULL); }

/// A generous fleet batch rate (batches/s) for sizing the timed buffer.
constexpr double kMaxBatchRate = 10000.0;

size_t SampleCapacity(double seconds, double rate) {
  return static_cast<size_t>(seconds * rate);
}

/// An empty sample buffer whose pages are already touched, so the
/// harness's own share of peak_rss_mb does not depend on how many
/// requests a run managed to send.
std::vector<Sample> SampleBuffer(size_t capacity) {
  std::vector<Sample> buffer(capacity);
  buffer.clear();
  return buffer;
}

/// What one untraced timed slice measured, plus what the traced replay
/// needs.
struct Timed {
  uint64_t seed = 0;  // the slice's seed: picks and arrivals derive from it
  size_t attempted = 0;  // requests (queries on fleet_short)
  size_t failed = 0;
  double wall_s = 0.0;  // start to the last answer
  /// One sample per request (per batch on fleet_short), in send order;
  /// the interval is the planned one.
  SampleSlice slice;
  /// Pool indices in send order, one list: requests (server_mapped) or
  /// batches flattened (fleet_short). Only server_mapped fills it while
  /// timing; RegeneratePicks fills fleet_short's for the replay, so the
  /// timed phase's footprint does not grow with its throughput.
  std::vector<std::vector<size_t>> sequence;
  // server_mapped
  std::vector<double> submit_to_done_us;
  std::vector<double> lateness_us;
  double mean_batch = 0.0;
  double shed = 0.0;
  // fleet_short
  RouterStats router_delta;
  size_t slow_batches = 0;  // over kMaxBatchOverMedian x the median
  double max_batch_ratio = 0.0;
  std::string error;  // a reason the run is wrong beyond answer mismatches
};

Timed RunServerMapped(Setup* s, uint64_t seed, double seconds) {
  Timed t;
  t.seed = seed;
  OpenLoop loop(PoissonSchedule(seed, kOfferedRate, seconds));
  const size_t n = loop.size();
  Rng rng(seed ^ 0x9e3779b9ULL);
  std::vector<size_t> picks(n);
  for (size_t& idx : picks) idx = rng.NextBounded(s->pool.size());
  std::vector<uint8_t> ok(n, 0);

  const MetricsSnapshot before = s->model->MetricsNow();
  loop.Run([&](size_t i) {
    ServerRequest request;
    request.terms = s->pool[picks[i]];
    request.k = kTopK;
    s->server->Submit(std::move(request), [&, i](ServeResult result) {
      ok[i] = CheckAnswer(result, s->reference[picks[i]]).ok() ? 1 : 0;
      loop.Complete(i);
    });
  });
  loop.WaitAll();
  const MetricsSnapshot after = s->model->MetricsNow();

  t.slice.start_ns = loop.start_ns();
  t.slice.end_ns = t.slice.start_ns + static_cast<int64_t>(seconds * 1e9);
  int64_t last_done = t.slice.start_ns;
  t.slice.streams.push_back(SampleBuffer(n));
  for (size_t i = 0; i < n; ++i) {
    // Open loop: a request's latency and window run from its due time.
    t.slice.streams[0].push_back(
        {loop.due_ns(i), static_cast<float>(loop.LatencyUs(i)), ok[i]});
    t.lateness_us.push_back(loop.LatenessUs(i));
    t.submit_to_done_us.push_back(
        static_cast<double>(loop.done_ns(i) - loop.sent_ns(i)) / 1e3);
    last_done = std::max(last_done, loop.done_ns(i));
    if (ok[i] == 0) ++t.failed;
  }
  t.attempted = n;
  t.wall_s = static_cast<double>(last_done - t.slice.start_ns) / 1e9;
  t.sequence.push_back(std::move(picks));
  const HistogramSnapshot* batch_after =
      after.Histogram("kqr_server_batch_size");
  const HistogramSnapshot* batch_before =
      before.Histogram("kqr_server_batch_size");
  if (batch_after != nullptr && batch_before != nullptr) {
    t.mean_batch = HistogramDelta(*batch_after, *batch_before).Mean();
  }
  t.shed = static_cast<double>(after.CounterValue("kqr_server_shed_total") -
                               before.CounterValue("kqr_server_shed_total"));
  return t;
}

Timed RunFleetShort(Setup* s, uint64_t seed, double seconds) {
  Timed t;
  t.seed = seed;
  t.slice.streams.push_back(
      SampleBuffer(SampleCapacity(seconds, kMaxBatchRate)));
  std::vector<Sample>& batches = t.slice.streams[0];
  Rng rng = BatchPicks(seed);
  const RouterStats before = s->router->stats();
  t.slice.start_ns = NowNs();
  t.slice.end_ns = t.slice.start_ns + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::vector<TermId>> batch(kBatchQueries);
  std::vector<size_t> picks(kBatchQueries);
  while (NowNs() < t.slice.end_ns) {
    for (size_t j = 0; j < kBatchQueries; ++j) {
      picks[j] = rng.NextBounded(s->pool.size());
      batch[j] = s->pool[picks[j]];
    }
    Sample sample;
    sample.start_ns = NowNs();
    std::vector<ServeResult> results = s->router->ReformulateBatch(
        batch, kTopK, Deadline::After(kBatchDeadlineSeconds));
    sample.latency_us = static_cast<float>(NowNs() - sample.start_ns) / 1e3F;
    for (size_t j = 0; j < kBatchQueries; ++j) {
      if (CheckAnswer(results[j], s->reference[picks[j]]).ok()) {
        ++sample.correct;
      }
    }
    t.attempted += kBatchQueries;
    t.failed += kBatchQueries - sample.correct;
    batches.push_back(sample);
  }
  t.wall_s = SecondsSince(t.slice.start_ns);
  const RouterStats after = s->router->stats();
  t.router_delta.batches = after.batches - before.batches;
  t.router_delta.scatters = after.scatters - before.scatters;
  t.router_delta.failovers = after.failovers - before.failovers;
  t.router_delta.reconnects = after.reconnects - before.reconnects;
  if (t.router_delta.failovers != 0 || t.router_delta.reconnects != 0) {
    t.error = "fleet failovers/reconnects during the timed phase";
  }
  std::vector<double> latencies;
  for (const Sample& sample : batches) latencies.push_back(sample.latency_us);
  const SlowBatches slow =
      CountSlowBatches(latencies, kMaxBatchOverMedian, kEarlyBatches);
  t.slow_batches = slow.total;
  t.max_batch_ratio = slow.max_ratio;
  std::printf("# fleet: %zu of %zu batches (%zu of the first %zu) over %gx "
              "the median %.1f us; slowest %.2fx\n",
              slow.total, latencies.size(), slow.early, kEarlyBatches,
              kMaxBatchOverMedian, slow.median, slow.max_ratio);
  if (slow.early > kMaxEarlySlowBatches) {
    t.error = std::to_string(slow.early) + " of the first " +
              std::to_string(kEarlyBatches) +
              " timed batches took over 10x the median (unwarmed replica?)";
  } else if (static_cast<double>(slow.total) >
             kMaxSlowBatchShare * static_cast<double>(latencies.size())) {
    t.error = "more than 2% of timed batches took over 10x the median";
  }
  return t;
}

// -- Traced replay -----------------------------------------------------------

/// Fills fleet_short's timed->sequence for the replay from the batch
/// pick stream.
void RegeneratePicks(const Setup& s, Timed* timed) {
  timed->sequence.assign(1, {});
  Rng rng = BatchPicks(timed->seed);
  const size_t picks = timed->slice.streams[0].size() * kBatchQueries;
  for (size_t i = 0; i < picks; ++i) {
    timed->sequence[0].push_back(rng.NextBounded(s.pool.size()));
  }
}

struct Traced {
  size_t attempted = 0;
  size_t failed = 0;
  double wall_s = 0.0;
  size_t requests = 0;  // replayed requests (batches on fleet_short)
  SpanRecorder spans;
  StageCounters counters;
  size_t queries = 0;  // replayed reformulations
  // server_mapped: service time per request, in send order, and the
  // wall time of the same requests served untraced
  std::vector<double> service_us;
  double untraced_wall_s = 0.0;
  // fleet_short, per batch
  std::vector<double> encode_us, decode_us, service_total_us, slowest_us;
  double wire_bytes = 0.0;
  std::vector<double> group_queries;
};

/// Replays pool queries `seq` on one thread through ReplayReformulate.
void ReplaySequence(const Setup& s, const std::vector<size_t>& seq,
                    uint64_t request_base, SpanRecorder* recorder,
                    StageCounters* counters, std::vector<double>* service_us,
                    size_t* failed) {
  ReplayScratch scratch;
  for (size_t i = 0; i < seq.size(); ++i) {
    const int64_t start = NowNs();
    auto result = ReplayReformulate(*s.model, s.pool[seq[i]], kTopK, &scratch,
                                    recorder, request_base + i, counters);
    if (service_us != nullptr) {
      service_us->push_back(static_cast<double>(NowNs() - start) / 1e3);
    }
    if (!CheckAnswer(result, s.reference[seq[i]]).ok()) ++*failed;
  }
}

/// Serves the timed requests once untraced (ServingModel::ReformulateTerms)
/// and once traced, one after the other on this thread, so that the two
/// wall times compare the same work with and without spans.
Traced ReplayServer(const Setup& s, const Timed& timed) {
  Traced tr;
  RequestContext ctx;
  int64_t start = NowNs();
  for (size_t idx : timed.sequence[0]) {
    if (!CheckAnswer(s.model->ReformulateTerms(s.pool[idx], kTopK, &ctx),
                     s.reference[idx])
             .ok()) {
      ++tr.failed;
    }
  }
  tr.untraced_wall_s = SecondsSince(start);
  start = NowNs();
  ReplaySequence(s, timed.sequence[0], 0, &tr.spans, &tr.counters,
                 &tr.service_us, &tr.failed);
  tr.wall_s = SecondsSince(start);
  tr.requests = tr.queries = timed.sequence[0].size();
  tr.attempted = 2 * tr.queries;
  return tr;
}

/// Replays each timed batch as the router and shards process it: the
/// router's partition and sub-batch encode, each sub-batch's in-process
/// service on the same mapped model, and the response decode.
Traced ReplayFleet(const Setup& s, const Timed& timed) {
  Traced tr;
  tr.group_queries.assign(kFleetGroups, 0.0);
  const std::vector<size_t>& flat = timed.sequence[0];
  const size_t batches = flat.size() / kBatchQueries;
  const size_t subbatch = RouterOptions{}.subbatch_queries;
  ReplayScratch scratch;
  uint64_t query_id = 0;
  const int64_t start = NowNs();
  for (size_t b = 0; b < batches; ++b) {
    ScopedSpan batch_span(&tr.spans, "batch", b);
    const size_t* picks = flat.data() + b * kBatchQueries;

    // Router: partition by owner group, chunk, encode request frames.
    std::vector<std::vector<size_t>> chunks;  // positions within the batch
    std::vector<size_t> chunk_group;
    std::vector<std::string> wires;
    int64_t t0 = NowNs();
    {
      ScopedSpan span(&tr.spans, "net.encode", b);
      std::vector<std::vector<size_t>> by_group(kFleetGroups);
      for (size_t j = 0; j < kBatchQueries; ++j) {
        by_group[OwnerShard(s.pool[picks[j]], kFleetGroups)].push_back(j);
      }
      for (size_t g = 0; g < kFleetGroups; ++g) {
        const std::vector<size_t>& owned = by_group[g];
        for (size_t pos = 0; pos < owned.size(); pos += subbatch) {
          const size_t stop = std::min(pos + subbatch, owned.size());
          chunks.emplace_back(owned.begin() + static_cast<ptrdiff_t>(pos),
                              owned.begin() + static_cast<ptrdiff_t>(stop));
          chunk_group.push_back(g);
          ReformulateRequest request;
          request.request_id = chunks.size();
          request.k = kTopK;
          for (size_t j : chunks.back()) {
            request.queries.push_back(s.pool[picks[j]]);
          }
          std::string wire;
          EncodeFrame(FrameType::kReformulateRequest,
                      EncodeReformulateRequest(request), &wire);
          wires.push_back(std::move(wire));
        }
        tr.group_queries[g] += static_cast<double>(owned.size());
      }
    }
    tr.encode_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    for (const std::string& wire : wires) {
      tr.wire_bytes += static_cast<double>(wire.size());
    }

    // Shards: serve each sub-batch in process; encode its response
    // (untimed: only the router-side decode is a router layer).
    std::vector<double> group_service(kFleetGroups, 0.0);
    std::vector<std::string> payloads;
    double service_total = 0.0;
    for (size_t c = 0; c < chunks.size(); ++c) {
      ReformulateResponse response;
      response.request_id = c + 1;
      t0 = NowNs();
      {
        ScopedSpan span(&tr.spans, "shard.service", b);
        for (size_t j : chunks[c]) {
          response.results.push_back(
              ReplayReformulate(*s.model, s.pool[picks[j]], kTopK, &scratch,
                                &tr.spans, query_id++, &tr.counters));
        }
      }
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      service_total += us;
      group_service[chunk_group[c]] += us;
      payloads.push_back(EncodeReformulateResponse(response));
      tr.wire_bytes +=
          static_cast<double>(payloads.back().size() + kFrameHeaderBytes);
    }
    tr.service_total_us.push_back(service_total);
    // Replicas of a group serve its sub-batches in parallel.
    double slowest = 0.0;
    for (double g : group_service) {
      slowest = std::max(slowest, g / static_cast<double>(kFleetReplicas));
    }
    tr.slowest_us.push_back(slowest);

    // Router: decode the responses and check every answer.
    std::vector<Result<ReformulateResponse>> decoded;
    t0 = NowNs();
    {
      ScopedSpan span(&tr.spans, "net.decode", b);
      for (const std::string& payload : payloads) {
        decoded.push_back(DecodeReformulateResponse(std::as_bytes(
            std::span<const char>(payload.data(), payload.size()))));
      }
    }
    tr.decode_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    for (size_t c = 0; c < chunks.size(); ++c) {
      for (size_t pos = 0; pos < chunks[c].size(); ++pos) {
        ++tr.attempted;
        const uint64_t expected = s.reference[picks[chunks[c][pos]]];
        if (!decoded[c].ok() ||
            decoded[c]->results.size() != chunks[c].size() ||
            !CheckAnswer(decoded[c]->results[pos], expected).ok()) {
          ++tr.failed;
        }
      }
    }
    tr.queries += kBatchQueries;
  }
  tr.wall_s = SecondsSince(start);
  tr.requests = batches;
  return tr;
}

// -- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-26s %16s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// p-th percentile value, or a failed status (too few tail samples).
Result<double> Pct(const std::vector<double>& samples, double q) {
  KQR_ASSIGN_OR_RETURN(Percentile p, ExactPercentile(samples, q));
  return p.value;
}

void PrintEnvironment(const Args& args, const Setup& s) {
  std::printf(
      "# env {\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"corpus\": {\"generator\": \"dblp\", \"tuples\": %zu, \"terms\": "
      "%zu, \"authors\": %zu, \"papers\": %zu, \"venues\": %zu, \"seed\": "
      "%llu}, \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"pool\": %zu, \"server_workers\": %zu, "
      "\"offered_rate\": %g, \"fleet\": \"%zux%zu\", "
      "\"shard_workers\": %zu, \"batch_queries\": %zu, "
      "\"setup_repeats\": %d}\n",
      std::thread::hardware_concurrency(), BuildType(), Compiler(),
      s.model->db().TotalRows(), s.model->vocab().size(),
      DblpOptions{}.num_authors, DblpOptions{}.num_papers,
      DblpOptions{}.num_venues,
      static_cast<unsigned long long>(DblpOptions{}.seed),
      args.workload_name.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, s.pool.size(), kServerWorkers,
      kOfferedRate, kFleetGroups, kFleetReplicas, kShardWorkers,
      kBatchQueries, kSetupRepeats);
}

LayerTimes MedianLayers(const std::vector<LayerTimes>& runs) {
  const auto med = [&](double LayerTimes::*field) {
    std::vector<double> v;
    for (const LayerTimes& r : runs) v.push_back(r.*field);
    return Median(v);
  };
  LayerTimes m;
  for (double LayerTimes::*field :
       {&LayerTimes::datagen_s, &LayerTimes::build_s, &LayerTimes::similarity_s,
        &LayerTimes::closeness_s, &LayerTimes::index_s, &LayerTimes::save_s,
        &LayerTimes::model_bytes, &LayerTimes::open_s}) {
    m.*field = med(field);
  }
  return m;
}

std::vector<Metric> LayerMetrics(const Args& args, const LayerTimes& layers,
                                 const Timed& timed, const Traced& tr,
                                 std::string* error) {
  std::vector<Metric> m;
  m.push_back({"datagen.s", layers.datagen_s, "s"});
  m.push_back({"build.s", layers.build_s, "s"});
  m.push_back({"build.similarity_s", layers.similarity_s, "s"});
  m.push_back({"build.closeness_s", layers.closeness_s, "s"});
  m.push_back({"build.index_s", layers.index_s, "s"});
  m.push_back({"model_file.save_s", layers.save_s, "s"});
  m.push_back({"model_file.bytes", layers.model_bytes, "bytes"});
  m.push_back({"model_file.open_s", layers.open_s, "s"});

  // Pipeline stages: self time per reformulation.
  const auto totals = TotalsByName(tr.spans.spans());
  const auto self_us = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : static_cast<double>(it->second.self_ns) / 1e3;
  };
  const double q = static_cast<double>(std::max<size_t>(tr.queries, 1));
  const double cand = self_us("candidates") / q;
  const double hmm = self_us("hmm") / q;
  const double dec = self_us("decode") / q;
  const auto request_it = totals.find("request");
  const double request_wall =
      request_it == totals.end()
          ? 0.0
          : static_cast<double>(request_it->second.wall_ns) / 1e3 / q;
  const double cells = static_cast<double>(tr.counters.cells) / q;
  m.push_back({"candidates.us", cand, "us"});
  m.push_back({"candidates.states",
               static_cast<double>(tr.counters.states) / q, "count"});
  m.push_back({"hmm.us", hmm, "us"});
  m.push_back({"hmm.cells", cells, "count"});
  m.push_back({"hmm.ns_per_cell", cells > 0 ? hmm * 1e3 / cells : 0.0, "ns"});
  m.push_back({"decode.us", dec, "us"});
  m.push_back({"decode.viterbi_us", tr.counters.viterbi_seconds * 1e6 / q,
               "us"});
  m.push_back({"decode.expanded",
               static_cast<double>(tr.counters.expanded) / q, "count"});
  m.push_back({"decode.generated",
               static_cast<double>(tr.counters.generated) / q, "count"});
  m.push_back({"decode.pruned", static_cast<double>(tr.counters.pruned) / q,
               "count"});
  const double base = cand + hmm + dec;
  m.push_back({"pipeline.hmm_share", base > 0 ? hmm / base : 0.0, "ratio"});
  m.push_back({"pipeline.base_us", base, "us"});
  m.push_back({"pipeline.stage_cover",
               request_wall > 0 ? base / request_wall : 0.0, "ratio"});

  // Server: submit→callback minus the replayed service time.
  double wait_p50 = 0.0;
  double wait_p99 = 0.0;
  double late_p99 = 0.0;
  if (args.workload == Workload::kServerMapped) {
    std::vector<double> wait;
    for (size_t i = 0; i < tr.service_us.size(); ++i) {
      wait.push_back(timed.submit_to_done_us[i] - tr.service_us[i]);
    }
    auto p50 = Pct(wait, 0.50);
    auto p99 = Pct(wait, 0.99);
    auto late = Pct(timed.lateness_us, 0.99);
    if (!p50.ok() || !p99.ok() || !late.ok()) {
      *error = "server wait / lateness percentiles: too few samples";
    } else {
      wait_p50 = *p50;
      wait_p99 = *p99;
      late_p99 = *late;
    }
  }
  m.push_back({"server.wait_p50_us", wait_p50, "us"});
  m.push_back({"server.wait_p99_us", wait_p99, "us"});
  m.push_back({"server.mean_batch", timed.mean_batch, "count"});
  m.push_back({"server.shed", timed.shed, "count"});

  // Fleet: per batch.
  double encode = 0.0, decode = 0.0, bytes_per_query = 0.0, service = 0.0;
  double residual = 0.0, scatters = 0.0, max_share = 0.0;
  if (args.workload == Workload::kFleetShort) {
    encode = Mean(tr.encode_us);
    decode = Mean(tr.decode_us);
    service = Mean(tr.service_total_us);
    bytes_per_query = tr.wire_bytes / q;
    std::vector<double> residuals;
    for (size_t b = 0; b < tr.requests; ++b) {
      const double round_trip = timed.slice.streams[0][b].latency_us;
      residuals.push_back(round_trip - tr.encode_us[b] -
                          tr.slowest_us[b] - tr.decode_us[b]);
    }
    residual = Mean(residuals);
    scatters = timed.router_delta.batches == 0
                   ? 0.0
                   : static_cast<double>(timed.router_delta.scatters) /
                         static_cast<double>(timed.router_delta.batches);
    for (double g : tr.group_queries) max_share = std::max(max_share, g / q);
  }
  m.push_back({"net.encode_us", encode, "us"});
  m.push_back({"net.decode_us", decode, "us"});
  m.push_back({"net.bytes_per_query", bytes_per_query, "bytes"});
  m.push_back({"shard.service_us", service, "us"});
  m.push_back({"shard.residual_us", residual, "us"});
  m.push_back({"shard.scatters_per_batch", scatters, "count"});
  m.push_back({"shard.failovers",
               static_cast<double>(timed.router_delta.failovers), "count"});
  m.push_back({"shard.reconnects",
               static_cast<double>(timed.router_delta.reconnects), "count"});
  m.push_back({"shard.max_group_share", max_share, "ratio"});
  m.push_back({"shard.slow_batches", static_cast<double>(timed.slow_batches),
               "count"});
  m.push_back({"shard.max_batch_ratio", timed.max_batch_ratio, "ratio"});

  m.push_back({"loadgen.late_p99_us", late_p99, "us"});
  // Tracing overhead: traced ÷ untraced qps of the same requests served
  // serially (server_mapped). fleet_short's replay is in process while
  // its timed batches cross the network, so it reads 0.
  double qps_ratio = 0.0;
  if (args.workload == Workload::kServerMapped && tr.wall_s > 0) {
    qps_ratio = tr.untraced_wall_s / tr.wall_s;
  }
  m.push_back({"trace.qps_ratio", qps_ratio, "ratio"});
  return m;
}

int RunBenchmark(const Args& args) {
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s\n", args.work_dir.c_str());
    return 1;
  }

  // Set-up runs kSetupRepeats times (setup_s is the median), and each
  // set-up is followed by one timed slice. Set-up dominates a run's wall
  // time, so interleaving spreads the timed windows across the whole run
  // and its share of the machine's slow and fast spells. The last set-up
  // stays up for the traced replay of the last slice.
  const double slice_seconds = args.seconds / kSetupRepeats;
  std::vector<uint64_t> reference;
  std::vector<double> setup_seconds;
  std::vector<LayerTimes> setup_layers;
  std::vector<Timed> slices;
  double peak_rss = 0.0;
  std::unique_ptr<Setup> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup.reset();  // stop the previous repeat's server / fleet first
    auto result = RunSetup(args, &reference);
    if (!result.ok()) {
      std::fprintf(stderr, "error: set-up failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    setup = std::move(*result);
    setup_seconds.push_back(setup->seconds);
    setup_layers.push_back(setup->layers);
    std::printf("# setup %d: %.3f s\n", r, setup->seconds);
    if (r == 0) PrintEnvironment(args, *setup);

    const uint64_t seed = args.seed * kSetupRepeats + static_cast<uint64_t>(r);
    slices.push_back(
        args.workload == Workload::kServerMapped
            ? RunServerMapped(setup.get(), seed, slice_seconds)
            : RunFleetShort(setup.get(), seed, slice_seconds));
    double rss = PeakRssMb();
    for (const ShardProcess& shard : setup->shards) {
      rss += PeakRssMb(std::to_string(shard.pid()));
    }
    peak_rss = std::max(peak_rss, rss);
  }
  Timed& timed = slices.back();

  // End-to-end figures are medians over fixed windows of the timed
  // slices; the whole-phase figures are printed alongside.
  std::string error;
  size_t attempted = 0;
  size_t failed = 0;
  double wall_s = 0.0;
  std::vector<const SampleSlice*> windows_in;
  std::vector<double> latencies;
  for (const Timed& t : slices) {
    if (!t.error.empty()) error = t.error;
    attempted += t.attempted;
    failed += t.failed;
    wall_s += t.wall_s;
    windows_in.push_back(&t.slice);
    for (const std::vector<Sample>& stream : t.slice.streams) {
      for (const Sample& sample : stream) {
        latencies.push_back(sample.latency_us);
      }
    }
  }
  auto windowed =
      WindowedMedians(windows_in, WindowSamples(args.workload));
  if (!windowed.ok()) {
    error = "latency windows: " + windowed.status().ToString();
  }
  auto p50 = ExactPercentile(latencies, 0.50);
  auto p99 = ExactPercentile(latencies, 0.99);
  std::printf(
      "# timed: %zu attempted, %zu failed (failed_frac %s), %.3f s, "
      "%zu latency samples; whole phase: qps %.1f, p50 %.1f us, p99 %.1f us "
      "(%zu samples beyond)\n",
      attempted, failed,
      FormatNumber(attempted == 0 ? 0.0
                                  : static_cast<double>(failed) /
                                        static_cast<double>(attempted))
          .c_str(),
      wall_s, latencies.size(),
      wall_s > 0 ? static_cast<double>(attempted - failed) / wall_s : 0.0,
      p50.ok() ? p50->value : 0.0, p99.ok() ? p99->value : 0.0,
      p99.ok() ? p99->beyond : 0);
  if (windowed.ok()) {
    std::printf("# windows: %zu of >= %zu samples, %zu samples, >= %zu "
                "beyond each window's p99\n",
                windowed->window_qps.size(), WindowSamples(args.workload),
                windowed->samples, windowed->min_beyond);
    for (size_t w = 0; w < windowed->window_qps.size(); ++w) {
      std::printf("#   window %2zu: qps %9.1f  p50 %9.1f us  p99 %9.1f us\n",
                  w, windowed->window_qps[w], windowed->window_p50[w],
                  windowed->window_p99[w]);
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_seconds), "s"},
        {"qps", windowed.ok() ? windowed->qps : 0.0, "1/s"},
        {"latency_p50_us", windowed.ok() ? windowed->p50 : 0.0, "us"},
        {"latency_p99_us", windowed.ok() ? windowed->p99 : 0.0, "us"},
        {"peak_rss_mb", peak_rss, "MB"},
    };
  } else {
    const LayerTimes layers = MedianLayers(setup_layers);
    Traced tr;
    if (args.workload == Workload::kServerMapped) {
      tr = ReplayServer(*setup, timed);
    } else {
      RegeneratePicks(*setup, &timed);
      tr = ReplayFleet(*setup, timed);
    }
    std::printf("# traced: %zu requests, %zu reformulations, %zu failed, "
                "%.3f s\n",
                tr.requests, tr.queries, tr.failed, tr.wall_s);
    attempted += tr.attempted;
    failed += tr.failed;
    metrics = LayerMetrics(args, layers, timed, tr, &error);
    // A run check like shard.failovers and shard.reconnects: a passing
    // run reads 0, and the figure is reported so it shows.
    metrics.push_back({"failed_frac",
                       attempted == 0 ? 0.0
                                      : static_cast<double>(failed) /
                                            static_cast<double>(attempted),
                       "ratio"});
    metrics.push_back({"latency.samples",
                       static_cast<double>(latencies.size()), "count"});
    metrics.push_back(
        {"latency.p99_beyond",
         windowed.ok() ? static_cast<double>(windowed->min_beyond) : 0.0,
         "count"});
    if (!args.spans_out.empty()) {
      Status written = WriteSpans(args.spans_out, tr.spans.spans());
      if (!written.ok()) error = written.ToString();
    }
  }
  setup.reset();
  std::filesystem::remove_all(args.work_dir, ec);

  if (!error.empty()) std::fprintf(stderr, "error: %s\n", error.c_str());
  if (failed > 0) {
    std::fprintf(stderr, "error: %zu answers failed or differed from the "
                 "serial reference\n", failed);
  }
  const bool correct = failed == 0 && error.empty();
  PrintResult(correct, std::max<size_t>(attempted, 1), failed, metrics);
  return correct ? 0 : 1;
}

// -- Command line ------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: kqr_perfbench --workload "
               "<server_mapped|fleet_short> --seed N "
               "--seconds S --trace <0|1> [--work-dir DIR] "
               "[--spans-out FILE]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload_name = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  if (argc % 2 == 0) return false;
  if (args->workload_name == "server_mapped") {
    args->workload = Workload::kServerMapped;
  } else if (args->workload_name == "fleet_short") {
    args->workload = Workload::kFleetShort;
  } else {
    return false;
  }
  return args->seconds > 0.0;
}

}  // namespace
}  // namespace kqr::perfbench

int main(int argc, char** argv) {
  using namespace kqr::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
#ifndef NDEBUG
  // Debug builds run the model auditor inside EngineBuilder::Build and
  // serve unoptimized code: their numbers describe nothing a user sees.
  std::fprintf(stderr, "error: refusing to benchmark a build without "
               "NDEBUG (build type %s)\n", BuildType());
  return 2;
#else
  return RunBenchmark(args);
#endif
}
