// Measurement primitives for the repo benchmark (perfbench/main.cc):
// bit-exact answer fingerprints, exact percentiles with a tail-sample
// rule, an in-memory span recorder with self-time arithmetic, an
// open-loop arrival generator that measures latency from each request's
// due time, and a stage-by-stage replay of ServingModel::ReformulateTerms
// through the public pipeline entry points.
//
// Everything here is deliberately free of workload policy so the
// benchmark's own tests (harness_test.cc) can pin the arithmetic down.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "kqr.h"

namespace kqr::perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the clock's epoch (steady, monotonic).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// \brief Order- and bit-exact fingerprint of one ranking: FNV-1a over
/// the ranking size, every term id and every score's bit pattern.
uint64_t Fingerprint(const std::vector<ReformulatedQuery>& ranking);

// -- Percentiles -----------------------------------------------------------

/// \brief One exact percentile of a sample set.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;  ///< size of the sample set
  size_t beyond = 0;   ///< samples ranked strictly above the percentile
};

/// \brief Nearest-rank percentile (q in (0, 1]) over raw samples. Fails
/// with kOutOfRange when fewer than `min_beyond` samples lie
/// beyond the percentile: a p99 read off 200 samples is two points, not
/// a tail.
Result<Percentile> ExactPercentile(std::vector<double> samples, double q,
                                   size_t min_beyond = 10);

double Median(std::vector<double> values);

/// \brief One timed request: when it started (sent, or due for open
/// loop), its latency, and how many answers it delivered correctly
/// (queries in a batch; 0 when it failed).
struct Sample {
  int64_t start_ns = 0;
  float latency_us = 0.0F;
  uint32_t correct = 0;
};

/// \brief Medians over windows of a timed phase. Shared machines slow
/// down for seconds at a time; the median window shrugs that off where a
/// whole-run figure absorbs it.
struct WindowedStats {
  double qps = 0.0;  ///< median over windows of correct answers per second
  double p50 = 0.0;  ///< median over windows of the window's p50 latency
  double p99 = 0.0;  ///< median over windows of the window's p99 latency
  /// Per-window figures, in time order.
  std::vector<double> window_qps, window_p50, window_p99;
  size_t samples = 0;     ///< samples inside the windows
  size_t min_beyond = 0;  ///< fewest samples beyond p99 in any window
};

/// \brief One timed slice: its samples, one stream per client, and the
/// interval [start_ns, end_ns) it was timed over.
struct SampleSlice {
  std::vector<std::vector<Sample>> streams;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// \brief Splits each slice's samples (all streams, in start order,
/// inside its interval) into as many windows of consecutive samples as
/// hold `window_samples` each, sharing out the remainder, and takes
/// medians over all windows. A window's qps counts its correct answers
/// over the time from its first start to the next window's first start
/// (the first and last window reach the slice's start and end). Windows
/// of a sample count, not a duration, keep every window's tail sampled
/// however slow the machine runs. Fails when a slice set has no whole
/// window or a window's p99 has fewer than `min_beyond` samples beyond.
Result<WindowedStats> WindowedMedians(
    const std::vector<const SampleSlice*>& slices, size_t window_samples,
    size_t min_beyond = 10);

/// \brief Requests (in send order) slower than `over_median` times the
/// median: over the whole set, and among the first `early`, where an
/// unwarmed replica's one-off costs land.
struct SlowBatches {
  double median = 0.0;
  size_t total = 0;
  size_t early = 0;
  double max_ratio = 0.0;  ///< slowest ÷ median
};
SlowBatches CountSlowBatches(const std::vector<double>& latencies_us,
                             double over_median, size_t early);

// -- Spans -----------------------------------------------------------------

/// \brief One timed call into a layer. `parent` indexes the enclosing
/// span in the same recorder (-1 for a root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
};

/// \brief Single-thread span recorder: spans nest by call order.
class SpanRecorder {
 public:
  int32_t Begin(const char* name, uint64_t request);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// \brief RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t request)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

/// \brief Self time of every span: its duration minus the durations of
/// its direct children.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// \brief Per span name: total self time (ns) and span count.
struct NameTotals {
  int64_t self_ns = 0;
  int64_t wall_ns = 0;
  size_t count = 0;
};
std::map<std::string, NameTotals> TotalsByName(const std::vector<Span>& spans);

/// \brief Writes spans as TSV (index, name, start, end, parent, request,
/// self), start/end relative to the earliest span.
Status WriteSpans(const std::string& path, const std::vector<Span>& spans);

// -- Open-loop load ----------------------------------------------------------

/// \brief Due times (ns offsets from the start) of a Poisson arrival
/// process at `rate` per second over `seconds`. Deterministic in `seed`.
std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate,
                                     double seconds);

/// \brief Open-loop generator: request i is sent no earlier than its due
/// time, and its latency runs from the due time (not the send time), so a
/// stalled sender cannot hide queueing it caused (no coordinated
/// omission).
class OpenLoop {
 public:
  explicit OpenLoop(std::vector<int64_t> due_offsets_ns);

  /// Sends every request in order on the calling thread; `submit(i)`
  /// must arrange for Complete(i) to be called exactly once, on any
  /// thread. Returns when the last request has been sent.
  void Run(const std::function<void(size_t)>& submit);
  /// Thread-safe; records request i's completion time.
  void Complete(size_t i);
  /// Blocks until every sent request has completed.
  void WaitAll() const;

  size_t size() const { return due_.size(); }
  int64_t start_ns() const { return start_ns_; }
  int64_t due_ns(size_t i) const { return start_ns_ + due_[i]; }
  int64_t sent_ns(size_t i) const { return sent_[i]; }
  int64_t done_ns(size_t i) const { return done_[i]; }
  /// Completion minus due time.
  double LatencyUs(size_t i) const {
    return static_cast<double>(done_[i] - due_ns(i)) / 1e3;
  }
  /// Send minus due time: how late the generator itself was.
  double LatenessUs(size_t i) const {
    return static_cast<double>(sent_[i] - due_ns(i)) / 1e3;
  }

 private:
  std::vector<int64_t> due_;
  std::vector<int64_t> sent_;
  std::vector<int64_t> done_;
  int64_t start_ns_ = 0;
  std::atomic<size_t> completed_{0};
};

// -- Pipeline replay -------------------------------------------------------

/// \brief Per-request work counters from one replayed reformulation.
struct StageCounters {
  size_t states = 0;     ///< trellis states over all positions
  size_t cells = 0;      ///< Σ |S_i|·|S_i+1| transition cells
  size_t expanded = 0;   ///< A* frontier pops
  size_t generated = 0;  ///< A* augmentations pushed
  size_t pruned = 0;     ///< A* augmentations cut by the θ bound
  double viterbi_seconds = 0.0;

  void Add(const StageCounters& other);
};

/// \brief Reusable buffers for ReplayReformulate (one per thread).
struct ReplayScratch {
  std::vector<std::vector<CandidateState>> candidates;
  HmmModel model;
  AStarScratch astar;
};

/// \brief Runs what ServingModel::ReformulateTerms runs on a fully
/// prepared model under its own options (Viterbi+A* only) — candidates,
/// HMM assembly, A* decode — as three separate public calls, each inside
/// a span ("candidates", "hmm", "decode") under one "request" span. The
/// answer is bit-identical to ReformulateTerms; the benchmark checks it.
Result<std::vector<ReformulatedQuery>> ReplayReformulate(
    const ServingModel& model, const std::vector<TermId>& terms, size_t k,
    ReplayScratch* scratch, SpanRecorder* recorder, uint64_t request,
    StageCounters* counters);

// -- Process ---------------------------------------------------------------

/// Peak resident set (VmHWM) of `pid` ("self" for this process) in MB,
/// or -1 when /proc is unreadable.
double PeakRssMb(const std::string& pid = "self");

}  // namespace kqr::perfbench
