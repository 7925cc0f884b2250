// Tests for the benchmark's measurement primitives: the percentile tail
// rule, open-loop lateness accounting, span self-time arithmetic, and the
// replay-versus-ReformulateTerms fingerprint check.

#include "harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>

#include "eval/experiment.h"

namespace kqr::perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankAndTailCount) {
  auto p99 = ExactPercentile(OneTo(1000), 0.99);
  ASSERT_TRUE(p99.ok()) << p99.status().ToString();
  EXPECT_EQ(p99->value, 990.0);
  EXPECT_EQ(p99->samples, 1000u);
  EXPECT_EQ(p99->beyond, 10u);

  auto p50 = ExactPercentile(OneTo(100), 0.50);
  ASSERT_TRUE(p50.ok());
  EXPECT_EQ(p50->value, 50.0);
  EXPECT_EQ(p50->beyond, 50u);
}

TEST(Percentile, RefusesTooFewSamplesBeyond) {
  // 999 samples: rank 990, only 9 beyond — not a p99.
  auto p99 = ExactPercentile(OneTo(999), 0.99);
  ASSERT_FALSE(p99.ok());
  EXPECT_EQ(p99.status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(ExactPercentile({}, 0.5).ok());
}

TEST(Percentile, UnsortedInput) {
  std::vector<double> v = OneTo(2000);
  std::reverse(v.begin(), v.end());
  auto p = ExactPercentile(v, 0.99);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->value, 1980.0);
}

TEST(Windowed, MediansOverCountWindowsOfAllSlices) {
  // Slice a: samples j = 0..2999 start at 1000 + j ns over two client
  // streams, latency j + 1, every other one correct. Windows of (at
  // least) 1000 samples: three, each 1000 ns long, from one window's
  // first start to the next's, the last to the slice's end. Samples
  // outside [start, end) are ignored. Slice b: one window of latencies
  // 3001..4000, all correct, reaching back to the slice's start.
  SampleSlice a;
  a.start_ns = 1000;
  a.end_ns = 4000;
  a.streams.resize(2);
  for (int64_t j = 0; j < 3000; ++j) {
    Sample s;
    s.start_ns = 1000 + j;
    s.latency_us = static_cast<float>(j + 1);
    s.correct = j % 2 == 0 ? 1 : 0;
    a.streams[static_cast<size_t>(j % 2)].push_back(s);
  }
  a.streams[0].push_back({0, 1e9F, 1});     // before the start
  a.streams[1].push_back({4000, 1e9F, 1});  // at the end
  SampleSlice b;
  b.start_ns = 9000;
  b.end_ns = 12'000;
  b.streams.resize(1);
  for (int64_t i = 0; i < 1000; ++i) {
    b.streams[0].push_back({10'000 + 2 * i, static_cast<float>(3001 + i), 1});
  }

  auto stats = WindowedMedians({&a, &b}, 1000);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->window_qps.size(), 4u);
  EXPECT_EQ(stats->samples, 4000u);
  EXPECT_EQ(stats->window_p50, (std::vector<double>{500, 1500, 2500, 3500}));
  EXPECT_EQ(stats->p50, 2000.0);
  EXPECT_EQ(stats->p99, 2490.0);
  EXPECT_EQ(stats->min_beyond, 10u);
  EXPECT_DOUBLE_EQ(stats->window_qps[0], 500.0 * 1e9 / 1000.0);
  EXPECT_DOUBLE_EQ(stats->window_qps[3], 1000.0 * 1e9 / 3000.0);
  EXPECT_DOUBLE_EQ(stats->qps, 500.0 * 1e9 / 1000.0);

  // 1999 samples make one window of at least 1000, not two.
  a.streams[0].resize(1000);
  a.streams[1].resize(999);
  stats = WindowedMedians({&a}, 1000);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->window_qps.size(), 1u);
  EXPECT_EQ(stats->samples, 1999u);

  // A window whose p99 has too few samples beyond it fails the run, as
  // does a slice set without a whole window.
  EXPECT_FALSE(WindowedMedians({&a}, 100).ok());
  EXPECT_FALSE(WindowedMedians({&b}, 2000).ok());
}

TEST(SlowBatches, CountsEarlyBatchesApart) {
  // 200 batches of 100 us; a cold start makes batches 0 and 3 slow, and
  // one mid-run stall hits batch 150.
  std::vector<double> latencies(200, 100.0);
  latencies[0] = 5000.0;
  latencies[3] = 1200.0;
  latencies[150] = 3000.0;
  latencies[151] = 900.0;  // 9x: not slow
  SlowBatches slow = CountSlowBatches(latencies, 10.0, 32);
  EXPECT_EQ(slow.median, 100.0);
  EXPECT_EQ(slow.total, 3u);
  EXPECT_EQ(slow.early, 2u);
  EXPECT_EQ(slow.max_ratio, 50.0);

  // The mid-run stall alone is not an early one.
  latencies[0] = latencies[3] = 100.0;
  slow = CountSlowBatches(latencies, 10.0, 32);
  EXPECT_EQ(slow.total, 1u);
  EXPECT_EQ(slow.early, 0u);
  EXPECT_EQ(CountSlowBatches({}, 10.0, 32).total, 0u);
}

TEST(OpenLoop, StalledSenderRaisesLatencyFromDueTime) {
  // Ten requests due 1 ms apart; the handler stalls 20 ms on the first
  // one. Every later request is sent late, and its latency — measured
  // from its due time — includes that wait even though the "server"
  // completes it instantly.
  std::vector<int64_t> due;
  for (int64_t i = 0; i < 10; ++i) due.push_back(i * 1'000'000);
  OpenLoop loop(due);
  loop.Run([&](size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.Complete(i);
  });
  loop.WaitAll();
  EXPECT_GE(loop.LatencyUs(0), 20'000.0);
  for (size_t i = 1; i < 10; ++i) {
    const double expected_wait = 20'000.0 - static_cast<double>(i) * 1'000.0;
    EXPECT_GE(loop.LatencyUs(i), expected_wait) << i;
    EXPECT_GE(loop.LatenessUs(i), expected_wait) << i;
    EXPECT_LE(loop.sent_ns(i) - loop.due_ns(i),
              loop.done_ns(i) - loop.due_ns(i));
  }
}

TEST(OpenLoop, NeverSendsEarly) {
  OpenLoop loop({0, 2'000'000, 4'000'000});
  loop.Run([&](size_t i) { loop.Complete(i); });
  loop.WaitAll();
  for (size_t i = 0; i < loop.size(); ++i) {
    EXPECT_GE(loop.sent_ns(i), loop.due_ns(i));
    EXPECT_GE(loop.LatenessUs(i), 0.0);
  }
}

TEST(PoissonSchedule, DeterministicAndNearRate) {
  const auto a = PoissonSchedule(7, 1000.0, 5.0);
  const auto b = PoissonSchedule(7, 1000.0, 5.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, PoissonSchedule(8, 1000.0, 5.0));
  EXPECT_NEAR(static_cast<double>(a.size()), 5000.0, 300.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 5'000'000'000);
}

Span MakeSpan(const char* name, int64_t start, int64_t end, int32_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly) {
  const std::vector<Span> spans = {
      MakeSpan("request", 0, 100, -1),
      MakeSpan("candidates", 10, 40, 0),
      MakeSpan("hmm", 50, 90, 0),
      MakeSpan("lookup", 60, 70, 2),
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self, (std::vector<int64_t>{30, 30, 30, 10}));
  // Self times partition the root's wall time.
  EXPECT_EQ(std::accumulate(self.begin(), self.end(), int64_t{0}), 100);

  const auto totals = TotalsByName(spans);
  EXPECT_EQ(totals.at("hmm").self_ns, 30);
  EXPECT_EQ(totals.at("hmm").wall_ns, 40);
  EXPECT_EQ(totals.at("request").count, 1u);
}

TEST(Spans, RecorderNestsByCallOrder) {
  SpanRecorder recorder;
  {
    ScopedSpan outer(&recorder, "request", 1);
    { ScopedSpan first(&recorder, "candidates", 1); }
    ScopedSpan second(&recorder, "hmm", 1);
  }
  ASSERT_EQ(recorder.spans().size(), 3u);
  EXPECT_EQ(recorder.spans()[0].parent, -1);
  EXPECT_EQ(recorder.spans()[1].parent, 0);
  EXPECT_EQ(recorder.spans()[2].parent, 0);
  const std::vector<int64_t> self = SelfTimesNs(recorder.spans());
  for (int64_t v : self) EXPECT_GE(v, 0);
}

TEST(Fingerprint, SensitiveToScoreBitsAndTerms) {
  ReformulatedQuery q;
  q.terms = {1, 2};
  q.score = 0.5;
  const uint64_t base = Fingerprint({q});
  ReformulatedQuery nudged = q;
  nudged.score = std::nextafter(0.5, 1.0);
  EXPECT_NE(Fingerprint({nudged}), base);
  ReformulatedQuery swapped = q;
  swapped.terms = {2, 1};
  EXPECT_NE(Fingerprint({swapped}), base);
  EXPECT_EQ(Fingerprint({q}), base);
}

TEST(Replay, MatchesReformulateTermsBitForBit) {
  DblpOptions corpus_options;
  corpus_options.num_authors = 80;
  corpus_options.num_papers = 240;
  corpus_options.num_venues = 6;
  EngineOptions engine;
  engine.precompute_offline = true;
  auto ctx = MakeDblpContext(corpus_options, engine);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  const ServingModel& model = *ctx->model;

  QuerySampler sampler(model, 11);
  ReplayScratch scratch;
  SpanRecorder spans;
  StageCounters counters;
  RequestContext request_ctx;
  size_t compared = 0;
  for (size_t len = 1; len <= 6; ++len) {
    for (const auto& q : sampler.SampleQueries(8, len)) {
      auto direct = model.ReformulateTerms(q, 10, &request_ctx);
      auto replay = ReplayReformulate(model, q, 10, &scratch, &spans,
                                      compared, &counters);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      ASSERT_TRUE(replay.ok()) << replay.status().ToString();
      EXPECT_EQ(Fingerprint(*replay), Fingerprint(*direct));
      ++compared;
    }
  }
  // Every replayed request is one "request" span with three stage spans.
  const auto totals = TotalsByName(spans.spans());
  EXPECT_EQ(totals.at("request").count, compared);
  EXPECT_EQ(totals.at("candidates").count, compared);
  EXPECT_EQ(totals.at("hmm").count, compared);
  EXPECT_EQ(totals.at("decode").count, compared);
  EXPECT_GT(counters.states, compared);
  EXPECT_GT(counters.expanded, 0u);

  // A different k must change some answer: the check is not vacuous.
  auto q = sampler.SampleQuery(3);
  auto k10 = ReplayReformulate(model, q, 10, &scratch, nullptr, 0, nullptr);
  auto k1 = ReplayReformulate(model, q, 1, &scratch, nullptr, 0, nullptr);
  ASSERT_TRUE(k10.ok() && k1.ok());
  if (k10->size() > 1) {
    EXPECT_NE(Fingerprint(*k10), Fingerprint(*k1));
  }
}

}  // namespace
}  // namespace kqr::perfbench
