#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>

namespace kqr::perfbench {

namespace {

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// splitmix64: a tiny seeded stream for the arrival schedule.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t Fingerprint(const std::vector<ReformulatedQuery>& ranking) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = Fnv1a(h, ranking.size());
  for (const ReformulatedQuery& q : ranking) {
    for (TermId t : q.terms) h = Fnv1a(h, t);
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(q.score));
    std::memcpy(&bits, &q.score, sizeof(bits));
    h = Fnv1a(h, bits);
  }
  return h;
}

Result<Percentile> ExactPercentile(std::vector<double> samples, double q,
                                   size_t min_beyond) {
  if (samples.empty() || !(q > 0.0) || q > 1.0) {
    return Status::InvalidArgument("percentile of an empty set or bad q");
  }
  const size_t n = samples.size();
  // Nearest rank: the smallest rank r with r >= q·n (1-based).
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<ptrdiff_t>(rank - 1),
                   samples.end());
  Percentile p;
  p.value = samples[rank - 1];
  p.samples = n;
  p.beyond = n - rank;
  if (p.beyond < min_beyond) {
    return Status::OutOfRange(
        "only " + std::to_string(p.beyond) + " of " + std::to_string(n) +
        " samples lie beyond the percentile (need " +
        std::to_string(min_beyond) + "); run longer");
  }
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Result<WindowedStats> WindowedMedians(
    const std::vector<const SampleSlice*>& slices, size_t window_samples,
    size_t min_beyond) {
  WindowedStats stats;
  stats.min_beyond = std::numeric_limits<size_t>::max();
  if (window_samples == 0) return Status::InvalidArgument("empty window");
  for (const SampleSlice* slice : slices) {
    std::vector<Sample> samples;
    for (const std::vector<Sample>& stream : slice->streams) {
      for (const Sample& s : stream) {
        if (s.start_ns >= slice->start_ns && s.start_ns < slice->end_ns) {
          samples.push_back(s);
        }
      }
    }
    std::stable_sort(samples.begin(), samples.end(),
                     [](const Sample& x, const Sample& y) {
                       return x.start_ns < y.start_ns;
                     });
    const size_t windows = samples.size() / window_samples;
    for (size_t w = 0; w < windows; ++w) {
      const size_t first = w * samples.size() / windows;
      const size_t next = (w + 1) * samples.size() / windows;
      // A window runs from its first start to the next window's first
      // start; the first and last reach the slice's start and end.
      const int64_t begin_ns = w == 0 ? slice->start_ns : samples[first].start_ns;
      const int64_t end_ns =
          next < samples.size() ? samples[next].start_ns : slice->end_ns;
      std::vector<double> latencies;
      size_t correct = 0;
      for (size_t i = first; i < next; ++i) {
        latencies.push_back(samples[i].latency_us);
        correct += samples[i].correct;
      }
      stats.samples += next - first;
      stats.window_qps.push_back(
          static_cast<double>(correct) * 1e9 /
          static_cast<double>(std::max<int64_t>(end_ns - begin_ns, 1)));
      KQR_ASSIGN_OR_RETURN(Percentile mid, ExactPercentile(latencies, 0.50));
      KQR_ASSIGN_OR_RETURN(Percentile tail,
                           ExactPercentile(std::move(latencies), 0.99,
                                           min_beyond));
      stats.window_p50.push_back(mid.value);
      stats.window_p99.push_back(tail.value);
      stats.min_beyond = std::min(stats.min_beyond, tail.beyond);
    }
  }
  if (stats.window_qps.empty()) {
    return Status::InvalidArgument("no whole window; run longer");
  }
  stats.qps = Median(stats.window_qps);
  stats.p50 = Median(stats.window_p50);
  stats.p99 = Median(stats.window_p99);
  return stats;
}

SlowBatches CountSlowBatches(const std::vector<double>& latencies_us,
                             double over_median, size_t early) {
  SlowBatches slow;
  slow.median = Median(latencies_us);
  if (slow.median <= 0.0) return slow;
  for (size_t i = 0; i < latencies_us.size(); ++i) {
    const double ratio = latencies_us[i] / slow.median;
    slow.max_ratio = std::max(slow.max_ratio, ratio);
    if (ratio > over_median) {
      ++slow.total;
      if (i < early) ++slow.early;
    }
  }
  return slow;
}

// -- Spans -------------------------------------------------------------------

int32_t SpanRecorder::Begin(const char* name, uint64_t request) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

std::map<std::string, NameTotals> TotalsByName(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, NameTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = totals[spans[i].name];
    t.self_ns += self[i];
    t.wall_ns += spans[i].end_ns - spans[i].start_ns;
    ++t.count;
  }
  return totals;
}

Status WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write " + path);
  int64_t epoch = spans.empty() ? 0 : spans[0].start_ns;
  for (const Span& span : spans) epoch = std::min(epoch, span.start_ns);
  const std::vector<int64_t> self = SelfTimesNs(spans);
  out << "index\tname\tstart_ns\tend_ns\tparent\trequest\tself_ns\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << '\t' << s.name << '\t' << (s.start_ns - epoch) << '\t'
        << (s.end_ns - epoch) << '\t' << s.parent << '\t' << s.request
        << '\t' << self[i] << '\n';
  }
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

// -- Open-loop load ----------------------------------------------------------

std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate,
                                     double seconds) {
  std::vector<int64_t> due;
  uint64_t state = seed;
  double t = 0.0;
  for (;;) {
    // Uniform in (0, 1]: the top 53 bits, shifted off zero.
    const double u =
        (static_cast<double>(SplitMix64(&state) >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate;
    if (t >= seconds) break;
    due.push_back(static_cast<int64_t>(t * 1e9));
  }
  return due;
}

OpenLoop::OpenLoop(std::vector<int64_t> due_offsets_ns)
    : due_(std::move(due_offsets_ns)),
      sent_(due_.size(), 0),
      done_(due_.size(), 0) {}

void OpenLoop::Run(const std::function<void(size_t)>& submit) {
  start_ns_ = NowNs();
  for (size_t i = 0; i < due_.size(); ++i) {
    const int64_t due = start_ns_ + due_[i];
    // Sleep while far from the due time, then spin the last stretch so
    // the send is punctual without burning a core between arrivals.
    for (int64_t now = NowNs(); now < due; now = NowNs()) {
      if (due - now > 200'000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due - now - 100'000));
      }
    }
    sent_[i] = NowNs();
    submit(i);
  }
}

void OpenLoop::Complete(size_t i) {
  done_[i] = NowNs();
  completed_.fetch_add(1, std::memory_order_release);
}

void OpenLoop::WaitAll() const {
  while (completed_.load(std::memory_order_acquire) < due_.size()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

// -- Pipeline replay -------------------------------------------------------

void StageCounters::Add(const StageCounters& other) {
  states += other.states;
  cells += other.cells;
  expanded += other.expanded;
  generated += other.generated;
  pruned += other.pruned;
  viterbi_seconds += other.viterbi_seconds;
}

Result<std::vector<ReformulatedQuery>> ReplayReformulate(
    const ServingModel& model, const std::vector<TermId>& terms, size_t k,
    ReplayScratch* scratch, SpanRecorder* recorder, uint64_t request,
    StageCounters* counters) {
  const ReformulatorOptions& opts = model.options().reformulator;
  if (opts.algorithm != TopKAlgorithm::kViterbiAStar) {
    return Status::InvalidArgument("replay covers the Viterbi+A* decoder");
  }
  if (terms.empty() || k == 0) {
    return Status::InvalidArgument("empty query or k == 0");
  }
  ScopedSpan request_span(recorder, "request", request);
  {
    ScopedSpan span(recorder, "candidates", request);
    CandidateBuilder(model.similarity_index(), opts.candidates)
        .BuildInto(terms, &scratch->candidates);
  }
  const auto& candidates = scratch->candidates;
  StageCounters local;
  for (size_t pos = 0; pos < candidates.size(); ++pos) {
    if (candidates[pos].empty()) {
      return Status::NotFound("no candidate states at query position " +
                              std::to_string(pos));
    }
    local.states += candidates[pos].size();
    if (pos + 1 < candidates.size()) {
      local.cells += candidates[pos].size() * candidates[pos + 1].size();
    }
  }
  {
    ScopedSpan span(recorder, "hmm", request);
    HmmBuilder(model.closeness_index(), model.stats(), model.graph(),
               opts.hmm)
        .BuildInto(candidates, &scratch->model);
  }
  const size_t fetch = opts.drop_identity ? k + 1 : k;
  AStarStats astar;
  std::vector<DecodedPath> paths;
  {
    ScopedSpan span(recorder, "decode", request);
    paths = AStarTopK(scratch->model, fetch, &astar, &scratch->astar,
                      opts.prune_decode);
  }
  local.expanded = astar.nodes_expanded;
  local.generated = astar.nodes_generated;
  local.pruned = astar.nodes_pruned;
  local.viterbi_seconds = astar.viterbi_seconds;
  if (counters != nullptr) counters->Add(local);

  // Path → ranking, exactly as the Reformulator assembles it.
  std::vector<ReformulatedQuery> out;
  out.reserve(paths.size());
  for (const DecodedPath& path : paths) {
    ReformulatedQuery query;
    query.score = path.score;
    query.terms.reserve(path.states.size());
    bool identity = true;
    for (size_t pos = 0; pos < path.states.size(); ++pos) {
      const CandidateState& s = candidates[pos][path.states[pos]];
      query.terms.push_back(s.is_void ? kInvalidTermId : s.term);
      if (!s.is_original) identity = false;
    }
    query.is_identity = identity;
    if (opts.drop_identity && identity) continue;
    out.push_back(std::move(query));
    if (out.size() >= k) break;
  }
  return out;
}

// -- Process ---------------------------------------------------------------

double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

}  // namespace kqr::perfbench
