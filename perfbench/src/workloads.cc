// The three benchmark workloads (perfbench/README.md):
//
//   serve-social  open loop of loadgen arrivals on syn-epinions
//   batch-web     closed loop of QueryEngine::RunAllPairs on
//                 syn-web-stanford
//   group-small   closed loop, one synchronous client, on syn-wiki-vote
//
// Every workload shares the same frame: generate the registry graph,
// create the engine several times (set-up time is the median), run the
// timed loop, check every answer, then measure recall against the exact
// oracle outside the timed window.

#include <algorithm>
#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "bench.h"
#include "eval/datasets.h"
#include "eval/metrics.h"
#include "loadgen/workload.h"
#include "simrank/backend_exact.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using simrank::AllPairsOptions;
using simrank::AllPairsShard;
using simrank::MixSeeds;
using simrank::QueryResult;
using simrank::Result;
using simrank::Rng;
using simrank::WallTimer;
using simrank::service::EngineClock;
using simrank::service::PriorityClass;
using simrank::service::QueryEngine;
using simrank::service::QueryRequest;
using simrank::service::QueryResponse;

/// Offered rate of serve-social: keeps the three workers about 40% busy
/// on the default mix on a 4-core x86-64 VM. The VM has phases up to 1.7x
/// slower; a higher rate saturates the workers in those phases, and
/// due-time latency then grows without bound.
constexpr double kServeRateQps = 150.0;
constexpr std::chrono::milliseconds kSpinBeforeDue{1};
constexpr uint32_t kBatchPartitions = 32;
constexpr uint32_t kGroupSize = 4;

/// Engine creations per run: at least kMinSetups, more while their total
/// stays under kSetupBudgetSeconds, never more than kMaxSetups.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetSeconds = 5.0;

constexpr double kMiB = 1024.0 * 1024.0;

double SecondsBetween(EngineClock::time_point from, EngineClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Generates the registry graph and creates the engine; adds setup_s and
/// index_mb. False (with a failed check) when the engine cannot be made.
bool SetUp(const Args& args, Bench& bench, Report& report) {
  const std::optional<simrank::eval::DatasetSpec> spec =
      simrank::eval::FindDataset(bench.dataset, 1.0);
  if (!spec.has_value()) {
    report.CheckFailed("dataset " + bench.dataset + " not in the registry");
    return false;
  }
  bench.graph = simrank::eval::Generate(*spec);
  std::printf("graph %s: %u vertices, %llu arcs\n", bench.dataset.c_str(),
              static_cast<unsigned>(bench.graph.NumVertices()),
              static_cast<unsigned long long>(bench.graph.NumEdges()));

  simrank::service::EngineOptions options;
  options.num_threads = kEngineWorkers;
  std::vector<double> setup_seconds;
  double total = 0.0;
  while (true) {
    bench.engine.reset();
    WallTimer timer;
    Result<std::unique_ptr<QueryEngine>> created =
        QueryEngine::Create(bench.graph, options);
    const double seconds = timer.ElapsedSeconds();
    if (!created.ok()) {
      report.CheckFailed("QueryEngine::Create: " + created.status().ToString());
      return false;
    }
    bench.engine = std::move(created.value());
    setup_seconds.push_back(seconds);
    total += seconds;
    const int done = static_cast<int>(setup_seconds.size());
    if (args.smoke || done >= kMaxSetups ||
        (done >= kMinSetups && total >= kSetupBudgetSeconds)) {
      break;
    }
  }
  const uint64_t setups = setup_seconds.size();
  report.Add("setup_s", Quantile(setup_seconds, 0.5), "s", setups);
  const QueryEngine& engine = *bench.engine;
  report.Add("index_mb",
             static_cast<double>(
                 engine.backend(engine.primary_backend()).MemoryBytes()) /
                 kMiB,
             "MiB");
  return true;
}

/// The engine's ranking for `v` must equal a direct query on the
/// engine's own searcher bit for bit.
void CheckIdentity(const Bench& bench, Vertex v,
                   const std::vector<ScoredVertex>& engine_top,
                   Report& report) {
  const QueryResult direct = bench.engine->searcher().Query(v);
  bool same = direct.top.size() == engine_top.size();
  for (size_t i = 0; same && i < engine_top.size(); ++i) {
    same = direct.top[i].vertex == engine_top[i].vertex &&
           direct.top[i].score == engine_top[i].score;
  }
  if (same) {
    report.CheckRanking(engine_top, {}, bench.engine->options().search.k,
                        bench.engine->options().search.threshold);
  } else {
    report.CheckFailed("engine ranking of vertex " + std::to_string(v) +
                       " differs from searcher().Query");
  }
}

/// Mean recall of the engine's top-k against ExactBackend over a fixed
/// seeded vertex sample. Runs after the timed loop.
void AddRecall(const Args& args, const Bench& bench, Report& report) {
  const Vertex n = bench.graph.NumVertices();
  const size_t wanted =
      std::min<size_t>(args.smoke ? 10 : kRecallSample, n);
  Rng rng(kRecallSeed);
  std::vector<Vertex> sample;
  std::unordered_set<Vertex> taken;
  while (sample.size() < wanted) {
    const Vertex v = static_cast<Vertex>(rng.UniformInt(n));
    if (taken.insert(v).second) sample.push_back(v);
  }

  simrank::ExactBackend exact(bench.graph, bench.engine->options().search);
  simrank::ThreadPool pool(kEngineWorkers);
  exact.Build(&pool);
  std::vector<std::vector<ScoredVertex>> truth(sample.size());
  simrank::ParallelFor(&pool, 0, sample.size(), [&](size_t i) {
    truth[i] = exact.Query(sample[i]).top;
  });

  std::vector<double> recall;
  for (size_t i = 0; i < sample.size(); ++i) {
    Result<QueryResponse> response = bench.engine->Query(
        QueryRequest::ForVertex(sample[i]).WithBypassCache());
    if (!response.ok() || !response.value().ok()) {
      report.CheckFailed("recall query failed for vertex " +
                         std::to_string(sample[i]));
      continue;
    }
    recall.push_back(
        simrank::eval::RecallOfSet(response.value().top, truth[i]));
  }
  report.Add("recall_at_20", Mean(recall), "fraction", recall.size());
}

/// Folds one response of a serving workload into the report and the
/// service samples. Returns true when it counts as a success.
bool FoldResponse(const Result<QueryResponse>& result,
                  std::span<const Vertex> vertices, const Bench& bench,
                  ServiceSamples& service, Report& report) {
  if (!result.ok()) {
    report.Attempt(false);
    return false;
  }
  const QueryResponse& response = result.value();
  if (simrank::service::IsShed(response.decision)) {
    ++service.shed;
    report.Attempt(false);
    return false;
  }
  if (response.degraded) ++service.degraded;
  if (!response.ok()) {
    if (response.status.code() == simrank::StatusCode::kDeadlineExceeded) {
      ++service.deadline;
    }
    report.Attempt(false);
    return false;
  }
  report.Attempt(true);
  ++service.executed;
  service.engine_seconds_sum += response.engine_seconds;
  service.queue_seconds.push_back(response.queue_seconds);
  if (response.from_cache) {
    ++service.cache_hits;
  } else {
    const double overhead = response.engine_seconds - response.stats.seconds;
    (vertices.size() > 1 ? service.overhead_group_seconds
                         : service.overhead_vertex_seconds)
        .push_back(overhead);
  }
  const simrank::SearchOptions& search = bench.engine->options().search;
  report.CheckRanking(response.top, vertices, search.k, search.threshold);
  return true;
}

/// One completed request: when it finished, in seconds from the start of
/// the timed loop, and how long it took.
struct Completion {
  double end_seconds;
  double latency_seconds;
};

/// Adds p50_ms, p99_ms and throughput_qps for a loop of `span_seconds`.
/// A shared machine runs in phases of higher and lower speed, so p50 and
/// throughput are medians over the whole one-second windows of the loop:
/// of each window's median latency, and of its completion rate (measured
/// between its first and last completion). p99 needs every sample and is
/// taken over the whole run.
void AddLoopMetrics(const std::vector<Completion>& completions,
                    double span_seconds, Report& report) {
  const size_t num_windows =
      std::max<size_t>(1, static_cast<size_t>(span_seconds));
  std::vector<std::vector<Completion>> windows(num_windows);
  std::vector<double> latencies;
  for (const Completion& completion : completions) {
    latencies.push_back(completion.latency_seconds);
    const size_t window = static_cast<size_t>(completion.end_seconds);
    if (window < num_windows) windows[window].push_back(completion);
  }
  std::vector<double> medians;
  std::vector<double> rates;
  for (const std::vector<Completion>& window : windows) {
    if (window.size() < 2) continue;
    std::vector<double> window_latency;
    double first = window.front().end_seconds;
    double last = first;
    for (const Completion& completion : window) {
      window_latency.push_back(completion.latency_seconds);
      first = std::min(first, completion.end_seconds);
      last = std::max(last, completion.end_seconds);
    }
    medians.push_back(Quantile(window_latency, 0.5));
    if (last > first) {
      rates.push_back(static_cast<double>(window.size() - 1) / (last - first));
    }
  }
  const uint64_t samples = latencies.size();
  report.Add("p50_ms", Quantile(medians, 0.5) * 1e3, "ms", samples);
  report.Add("p99_ms", Quantile(latencies, 0.99) * 1e3, "ms", samples);
  report.Add("throughput_qps", Quantile(rates, 0.5), "1/s", samples);
}

// --- serve-social ---------------------------------------------------------

void RunServeSocial(const Args& args, Bench& bench, Report& report,
                    ServiceSamples& service, ReplayVertices& replay) {
  QueryEngine& engine = *bench.engine;
  const uint32_t n = static_cast<uint32_t>(bench.graph.NumVertices());
  simrank::loadgen::WorkloadOptions workload;
  workload.duration_seconds = args.seconds;
  workload.rate_qps = kServeRateQps;
  workload.zipf_exponent = 0.8;
  workload.group_size = kGroupSize;
  Rng rng(MixSeeds(args.seed, 0x5E4E));
  const simrank::loadgen::ZipfSampler popularity(n, workload.zipf_exponent,
                                                 n, rng);
  const std::vector<simrank::loadgen::Arrival> arrivals =
      simrank::loadgen::GenerateArrivals(workload, n, popularity, rng);
  for (size_t i = 0; i < kReplaySample; ++i) {
    replay.push_back(popularity.Sample(rng));
  }

  struct InFlight {
    size_t arrival;
    std::future<Result<QueryResponse>> future;
  };
  std::vector<InFlight> in_flight;
  in_flight.reserve(arrivals.size());
  const EngineClock::time_point start = EngineClock::now();
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const simrank::loadgen::Arrival& arrival = arrivals[i];
    const EngineClock::time_point due =
        start + std::chrono::duration_cast<EngineClock::duration>(
                    std::chrono::duration<double>(arrival.time_seconds));
    // Sleep to 1 ms short of the due time, then spin: waking an idle vCPU
    // is slow on a contended host. In three interleaved pairs of runs,
    // sender lateness p99 fell from 0.25-4.3 ms to 0.10-1.4 ms.
    const EngineClock::time_point wake = due - kSpinBeforeDue;
    if (EngineClock::now() < wake) std::this_thread::sleep_until(wake);
    while (EngineClock::now() < due) {
    }
    QueryRequest request;
    request.vertices = arrival.vertices;
    request.priority = arrival.priority;
    request.client_id = "client-" + std::to_string(arrival.client);
    const EngineClock::time_point submitted = EngineClock::now();
    Result<std::future<Result<QueryResponse>>> handle =
        engine.Submit(std::move(request));
    service.lateness_seconds.push_back(SecondsBetween(due, submitted));
    if (!handle.ok()) {
      report.Attempt(false);
      continue;
    }
    in_flight.push_back({i, std::move(handle.value())});
  }

  // Completion times come from the responses themselves: due time plus
  // sender lateness, queue wait and engine time.
  std::vector<Completion> interactive;
  std::vector<std::pair<Vertex, std::vector<ScoredVertex>>> identity;
  std::unordered_set<Vertex> identity_vertices;
  double end_seconds = 0.0;
  for (InFlight& flight : in_flight) {
    const simrank::loadgen::Arrival& arrival = arrivals[flight.arrival];
    const Result<QueryResponse> result = flight.future.get();
    if (!FoldResponse(result, arrival.vertices, bench, service, report)) {
      continue;
    }
    const QueryResponse& response = result.value();
    const double latency = service.lateness_seconds[flight.arrival] +
                           response.queue_seconds + response.engine_seconds;
    end_seconds = std::max(end_seconds, arrival.time_seconds + latency);
    if (arrival.priority == PriorityClass::kInteractive) {
      interactive.push_back({arrival.time_seconds + latency, latency});
    } else {
      service.batch_latency_seconds.push_back(latency);
    }
    if (arrival.priority == PriorityClass::kInteractive &&
        arrival.vertices.size() == 1 && !response.degraded &&
        identity.size() < kIdentitySample &&
        identity_vertices.insert(arrival.vertices[0]).second) {
      identity.emplace_back(arrival.vertices[0], response.top);
    }
  }
  service.wall_seconds = end_seconds;
  for (const auto& [vertex, top] : identity) {
    CheckIdentity(bench, vertex, top, report);
  }

  AddLoopMetrics(interactive, args.seconds, report);
}

// --- batch-web ------------------------------------------------------------

void RunBatchWeb(const Args& args, Bench& bench, Report& report,
                 ServiceSamples& service, ReplayVertices& replay) {
  QueryEngine& engine = *bench.engine;
  // Shard 0 of the paper's M-machine split: vertex ids are not shuffled
  // in the R-MAT analogs, so other shards differ in degree mix and cost.
  AllPairsOptions options;
  options.partition = 0;
  options.num_partitions = kBatchPartitions;

  // Per-vertex service time: the gap between successive completions on
  // one worker thread, as reported by the progress callback (interval 1).
  std::mutex gap_mutex;
  std::unordered_map<std::thread::id, EngineClock::time_point> last_completion;
  EngineClock::time_point pass_start;
  double pass_offset = 0.0;
  std::vector<Completion> completions;
  options.progress_interval = 1;
  options.progress = [&](uint64_t) {
    const EngineClock::time_point now = EngineClock::now();
    std::lock_guard<std::mutex> lock(gap_mutex);
    auto [slot, inserted] =
        last_completion.try_emplace(std::this_thread::get_id(), pass_start);
    completions.push_back({pass_offset + SecondsBetween(pass_start, now),
                           SecondsBetween(slot->second, now)});
    slot->second = now;
  };

  const simrank::SearchOptions& search = engine.options().search;
  double wall_seconds = 0.0;
  int passes = 0;
  AllPairsShard last;
  do {
    {
      std::lock_guard<std::mutex> lock(gap_mutex);
      last_completion.clear();
      pass_start = EngineClock::now();
      pass_offset = wall_seconds;
    }
    WallTimer pass;
    Result<AllPairsShard> shard = engine.RunAllPairs(options);
    wall_seconds += pass.ElapsedSeconds();
    if (!shard.ok()) {
      report.CheckFailed("RunAllPairs: " + shard.status().ToString());
      return;
    }
    last = std::move(shard.value());
    for (size_t i = 0; i < last.rankings.size(); ++i) {
      report.Attempt(true);
      const Vertex v = last.VertexAt(i);
      report.CheckRanking(last.rankings[i], {&v, 1}, search.k,
                          search.threshold);
    }
    service.engine_seconds_sum += last.stats.seconds;
    ++passes;
    // Another pass only if it is expected to end within --seconds.
  } while (wall_seconds * (passes + 1) / passes <= args.seconds);
  service.wall_seconds = wall_seconds;

  const size_t shard_size = last.rankings.size();
  for (size_t j = 0; j < kIdentitySample && j < shard_size; ++j) {
    const size_t i = j * shard_size / kIdentitySample;
    CheckIdentity(bench, last.VertexAt(i), last.rankings[i], report);
  }
  Rng replay_rng(MixSeeds(args.seed, 0xBA7C));
  for (size_t j = 0; j < kReplaySample && shard_size > 0; ++j) {
    replay.push_back(last.VertexAt(replay_rng.UniformInt(shard_size)));
  }

  AddLoopMetrics(completions, wall_seconds, report);
}

// --- group-small ----------------------------------------------------------

void RunGroupSmall(const Args& args, Bench& bench, Report& report,
                   ServiceSamples& service, ReplayVertices& replay) {
  QueryEngine& engine = *bench.engine;
  const Vertex n = bench.graph.NumVertices();
  Rng rng(MixSeeds(args.seed, 0x6A0));

  struct Call {
    std::vector<Vertex> vertices;
    Result<QueryResponse> result;
  };
  std::vector<Call> calls;
  std::vector<Completion> completions;
  WallTimer run;
  while (run.ElapsedSeconds() < args.seconds) {
    // Two single-vertex top-k calls, then one group call: p50 falls
    // inside the single-vertex mode and p99 inside the group mode. An
    // even split would put p50 in the gap between them, where it moves
    // by a third between seeds.
    std::vector<Vertex> vertices;
    const size_t size = calls.size() % 3 == 2 ? kGroupSize : 1;
    while (vertices.size() < size) {
      const Vertex v = static_cast<Vertex>(rng.UniformInt(n));
      if (std::find(vertices.begin(), vertices.end(), v) == vertices.end()) {
        vertices.push_back(v);
      }
    }
    QueryRequest request;
    request.vertices = vertices;
    request.bypass_cache = true;
    const double start = run.ElapsedSeconds();
    Result<QueryResponse> result = engine.Query(request);
    const double end = run.ElapsedSeconds();
    completions.push_back({end, end - start});
    calls.push_back({std::move(vertices), std::move(result)});
  }
  const double elapsed = run.ElapsedSeconds();
  service.wall_seconds = elapsed;

  std::unordered_set<Vertex> identity_vertices;
  for (const Call& call : calls) {
    if (!FoldResponse(call.result, call.vertices, bench, service, report)) {
      continue;
    }
    if (call.vertices.size() == 1 &&
        identity_vertices.size() < kIdentitySample &&
        identity_vertices.insert(call.vertices[0]).second) {
      CheckIdentity(bench, call.vertices[0], call.result.value().top, report);
    }
  }
  Rng replay_rng(MixSeeds(args.seed, 0x6A1));
  for (size_t i = 0; i < kReplaySample; ++i) {
    replay.push_back(static_cast<Vertex>(replay_rng.UniformInt(n)));
  }

  AddLoopMetrics(completions, elapsed, report);
}

struct WorkloadDef {
  const char* name;
  const char* dataset;
  void (*run)(const Args&, Bench&, Report&, ServiceSamples&,
              ReplayVertices&);
};

constexpr WorkloadDef kWorkloads[] = {
    {"serve-social", "syn-epinions", RunServeSocial},
    {"batch-web", "syn-web-stanford", RunBatchWeb},
    {"group-small", "syn-wiki-vote", RunGroupSmall},
};

}  // namespace

bool RunWorkload(const Args& args, Report& report) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& candidate : kWorkloads) {
    if (args.workload == candidate.name) def = &candidate;
  }
  if (def == nullptr) return false;

  Bench bench;
  bench.dataset = def->dataset;
  if (!SetUp(args, bench, report)) return true;
  ServiceSamples service;
  ReplayVertices replay;
  def->run(args, bench, report, service, replay);
  AddRecall(args, bench, report);
  report.Add("failed_ratio",
             report.attempted() > 0
                 ? static_cast<double>(report.failed()) /
                       static_cast<double>(report.attempted())
                 : 0.0,
             "fraction", report.attempted());
  if (args.trace) {
    AddServiceMetrics(service, report);
    ReplayLayers(bench, replay, args.seed, args.smoke, report);
  }
  return true;
}

}  // namespace perfbench
