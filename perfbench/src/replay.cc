// Per-layer metrics of a traced run (perfbench/README.md, "Traced run").
//
// ReplayLayers re-runs the query pipeline of the Monte-Carlo searcher one
// public call at a time, in query order, timing each call from outside:
//
//   graph.bfs        BfsWorkspace::Run(q, undirected, max(d_max, T-1))
//   simrank.l1       ComputeL1Beta(..., l1_walks, ...)
//   simrank.profile  MonteCarloSimRank::BuildProfile(q, profile_walks)
//   simrank.enumerate CandidateIndex::ForEachCandidate, counting callback
//   simrank.rough    EstimateAgainstProfile at estimate_walks, per call
//   simrank.refine   EstimateAgainstProfile at refine_walks, per call
//
// and compares the replayed stage costs (rough and refine scaled by the
// query's own rough_estimates / refined counts) with the whole
// TopKSearcher::Query on the same vertex. Stage times are means per query
// so their shares add up. AddServiceMetrics derives the service.* and
// loadgen.* metrics from the timed run's responses.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench.h"
#include "graph/traversal.h"
#include "simrank/bounds.h"
#include "simrank/index.h"
#include "simrank/monte_carlo.h"
#include "simrank/top_k_searcher.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using simrank::MixSeeds;
using simrank::Rng;
using simrank::WallTimer;

/// Candidates per query whose estimates are timed individually.
constexpr size_t kEstimateSample = 16;
/// Walks per WalkSet in the walk-kernel measurement.
constexpr uint32_t kKernelWalks = 10000;
constexpr size_t kKernelOrigins = 16;

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// ns per walk step of WalkSet::Advance over kKernelWalks walks from
/// `origins`, stepping each set for the full horizon.
double WalkNsPerStep(const DirectedGraph& graph, uint32_t num_steps,
                     const std::vector<Vertex>& origins, uint64_t seed) {
  Rng rng(seed);
  double seconds = 0.0;
  uint64_t steps = 0;
  for (Vertex origin : origins) {
    simrank::WalkSet walks(graph, origin, kKernelWalks);
    WallTimer timer;
    for (uint32_t t = 1; t < num_steps && !walks.AllDead(); ++t) {
      steps += walks.live_count();
      walks.Advance(rng);
    }
    seconds += timer.ElapsedSeconds();
  }
  return Ratio(seconds * 1e9, static_cast<double>(steps));
}

}  // namespace

void ReplayLayers(const Bench& bench, const ReplayVertices& vertices,
                  uint64_t seed, bool smoke, Report& report) {
  const simrank::TopKSearcher& searcher = bench.engine->searcher();
  const simrank::SearchOptions& options = searcher.options();
  const simrank::SimRankParams& params = options.simrank;
  const DirectedGraph& graph = bench.graph;
  const simrank::CandidateIndex* index = searcher.candidate_index();
  const size_t count = smoke ? std::min<size_t>(vertices.size(), 20)
                             : vertices.size();
  const double n = static_cast<double>(graph.NumVertices());

  simrank::QueryWorkspace query_workspace(searcher);
  simrank::BfsWorkspace bfs(graph);
  simrank::Arena arena;
  const simrank::MonteCarloSimRank estimator(graph, params,
                                             searcher.diagonal());
  std::vector<uint32_t> marks(graph.NumVertices(), 0);
  uint32_t epoch = 0;
  std::vector<Vertex> candidates;
  const uint32_t horizon = std::max(options.max_distance, params.num_steps - 1);

  double query_s = 0, bfs_s = 0, l1_s = 0, profile_s = 0, enumerate_s = 0;
  double rough_call_s = 0, refine_call_s = 0, covered_s = 0;
  double reached = 0, enumerated = 0;
  uint64_t rough_calls = 0, refine_calls = 0;
  simrank::QueryStats stats;
  uint64_t top_entries = 0;
  for (size_t i = 0; i < count; ++i) {
    const Vertex q = vertices[i];
    WallTimer query_timer;
    const simrank::QueryResult result = searcher.Query(q, query_workspace);
    const double query_seconds = query_timer.ElapsedSeconds();
    query_s += query_seconds;
    stats += result.stats;
    top_entries += result.top.size();

    Rng rng(MixSeeds(seed, 0xB0B0 + q));
    arena.Reset();
    WallTimer stage;
    bfs.Run(q, simrank::EdgeDirection::kUndirected, horizon);
    const double bfs_seconds = stage.ElapsedSeconds();
    reached += static_cast<double>(bfs.Reached().size());

    double l1_seconds = 0.0;
    if (options.use_l1_bound) {
      stage.Restart();
      const std::vector<double> beta = simrank::ComputeL1Beta(
          graph, params, searcher.diagonal(), q, options.l1_walks, bfs,
          options.max_distance, rng, &arena);
      l1_seconds = stage.ElapsedSeconds();
    }

    stage.Restart();
    const simrank::WalkProfile profile =
        estimator.BuildProfile(q, options.profile_walks, rng, &arena);
    const double profile_seconds = stage.ElapsedSeconds();

    double enumerate_seconds = 0.0;
    candidates.clear();
    if (index != nullptr) {
      uint64_t counted = 0;
      stage.Restart();
      index->ForEachCandidate(q, marks, epoch, [&](Vertex) { ++counted; });
      enumerate_seconds = stage.ElapsedSeconds();
      enumerated += static_cast<double>(counted);
      index->ForEachCandidate(q, marks, epoch, [&](Vertex v) {
        if (v != q) candidates.push_back(v);
      });
    }

    // Per-call estimate costs on an evenly spaced candidate sample.
    double rough_seconds = 0.0, refine_seconds = 0.0;
    const size_t sampled = std::min(candidates.size(), kEstimateSample);
    for (size_t j = 0; j < sampled; ++j) {
      const Vertex v = candidates[j * candidates.size() / sampled];
      stage.Restart();
      estimator.EstimateAgainstProfile(profile, v, options.estimate_walks, rng,
                                       &arena);
      rough_seconds += stage.ElapsedSeconds();
      stage.Restart();
      estimator.EstimateAgainstProfile(profile, v, options.refine_walks, rng,
                                       &arena);
      refine_seconds += stage.ElapsedSeconds();
    }
    rough_call_s += rough_seconds;
    refine_call_s += refine_seconds;
    rough_calls += sampled;
    refine_calls += sampled;
    const double rough_per_call = Ratio(rough_seconds, sampled);
    const double refine_per_call = Ratio(refine_seconds, sampled);

    bfs_s += bfs_seconds;
    l1_s += l1_seconds;
    profile_s += profile_seconds;
    enumerate_s += enumerate_seconds;
    covered_s += bfs_seconds + l1_seconds + profile_seconds +
                 enumerate_seconds +
                 rough_per_call * static_cast<double>(
                                      result.stats.rough_estimates) +
                 refine_per_call * static_cast<double>(result.stats.refined);
  }

  const double queries = static_cast<double>(count);
  const double enumerated_stat =
      static_cast<double>(stats.candidates_enumerated);
  const double rough_us = Ratio(rough_call_s * 1e6, rough_calls);
  const double refine_us = Ratio(refine_call_s * 1e6, refine_calls);
  report.Add("graph.bfs_us", Ratio(bfs_s * 1e6, queries), "us", count);
  report.Add("graph.bfs_reached_frac", Ratio(reached, queries * n),
             "fraction", count);
  report.Add("simrank.l1_us", Ratio(l1_s * 1e6, queries), "us", count);
  report.Add("simrank.profile_us", Ratio(profile_s * 1e6, queries), "us",
             count);
  report.Add("simrank.candidates", Ratio(enumerated, queries), "count",
             count);
  report.Add("simrank.enumerate_us", Ratio(enumerate_s * 1e6, queries), "us",
             count);
  report.Add("simrank.pruned_distance_frac",
             Ratio(static_cast<double>(stats.pruned_by_distance),
                   enumerated_stat),
             "fraction", count);
  report.Add("simrank.pruned_l1_frac",
             Ratio(static_cast<double>(stats.pruned_by_l1), enumerated_stat),
             "fraction", count);
  report.Add("simrank.pruned_l2_frac",
             Ratio(static_cast<double>(stats.pruned_by_l2), enumerated_stat),
             "fraction", count);
  report.Add("simrank.rough_us", rough_us, "us", rough_calls);
  report.Add("simrank.refine_us", refine_us, "us", refine_calls);
  report.Add("simrank.rough_estimates",
             Ratio(static_cast<double>(stats.rough_estimates), queries),
             "count", count);
  report.Add("simrank.refined",
             Ratio(static_cast<double>(stats.refined), queries), "count",
             count);
  report.Add("simrank.refine_yield",
             Ratio(static_cast<double>(top_entries),
                   static_cast<double>(stats.refined)),
             "fraction", count);
  report.Add("simrank.query_us", Ratio(query_s * 1e6, queries), "us", count);
  report.Add("simrank.stage_coverage", Ratio(covered_s, query_s), "fraction",
             count);

  // Layer shares of the whole query, for the baseline table.
  const double rough_s = rough_us * 1e-6 *
                         static_cast<double>(stats.rough_estimates);
  const double refine_s = refine_us * 1e-6 * static_cast<double>(stats.refined);
  std::printf("layer shares of simrank.query_us: bfs %.1f%%, l1 %.1f%%, "
              "profile %.1f%%, enumerate %.1f%%, rough %.1f%%, "
              "refine %.1f%%\n",
              100 * Ratio(bfs_s, query_s), 100 * Ratio(l1_s, query_s),
              100 * Ratio(profile_s, query_s),
              100 * Ratio(enumerate_s, query_s),
              100 * Ratio(rough_s, query_s), 100 * Ratio(refine_s, query_s));

  // Walk kernel and preprocess builds, timed on their own.
  std::vector<Vertex> origins;
  Rng origin_rng(MixSeeds(seed, 0x3A1C));
  for (size_t i = 0; i < kKernelOrigins && !vertices.empty(); ++i) {
    origins.push_back(vertices[origin_rng.UniformInt(vertices.size())]);
  }
  report.Add("simrank.walk_ns_per_step",
             WalkNsPerStep(graph, params.num_steps, origins,
                           MixSeeds(seed, 0x3A1D)),
             "ns", origins.size());

  simrank::ThreadPool pool(kEngineWorkers);
  WallTimer build;
  const simrank::GammaTable gamma = simrank::GammaTable::BuildMonteCarlo(
      graph, params, searcher.diagonal(), options.gamma_walks,
      MixSeeds(options.seed, 0xA1505), &pool);
  report.Add("simrank.gamma_build_s", build.ElapsedSeconds(), "s");
  build.Restart();
  const simrank::CandidateIndex rebuilt(graph, params, options.index_params,
                                        MixSeeds(options.seed, 0x1DE8), &pool);
  report.Add("simrank.index_build_s", build.ElapsedSeconds(), "s");
  if (gamma.num_vertices() != graph.NumVertices() ||
      rebuilt.num_vertices() != graph.NumVertices()) {
    report.CheckFailed("rebuilt preprocess structures have the wrong size");
  }
}

void AddServiceMetrics(const ServiceSamples& samples, Report& report) {
  std::vector<double> queue = samples.queue_seconds;
  std::vector<double> vertex_overhead = samples.overhead_vertex_seconds;
  std::vector<double> group_overhead = samples.overhead_group_seconds;
  std::vector<double> batch = samples.batch_latency_seconds;
  std::vector<double> lateness = samples.lateness_seconds;
  report.Add("service.queue_wait_p99_ms", Quantile(queue, 0.99) * 1e3, "ms",
             queue.size());
  report.Add("service.worker_busy",
             Ratio(samples.engine_seconds_sum,
                   samples.wall_seconds * kEngineWorkers),
             "fraction");
  report.Add("service.overhead_vertex_us",
             Quantile(vertex_overhead, 0.5) * 1e6, "us",
             vertex_overhead.size());
  report.Add("service.overhead_group_us", Quantile(group_overhead, 0.5) * 1e6,
             "us", group_overhead.size());
  report.Add("service.cache_hit_ratio",
             Ratio(static_cast<double>(samples.cache_hits),
                   static_cast<double>(samples.executed)),
             "fraction", samples.executed);
  report.Add("service.batch_p99_ms", Quantile(batch, 0.99) * 1e3, "ms",
             batch.size());
  report.Add("service.shed", static_cast<double>(samples.shed), "count");
  report.Add("service.degraded", static_cast<double>(samples.degraded),
             "count");
  report.Add("service.deadline", static_cast<double>(samples.deadline),
             "count");
  report.Add("loadgen.lateness_p99_ms", Quantile(lateness, 0.99) * 1e3, "ms",
             lateness.size());
}

}  // namespace perfbench
