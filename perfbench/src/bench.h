#ifndef SIMRANK_PERFBENCH_BENCH_H_
#define SIMRANK_PERFBENCH_BENCH_H_

// Shared types of the repository benchmark (perfbench/README.md).
//
// The benchmark drives the library only through public calls: it builds
// a service::QueryEngine on a registry graph, runs one workload against
// it, checks every answer, and reports named metrics. A traced run
// (--trace 1) additionally replays the query pipeline stage by stage on
// the engine's own searcher to attribute time to the graph and simrank
// layers.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "service/query_engine.h"
#include "util/top_k.h"

namespace perfbench {

using simrank::DirectedGraph;
using simrank::ScoredVertex;
using simrank::Vertex;

/// Thread budget, sized for a 4-core box: the engine's worker pool plus
/// the one client thread in the same process.
inline constexpr uint32_t kEngineWorkers = 3;

/// Vertices per query sample for recall against the exact oracle. The
/// sample is drawn from a fixed seed, not from --seed, so the metric
/// repeats exactly across runs of one build.
inline constexpr size_t kRecallSample = 100;
inline constexpr uint64_t kRecallSeed = 20140622;

/// Engine rankings compared bit for bit against a direct searcher query.
inline constexpr size_t kIdentitySample = 20;

/// Query vertices replayed stage by stage in a traced run.
inline constexpr size_t kReplaySample = 200;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Short run for the benchmark's own tests: fewer set-ups and smaller
  /// samples, every output check still on.
  bool smoke = false;
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples the value summarizes (1 for a single measurement).
  uint64_t samples = 1;
};

/// Everything one run reports: the result line's fields plus the
/// human-readable metric table.
class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           uint64_t samples = 1);

  /// Records a failed output check; the run then reports correct=false
  /// and exits non-zero.
  void CheckFailed(const std::string& what);

  /// Checks one ranking: at most k entries, best-first, every score >=
  /// threshold and finite, no duplicate vertex, and no vertex of
  /// `exclude` (the query vertex or the group members).
  void CheckRanking(const std::vector<ScoredVertex>& top,
                    std::span<const Vertex> exclude, uint32_t k,
                    double threshold);

  /// Counts one attempted request; `ok` false counts it as failed.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  bool correct() const { return check_failures_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t checks() const { return checks_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checks_ = 0;
  uint64_t check_failures_ = 0;
};

/// Nearest-rank quantile (q in [0, 1]) of `values`; sorts in place.
/// 0 for an empty set.
double Quantile(std::vector<double>& values, double q);

/// Mean of `values`; 0 for an empty set.
double Mean(const std::vector<double>& values);

/// The graph and the engine one run measures.
struct Bench {
  std::string dataset;
  DirectedGraph graph;
  std::unique_ptr<simrank::service::QueryEngine> engine;
};

/// Raw per-response data of a timed run, from which the service and
/// loadgen layer metrics of a traced run are derived.
struct ServiceSamples {
  std::vector<double> queue_seconds;
  std::vector<double> overhead_vertex_seconds;
  std::vector<double> overhead_group_seconds;
  std::vector<double> batch_latency_seconds;
  std::vector<double> lateness_seconds;
  double engine_seconds_sum = 0.0;
  double wall_seconds = 0.0;
  uint64_t executed = 0;
  uint64_t cache_hits = 0;
  uint64_t shed = 0;
  uint64_t degraded = 0;
  uint64_t deadline = 0;
};

/// Query vertices a traced run replays; chosen by the workload from
/// its own input distribution.
using ReplayVertices = std::vector<Vertex>;

/// Runs `args.workload` end to end (set-up, timed loop, output checks,
/// recall) and fills `report`. In a traced run, also fills the
/// per-layer metrics. Returns false for an unknown workload.
bool RunWorkload(const Args& args, Report& report);

/// Stage-by-stage replay of the query pipeline for `vertices` on the
/// engine's searcher; adds the graph.* and simrank.* metrics.
void ReplayLayers(const Bench& bench, const ReplayVertices& vertices,
                  uint64_t seed, bool smoke, Report& report);

/// Adds the service.* and loadgen.* metrics derived from a timed run.
void AddServiceMetrics(const ServiceSamples& samples, Report& report);

}  // namespace perfbench

#endif  // SIMRANK_PERFBENCH_BENCH_H_
