#include "simrank/sling.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "simrank/diagonal.h"
#include "simrank/linear.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/serialize.h"
#include "util/timer.h"
#include "util/top_k.h"

namespace simrank {

namespace {

constexpr uint64_t kSlingMagic = 0x53524b53'4c473031ULL;  // "SRKSLG01"

// Registry-backed query metrics shared with the Monte-Carlo path: the
// sling backend reports into the same query.count / query.latency_ns
// series so cross-backend traffic aggregates in one place (per-backend
// split lives in the service.backend.* counters).
struct SlingMetrics {
  obs::Counter& queries;
  obs::Histogram& latency_ns;

  SlingMetrics()
      : queries(obs::MetricsRegistry::Default().GetCounter("query.count")),
        latency_ns(obs::MetricsRegistry::Default().GetHistogram(
            "query.latency_ns")) {}

  static SlingMetrics& Get() {
    static SlingMetrics metrics;
    return metrics;
  }
};

// One source vertex's pruned hitting-probability rows, one per step
// t = 1..T-1, columns sorted. The per-chunk build scratch below fills
// these; the CSR assembly concatenates them.
using SparseRow = std::vector<std::pair<Vertex, float>>;

// Propagates source `u` through `num_steps - 1` steps of the in-link
// transition (the P of the linear formulation: a walk at w moves to a
// uniform random in-neighbor of w), pruning entries below `precision`
// after every step. `value` / `support` are dense-size-n scratch owned by
// the calling chunk; both are left clean on return.
void PropagateSource(const DirectedGraph& graph, Vertex u, uint32_t num_steps,
                     double precision, std::vector<double>& value,
                     std::vector<Vertex>& support,
                     std::span<SparseRow> out_rows) {
  std::vector<Vertex> frontier = {u};
  std::vector<double> frontier_value = {1.0};
  for (uint32_t t = 1; t < num_steps; ++t) {
    for (size_t i = 0; i < frontier.size(); ++i) {
      const Vertex w = frontier[i];
      const uint32_t degree = graph.InDegree(w);
      if (degree == 0) continue;
      const double share = frontier_value[i] / degree;
      for (Vertex in : graph.InNeighbors(w)) {
        if (value[in] == 0.0) support.push_back(in);
        value[in] += share;
      }
    }
    std::sort(support.begin(), support.end());
    frontier.clear();
    frontier_value.clear();
    SparseRow& row = out_rows[t - 1];
    for (Vertex w : support) {
      if (value[w] >= precision) {
        row.emplace_back(w, static_cast<float>(value[w]));
        frontier.push_back(w);
        frontier_value.push_back(value[w]);
      }
      value[w] = 0.0;
    }
    support.clear();
    if (frontier.empty()) break;  // all mass pruned or dangling
  }
}

}  // namespace

SlingIndex SlingIndex::Build(const DirectedGraph& graph,
                             const SearchOptions& options,
                             std::vector<double> diagonal, ThreadPool* pool) {
  obs::ScopedSpan span("sling_build");
  WallTimer timer;
  const Vertex n = graph.NumVertices();
  const uint32_t num_steps = options.simrank.num_steps;
  const double precision = options.sling.precision;
  SIMRANK_CHECK_EQ(diagonal.size(), n);

  SlingIndex index;
  index.num_vertices_ = n;
  index.decay_ = options.simrank.decay;
  index.num_steps_ = num_steps;
  index.precision_ = precision;
  index.diagonal_ = std::move(diagonal);

  const uint32_t materialized = num_steps > 0 ? num_steps - 1 : 0;
  // rows[u] holds source u's per-step pruned vectors; chunks write
  // disjoint sources, so the parallel fill needs no synchronization.
  std::vector<std::vector<SparseRow>> rows(n);
  const auto build_chunk = [&](Vertex lo, Vertex hi) {
    std::vector<double> value(n, 0.0);
    std::vector<Vertex> support;
    for (Vertex u = lo; u < hi; ++u) {
      rows[u].resize(materialized);
      PropagateSource(graph, u, num_steps, precision, value, support,
                      std::span<SparseRow>(rows[u]));
    }
  };
  // One dense scratch per chunk, amortized over the chunk's sources: the
  // same num_threads * 4 chunks ParallelFor cuts, one chunk per index.
  const size_t num_chunks = std::max<size_t>(
      1, std::min<size_t>(n, pool != nullptr ? pool->num_threads() * 4 : 1));
  const size_t chunk = (n + num_chunks - 1) / num_chunks;
  ParallelFor(pool, 0, num_chunks, [&](size_t c) {
    build_chunk(static_cast<Vertex>(std::min<size_t>(c * chunk, n)),
                static_cast<Vertex>(std::min<size_t>((c + 1) * chunk, n)));
  });

  // Serial CSR assembly in vertex order: deterministic for any thread
  // count, and the forward rows come out column-sorted (PropagateSource
  // sorts each row's support).
  index.steps_.resize(materialized);
  for (uint32_t s = 0; s < materialized; ++s) {
    StepCsr& csr = index.steps_[s];
    csr.offsets.resize(static_cast<size_t>(n) + 1, 0);
    uint64_t nnz = 0;
    for (Vertex u = 0; u < n; ++u) {
      nnz += rows[u][s].size();
      csr.offsets[u + 1] = nnz;
    }
    csr.cols.reserve(nnz);
    csr.vals.reserve(nnz);
    for (Vertex u = 0; u < n; ++u) {
      for (const auto& [col, val] : rows[u][s]) {
        csr.cols.push_back(col);
        csr.vals.push_back(val);
      }
      rows[u][s] = SparseRow();  // release as we go
    }
  }
  index.BuildTranspose();
  index.build_seconds_ = timer.ElapsedSeconds();
  return index;
}

SlingIndex SlingIndex::FromData(Vertex num_vertices, double decay,
                                uint32_t num_steps, double precision,
                                std::vector<double> diagonal,
                                std::vector<StepCsr> steps) {
  SlingIndex index;
  index.num_vertices_ = num_vertices;
  index.decay_ = decay;
  index.num_steps_ = num_steps;
  index.precision_ = precision;
  index.diagonal_ = std::move(diagonal);
  index.steps_ = std::move(steps);
  index.BuildTranspose();
  return index;
}

void SlingIndex::BuildTranspose() {
  const Vertex n = num_vertices_;
  transpose_.clear();
  transpose_.resize(steps_.size());
  for (size_t s = 0; s < steps_.size(); ++s) {
    const StepCsr& fwd = steps_[s];
    StepCsr& tr = transpose_[s];
    tr.offsets.assign(static_cast<size_t>(n) + 1, 0);
    for (Vertex col : fwd.cols) ++tr.offsets[col + 1];
    for (size_t w = 0; w < n; ++w) tr.offsets[w + 1] += tr.offsets[w];
    tr.cols.resize(fwd.cols.size());
    tr.vals.resize(fwd.vals.size());
    std::vector<uint64_t> cursor(tr.offsets.begin(), tr.offsets.end() - 1);
    // Source-major fill order leaves every transpose row sorted by source.
    for (Vertex u = 0; u < n; ++u) {
      for (uint64_t i = fwd.offsets[u]; i < fwd.offsets[u + 1]; ++i) {
        const uint64_t slot = cursor[fwd.cols[i]]++;
        tr.cols[slot] = u;
        tr.vals[slot] = fwd.vals[i];
      }
    }
  }
}

uint64_t SlingIndex::NumEntries() const {
  uint64_t total = 0;
  for (const StepCsr& csr : steps_) total += csr.cols.size();
  return total;
}

uint64_t SlingIndex::MemoryBytes() const {
  uint64_t bytes = diagonal_.size() * sizeof(double);
  for (const std::vector<StepCsr>* side : {&steps_, &transpose_}) {
    for (const StepCsr& csr : *side) {
      bytes += csr.offsets.size() * sizeof(uint64_t) +
               csr.cols.size() * sizeof(Vertex) +
               csr.vals.size() * sizeof(float);
    }
  }
  return bytes;
}

Status SaveSlingIndex(const SlingIndex& index, const std::string& path) {
  SIMRANK_FAULT_POINT("sling.index.save");
  BinaryWriter writer(path);
  writer.Write(kSlingMagic);
  writer.Write<uint64_t>(index.num_vertices());
  writer.Write<double>(index.decay());
  writer.Write<uint32_t>(index.num_steps());
  writer.Write<double>(index.precision());
  writer.WriteVector(index.diagonal());
  for (const SlingIndex::StepCsr& csr : index.steps()) {
    writer.WriteVector(csr.offsets);
    writer.WriteVector(csr.cols);
    writer.WriteVector(csr.vals);
  }
  return writer.Finish();
}

Result<SlingIndex> LoadSlingIndex(const DirectedGraph& graph,
                                  const SearchOptions& options,
                                  const std::string& path) {
  SIMRANK_FAULT_POINT("sling.index.load");
  BinaryReader reader(path);
  uint64_t magic = 0, num_vertices = 0;
  double decay = 0.0, precision = 0.0;
  uint32_t num_steps = 0;
  if (!reader.Read(magic) || magic != kSlingMagic) {
    return reader.ok()
               ? Status::Corruption(path + " is not a sling index file")
               : reader.status();
  }
  if (!reader.Read(num_vertices) || !reader.Read(decay) ||
      !reader.Read(num_steps) || !reader.Read(precision)) {
    return reader.status();
  }
  if (num_vertices != graph.NumVertices()) {
    return Status::InvalidArgument(
        path + " was built for a different graph (vertex count mismatch)");
  }
  if (decay != options.simrank.decay ||
      num_steps != options.simrank.num_steps) {
    return Status::InvalidArgument(
        path + " was built with different SimRank parameters");
  }
  if (precision != options.sling.precision) {
    return Status::InvalidArgument(
        path + " was built with a different sling.precision");
  }
  std::vector<double> diagonal;
  if (!reader.ReadVector(diagonal)) return reader.status();
  if (diagonal.size() != num_vertices) {
    return Status::Corruption(path + ": diagonal size mismatch");
  }
  const uint32_t materialized = num_steps > 0 ? num_steps - 1 : 0;
  std::vector<SlingIndex::StepCsr> steps(materialized);
  for (SlingIndex::StepCsr& csr : steps) {
    if (!reader.ReadVector(csr.offsets) || !reader.ReadVector(csr.cols) ||
        !reader.ReadVector(csr.vals)) {
      return reader.status();
    }
    if (csr.offsets.size() != num_vertices + 1 || csr.offsets.front() != 0 ||
        csr.offsets.back() != csr.cols.size() ||
        csr.vals.size() != csr.cols.size()) {
      return Status::Corruption(path + ": sling step CSR mismatch");
    }
    for (size_t i = 0; i + 1 < csr.offsets.size(); ++i) {
      if (csr.offsets[i] > csr.offsets[i + 1]) {
        return Status::Corruption(path + ": non-monotone sling offsets");
      }
    }
    for (Vertex col : csr.cols) {
      if (col >= num_vertices) {
        return Status::Corruption(path + ": sling column out of range");
      }
    }
    for (float val : csr.vals) {
      if (!std::isfinite(val) || val < 0.0f || val > 1.0f) {
        return Status::Corruption(path + ": sling probability out of range");
      }
    }
  }
  return SlingIndex::FromData(static_cast<Vertex>(num_vertices), decay,
                              num_steps, precision, std::move(diagonal),
                              std::move(steps));
}

/// Dense score accumulator + touched list for single-source queries.
/// Construction is O(n); the backend's freelist recycles instances so
/// query loops never re-pay it.
struct SlingBackend::Workspace {
  explicit Workspace(Vertex n) : scores(n, 0.0) {}
  std::vector<double> scores;
  std::vector<Vertex> touched;
};

SlingBackend::SlingBackend(const DirectedGraph& graph,
                           const SearchOptions& options)
    : graph_(graph),
      options_(options),
      workspaces_(std::make_unique<Freelist<Workspace>>()) {}

SlingBackend::SlingBackend(const DirectedGraph& graph,
                           const SearchOptions& options, SlingIndex index)
    : graph_(graph),
      options_(options),
      index_(std::make_unique<SlingIndex>(std::move(index))),
      workspaces_(std::make_unique<Freelist<Workspace>>()) {
  SIMRANK_CHECK_EQ(index_->num_vertices(), graph.NumVertices());
}

SlingBackend::~SlingBackend() = default;

void SlingBackend::Build(ThreadPool* pool) {
  if (index_ != nullptr) return;
  WallTimer timer;
  std::vector<double> diagonal =
      options_.estimate_diagonal
          ? EstimateDiagonalFixedPoint(graph_, options_.simrank,
                                       options_.diagonal_options, pool)
          : UniformDiagonal(graph_.NumVertices(), options_.simrank.decay);
  index_ = std::make_unique<SlingIndex>(
      SlingIndex::Build(graph_, options_, std::move(diagonal), pool));
  preprocess_seconds_ = timer.ElapsedSeconds();
  obs::MetricsRegistry::Default()
      .GetGauge("sling.index_bytes")
      .Set(static_cast<int64_t>(index_->MemoryBytes()));
}

uint64_t SlingBackend::MemoryBytes() const {
  return index_ != nullptr ? index_->MemoryBytes() : 0;
}

QueryResult SlingBackend::Query(Vertex query,
                                const QueryOverrides& overrides) const {
  obs::ScopedSpan span("sling_query");
  SIMRANK_CHECK(index_ != nullptr);
  SIMRANK_CHECK_LT(query, graph_.NumVertices());
  WallTimer timer;
  const uint32_t k = overrides.k.value_or(options_.k);
  const double threshold = overrides.threshold.value_or(options_.threshold);
  const std::vector<double>& diagonal = index_->diagonal();

  std::unique_ptr<Workspace> workspace = workspaces_->Acquire(
      [this] { return std::make_unique<Workspace>(graph_.NumVertices()); });
  std::vector<double>& scores = workspace->scores;
  std::vector<Vertex>& touched = workspace->touched;

  // score[v] = sum_t c^t sum_w h_u(t, w) D(w) h_v(t, w): walk the query's
  // forward row, fan each via-vertex w out over the transpose column (the
  // other sources that reach w at the same step).
  double ct = index_->decay();
  for (size_t s = 0; s < index_->steps().size(); ++s) {
    const SlingIndex::StepCsr& fwd = index_->steps()[s];
    const SlingIndex::StepCsr& tr = index_->transpose()[s];
    for (uint64_t i = fwd.offsets[query]; i < fwd.offsets[query + 1]; ++i) {
      const Vertex w = fwd.cols[i];
      const double weight = ct * fwd.vals[i] * diagonal[w];
      for (uint64_t j = tr.offsets[w]; j < tr.offsets[w + 1]; ++j) {
        const Vertex v = tr.cols[j];
        if (scores[v] == 0.0) touched.push_back(v);
        scores[v] += weight * tr.vals[j];
      }
    }
    ct *= index_->decay();
  }

  QueryResult result;
  result.stats.candidates_enumerated = touched.size();
  TopKCollector collector(k);
  for (Vertex v : touched) {
    if (v != query && scores[v] >= threshold) collector.Push(v, scores[v]);
    scores[v] = 0.0;  // leave the workspace clean
  }
  touched.clear();
  workspaces_->Release(std::move(workspace));
  result.top = collector.TakeSorted();
  result.stats.seconds = timer.ElapsedSeconds();
  SlingMetrics& metrics = SlingMetrics::Get();
  metrics.queries.Add(1);
  metrics.latency_ns.Record(
      static_cast<uint64_t>(result.stats.seconds * 1e9));
  return result;
}

double SlingBackend::Pair(Vertex u, Vertex v) const {
  SIMRANK_CHECK(index_ != nullptr);
  SIMRANK_CHECK_LT(u, graph_.NumVertices());
  SIMRANK_CHECK_LT(v, graph_.NumVertices());
  if (u == v) return 1.0;
  const std::vector<double>& diagonal = index_->diagonal();
  double sum = 0.0;
  double ct = index_->decay();
  // Column-sorted rows merge with two pointers — no dense scratch.
  for (const SlingIndex::StepCsr& fwd : index_->steps()) {
    uint64_t i = fwd.offsets[u];
    uint64_t j = fwd.offsets[v];
    const uint64_t i_end = fwd.offsets[u + 1];
    const uint64_t j_end = fwd.offsets[v + 1];
    while (i < i_end && j < j_end) {
      const Vertex wu = fwd.cols[i];
      const Vertex wv = fwd.cols[j];
      if (wu < wv) {
        ++i;
      } else if (wv < wu) {
        ++j;
      } else {
        sum += ct * static_cast<double>(fwd.vals[i]) * diagonal[wu] *
               static_cast<double>(fwd.vals[j]);
        ++i;
        ++j;
      }
    }
    ct *= index_->decay();
  }
  return sum;
}

}  // namespace simrank
