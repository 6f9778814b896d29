#ifndef SIMRANK_SIMRANK_SLING_H_
#define SIMRANK_SIMRANK_SLING_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "simrank/searcher_backend.h"
#include "simrank/top_k_searcher.h"
#include "util/freelist.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace simrank {

/// SLING-style precomputed similarity index (PAPERS.md): instead of
/// sampling walks at query time, precompute every vertex's *hitting
/// probabilities* — the walk distributions h_u^(t) = P^t e_u of the
/// linear formulation (9)
///
///   s^(T)(u,v) = sum_t c^t (P^t e_u)^T D (P^t e_v)
///
/// — sparsified by dropping entries below a precision threshold eps, and
/// answer queries by deterministic sparse products against the stored
/// vectors. The t = 0 term is the trivial self-term (e_u^T D e_v = 0 for
/// u != v), so only steps 1..T-1 are materialized.
///
/// Storage per step t: a CSR of rows h_u^(t) (columns sorted) plus its
/// transpose (rows indexed by the *via* vertex w listing every source v
/// with h_v^(t)(w) > 0), which is what single-source queries walk: for
/// each w reached by the query vertex, every other vertex that also
/// reaches w collects weight c^t h_u(w) D(w) h_v(w). The transpose is
/// rebuilt on construction and never serialized.
///
/// Accuracy: exact up to the eps pruning (absolute score error O(T eps)
/// in practice) — no sampling variance, bit-identical across runs and
/// thread counts.
class SlingIndex {
 public:
  /// One step's sparse rows. `offsets` has num_vertices + 1 entries;
  /// row u's (column, probability) pairs sit in [offsets[u], offsets[u+1])
  /// with columns strictly increasing.
  struct StepCsr {
    std::vector<uint64_t> offsets;
    std::vector<Vertex> cols;
    std::vector<float> vals;
  };

  /// Deterministically builds the index: propagates every vertex's walk
  /// distribution T-1 steps, pruning entries below
  /// `options.sling.precision` after each step. `diagonal` is the
  /// correction vector D (one entry per vertex). `pool` may be null.
  static SlingIndex Build(const DirectedGraph& graph,
                          const SearchOptions& options,
                          std::vector<double> diagonal,
                          ThreadPool* pool = nullptr);

  /// Reassembles an index from already-validated parts (the load path);
  /// rebuilds the transposes. `steps` holds num_steps - 1 entries.
  static SlingIndex FromData(Vertex num_vertices, double decay,
                             uint32_t num_steps, double precision,
                             std::vector<double> diagonal,
                             std::vector<StepCsr> steps);

  Vertex num_vertices() const { return num_vertices_; }
  double decay() const { return decay_; }
  uint32_t num_steps() const { return num_steps_; }
  double precision() const { return precision_; }
  const std::vector<double>& diagonal() const { return diagonal_; }

  /// Forward rows, entry t-1 holding step t (t = 1..num_steps-1).
  const std::vector<StepCsr>& steps() const { return steps_; }
  /// Transposed rows, same indexing.
  const std::vector<StepCsr>& transpose() const { return transpose_; }

  /// Stored hitting-probability entries across all steps (forward only).
  uint64_t NumEntries() const;
  /// Bytes held by the index (forward + transpose + diagonal).
  uint64_t MemoryBytes() const;
  /// Seconds spent inside Build() (0 for FromData).
  double build_seconds() const { return build_seconds_; }

 private:
  SlingIndex() = default;

  void BuildTranspose();

  Vertex num_vertices_ = 0;
  double decay_ = 0.0;
  uint32_t num_steps_ = 0;
  double precision_ = 0.0;
  double build_seconds_ = 0.0;
  std::vector<double> diagonal_;
  std::vector<StepCsr> steps_;
  std::vector<StepCsr> transpose_;
};

/// Persists `index` with the durable-write machinery (temp + fsync +
/// rename; see util/serialize.h). Fault site: "sling.index.save".
Status SaveSlingIndex(const SlingIndex& index, const std::string& path);

/// Loads an index written by SaveSlingIndex, validating it against
/// `graph` (vertex/edge counts) and `options` (decay, num_steps,
/// sling.precision) and structurally (CSR monotonicity, column range,
/// value range) before trusting any of it. Fault site:
/// "sling.index.load".
Result<SlingIndex> LoadSlingIndex(const DirectedGraph& graph,
                                  const SearchOptions& options,
                                  const std::string& path);

/// The SLING index behind the backend contract: Build() precomputes the
/// hitting-probability index, queries are deterministic sparse products
/// (no sampling), serialization round-trips through SaveBackendIndex /
/// LoadBackendIndex.
class SlingBackend : public SearcherBackend {
 public:
  /// The graph must outlive the backend.
  SlingBackend(const DirectedGraph& graph, const SearchOptions& options);
  /// Adopts a loaded index (the deserialization path).
  SlingBackend(const DirectedGraph& graph, const SearchOptions& options,
               SlingIndex index);
  ~SlingBackend() override;

  BackendKind kind() const override { return BackendKind::kSling; }
  BackendCapabilities capabilities() const override {
    return {.needs_build = true,
            .serializable = true,
            .deterministic = true,
            .checkpointed_all_pairs = false};
  }

  void Build(ThreadPool* pool = nullptr) override;
  bool built() const override { return index_ != nullptr; }
  double preprocess_seconds() const override { return preprocess_seconds_; }
  uint64_t MemoryBytes() const override;

  QueryResult Query(Vertex query,
                    const QueryOverrides& overrides = {}) const override;
  double Pair(Vertex u, Vertex v) const override;

  const DirectedGraph& graph() const override { return graph_; }
  const SearchOptions& options() const override { return options_; }

  /// The wrapped index; requires built().
  const SlingIndex& index() const { return *index_; }

 private:
  struct Workspace;

  const DirectedGraph& graph_;
  SearchOptions options_;
  std::unique_ptr<SlingIndex> index_;
  double preprocess_seconds_ = 0.0;
  std::unique_ptr<Freelist<Workspace>> workspaces_;
};

}  // namespace simrank

#endif  // SIMRANK_SIMRANK_SLING_H_
