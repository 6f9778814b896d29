#ifndef SIMRANK_SIMRANK_WALK_KERNEL_H_
#define SIMRANK_SIMRANK_WALK_KERNEL_H_

// Batched in-link random-walk kernel: the fast path every Monte-Carlo
// estimator in this library bottoms out in (Algorithms 1-4 all reduce to
// stepping R walks T times through RandomInNeighbor).
//
// Every entry point has two loops over the plain in-CSR, chosen per graph
// by DirectedGraph::walk_view().resident (ResidentWalkLayout: in-CSR of
// at most 64 MiB):
//
//  - Resident: one fused loop per walk — offset-row load, inline Lemire
//    draw, element load — with the generator held in registers. Wins
//    whenever the in-CSR is cache-resident, which covers every registry
//    graph.
//  - Batched: a structure-of-arrays block of walks is advanced in three
//    passes. A degree pass resolves each live walk's in-offset row,
//    software-prefetching the row of the walk `kWalkPrefetchDistance`
//    slots ahead; the per-walk bounds are fed to Rng::UniformIndexBatch;
//    a gather pass moves each walk to in_targets[base + draw] after a
//    prefetch sweep over the whole block. Wins once the in-CSR outgrows
//    the caches.
//
// Two stepping disciplines are offered:
//
//  - AdvanceWalksCompact keeps the live walks in a contiguous prefix:
//    a walk that dies (in-degree-0 vertex) is swap-compacted behind the
//    prefix, so subsequent steps loop over live walks only and never
//    rescan tombstones. WalkSet is built on this.
//  - StepWalksInPlace preserves slots (dead walks become kNoVertex in
//    place) for consumers that key state to the slot index, e.g. the
//    witness-walk matrix of Algorithm 4 and the coupled walk pairs of the
//    surfer-pair baseline.
//
// Determinism: draws are consumed in slot order, one per surviving walk,
// so a fixed Rng stream fixes every trajectory regardless of loop or
// batch size.
//
// docs/PERFORMANCE.md records the design and the measured speedups.

#include <cstdint>
#include <span>

#include "graph/graph.h"
#include "util/counter.h"
#include "util/rng.h"

namespace simrank {

/// How many walk slots ahead the kernel prefetches the in-offset row and
/// the neighbor slab. Sized so several independent cache misses are in
/// flight without thrashing L1 (the per-walk metadata of a batch slot is
/// ~16 bytes).
inline constexpr uint32_t kWalkPrefetchDistance = 8;

/// Walks the kernel processes per batch: bounds/bases/draws for one batch
/// live in fixed stack arrays, so stepping allocates nothing.
inline constexpr uint32_t kWalkBatchSize = 128;

/// Advances every walk in positions[0, live) one in-link step. Walks
/// standing on an in-degree-0 vertex die: they are swapped behind the live
/// prefix and their slot is set to kNoVertex, so positions[0, new_live)
/// stays fully live and contiguous. Returns the new live count.
///
/// positions[live, positions.size()) is untouched (presumed kNoVertex from
/// earlier compactions).
uint32_t AdvanceWalksCompact(const DirectedGraph& graph,
                             std::span<Vertex> positions, uint32_t live,
                             Rng& rng);

/// AdvanceWalksCompact that additionally tallies every post-step position
/// into `counter`, block by block as the gather pass writes it. The final
/// counter state (counts and ForEach insertion order) is exactly what
/// counter.AddAll over the surviving prefix would produce afterwards — but
/// the table probes, which are L1-resident compute, execute while the next
/// block's CSR cache misses are in flight, so per-step occupancy counting
/// (the WalkProfile construction loop) comes out largely for free instead
/// of serializing behind the walk step.
uint32_t AdvanceWalksCompactCounted(const DirectedGraph& graph,
                                    std::span<Vertex> positions, uint32_t live,
                                    Rng& rng, WalkCounter& counter);

/// Advances every live walk (!= kNoVertex) in positions one in-link step,
/// keeping each walk in its slot; walks that die are set to kNoVertex in
/// place. Returns the number of walks still alive. Use when slot identity
/// carries meaning (witness matrices, coupled pairs); prefer
/// AdvanceWalksCompact when it does not.
uint32_t StepWalksInPlace(const DirectedGraph& graph,
                          std::span<Vertex> positions, Rng& rng);

/// Batched single-step sampling for index builds: for each i, writes a
/// uniform random in-neighbor of vertices[i] into out[i] (kNoVertex when
/// the vertex has no in-links). One draw per vertex with in-degree > 0, in
/// slot order. vertices and out may alias.
void SampleInNeighbors(const DirectedGraph& graph,
                       std::span<const Vertex> vertices, Rng& rng,
                       Vertex* out);

}  // namespace simrank

#endif  // SIMRANK_SIMRANK_WALK_KERNEL_H_
