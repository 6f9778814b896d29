#include "simrank/walk_kernel.h"

#include <cstddef>

namespace simrank {

namespace {

inline void PrefetchRead(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/1);
#else
  (void)address;
#endif
}

// -------------------------------------------------------------------------
// Resident fused loops: the in-CSR fits the cache hierarchy.
//
// When the offsets + targets the walks touch are cache-resident, the
// batched machinery below is pure overhead: the prefetch sweeps request
// lines that are already present, and staging bases/bounds/draws through
// lane arrays adds L1 traffic to loads that would hit anyway. A single
// fused loop — one offset-row load, one inline Lemire draw, one element
// load per walk — measures ~1.5-1.9x faster at this scale
// (docs/PERFORMANCE.md).
//
// The generator runs in a local copy for the duration of each loop: with
// the state behind the caller's reference, the compiler must round-trip
// all four xoshiro words through memory every iteration (the position
// stores could alias it), which puts a store-forward on the serial draw
// chain — the critical path of these loops.
//
// Draw-for-draw identical to the batched loops: one UniformIndex per
// surviving walk, in slot order.
// -------------------------------------------------------------------------

inline uint32_t AdvanceCompactResident(const WalkView& view,
                                       std::span<Vertex> positions,
                                       uint32_t live, Rng& rng,
                                       WalkCounter* counter) {
  const uint64_t* offsets = view.offsets;
  const Vertex* targets = view.targets;
  Vertex* slots = positions.data();
  Rng local_rng = rng;
  uint32_t i = 0;
  while (i < live) {
    const Vertex p = slots[i];
    const uint64_t lo = offsets[p];
    const uint64_t hi = offsets[p + 1];
    if (lo == hi) {
      --live;
      slots[i] = slots[live];
      slots[live] = kNoVertex;
      continue;
    }
    slots[i] =
        targets[lo + local_rng.UniformIndex(static_cast<uint32_t>(hi - lo))];
    ++i;
  }
  rng = local_rng;
  // Count after the step rather than fused into it: swap-compaction leaves
  // the survivors in the [0, live) prefix in slot order, so one contiguous
  // 16-lane AddAllPresized pass replaces a per-walk scalar Add whose
  // hash -> probe serial chain would otherwise dominate counted stepping.
  // Capacity contract as in the batched loop: the caller presized the
  // counter for the pre-step live count, so this never grows.
  if (counter != nullptr) counter->AddAllPresized({slots, live});
  return live;
}

inline uint32_t StepInPlaceResident(const WalkView& view,
                                    std::span<Vertex> positions, Rng& rng) {
  const uint64_t* offsets = view.offsets;
  const Vertex* targets = view.targets;
  Rng local_rng = rng;
  uint32_t alive = 0;
  for (Vertex& p : positions) {
    if (p == kNoVertex) continue;
    const uint64_t lo = offsets[p];
    const uint64_t hi = offsets[p + 1];
    if (lo == hi) {
      p = kNoVertex;
      continue;
    }
    p = targets[lo + local_rng.UniformIndex(static_cast<uint32_t>(hi - lo))];
    ++alive;
  }
  rng = local_rng;
  return alive;
}

// Safe under vertices == out: slot i is fully consumed before out[i] is
// written.
inline void SampleResident(const WalkView& view,
                           std::span<const Vertex> vertices, Rng& rng,
                           Vertex* out) {
  const uint64_t* offsets = view.offsets;
  const Vertex* targets = view.targets;
  Rng local_rng = rng;
  for (size_t i = 0; i < vertices.size(); ++i) {
    const Vertex v = vertices[i];
    if (v == kNoVertex) {
      out[i] = kNoVertex;
      continue;
    }
    const uint64_t lo = offsets[v];
    const uint64_t hi = offsets[v + 1];
    out[i] = lo == hi ? kNoVertex
                      : targets[lo + local_rng.UniformIndex(
                                         static_cast<uint32_t>(hi - lo))];
  }
  rng = local_rng;
}

// -------------------------------------------------------------------------
// Batched prefetch loops: the in-CSR exceeds the cache hierarchy.
//
// Three passes over blocks of up to kWalkBatchSize walks: resolve offset
// rows (prefetching kWalkPrefetchDistance slots ahead), draw every bound
// in one Rng::UniformIndexBatch call, then gather after a prefetch sweep
// that puts every lane's element miss in flight at once.
// -------------------------------------------------------------------------

inline uint32_t AdvanceCompactBatched(const WalkView& view,
                                      std::span<Vertex> positions,
                                      uint32_t live, Rng& rng,
                                      WalkCounter* counter) {
  // Tiny populations can't amortize the batch machinery (stack lanes,
  // prefetch sweeps); the fused loop is draw-for-draw identical, so the
  // cutoff is invisible to callers.
  if (live <= 2 * kWalkPrefetchDistance) {
    return AdvanceCompactResident(view, positions, live, rng, counter);
  }
  const uint64_t* offsets = view.offsets;
  const Vertex* targets = view.targets;
  uint64_t base[kWalkBatchSize];
  uint32_t bound[kWalkBatchSize];
  uint32_t draw[kWalkBatchSize];
  // Fused counting runs one block behind the gather: block k's positions
  // are tallied after block k+1's target prefetch sweep has been issued,
  // so the L1-resident table probes execute while k+1's misses resolve
  // (counting straight after k's own sweep would stall on those lines).
  uint32_t pending_start = 0;
  uint32_t pending_lanes = 0;
  uint32_t i = 0;
  while (i < live) {
    // Pass 1: resolve in-offset rows for up to one batch of walks starting
    // at slot i. A walk standing on an in-degree-0 vertex dies here: the
    // last live walk is swapped into its slot (and re-resolved), so the
    // batch lanes map to the contiguous slot range [block_start, i).
    const uint32_t block_start = i;
    uint32_t lanes = 0;
    while (i < live && lanes < kWalkBatchSize) {
      const uint32_t ahead = i + kWalkPrefetchDistance;
      if (ahead < live) PrefetchRead(&offsets[positions[ahead]]);
      const Vertex p = positions[i];
      const uint64_t lo = offsets[p];
      const uint64_t hi = offsets[p + 1];
      if (lo == hi) {
        --live;
        positions[i] = positions[live];
        positions[live] = kNoVertex;
        continue;
      }
      base[lanes] = lo;
      bound[lanes] = static_cast<uint32_t>(hi - lo);
      ++lanes;
      ++i;
    }
    if (lanes == 0) break;
    // Pass 2: one bulk bounded draw per surviving walk, in slot order.
    rng.UniformIndexBatch({bound, lanes}, draw);
    // Pass 3: gather the new positions. All target addresses are known
    // once the draws land, so a dedicated prefetch sweep first puts every
    // lane's miss in flight at once (bounded by the LFBs, but far more
    // memory-level parallelism than prefetching a fixed distance ahead
    // inside the gather loop).
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      PrefetchRead(&targets[base[lane] + draw[lane]]);
    }
    // Count the previous block while this block's prefetches land.
    // Capacity contract: the caller presized the counter for `live`
    // distinct keys, so per-block growth can never be needed.
    if (counter != nullptr && pending_lanes > 0) {
      counter->AddAllPresized({positions.data() + pending_start,
                               pending_lanes});
    }
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      positions[block_start + lane] = targets[base[lane] + draw[lane]];
    }
    // Cross-step prefetch: the very next thing the caller's next Advance
    // does with these positions is load their in-offset rows in pass 1.
    // Requesting the rows now lets those misses resolve during the rest of
    // this step (remaining blocks, the caller's per-step work) instead of
    // stalling the next one. Multi-step loops — every WalkSet consumer —
    // are the common case; for a final step the requests are merely wasted.
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      PrefetchRead(&offsets[positions[block_start + lane]]);
    }
    pending_start = block_start;
    pending_lanes = lanes;
  }
  if (counter != nullptr && pending_lanes > 0) {
    counter->AddAllPresized({positions.data() + pending_start, pending_lanes});
  }
  return live;
}

inline uint32_t StepInPlaceBatched(const WalkView& view,
                                   std::span<Vertex> positions, Rng& rng) {
  const uint64_t* offsets = view.offsets;
  const Vertex* targets = view.targets;
  uint64_t base[kWalkBatchSize];
  uint32_t bound[kWalkBatchSize];
  uint32_t draw[kWalkBatchSize];
  uint32_t slot[kWalkBatchSize];
  const size_t n = positions.size();
  uint32_t alive = 0;
  size_t i = 0;
  while (i < n) {
    // Pass 1 as in the compact loop, but dead walks keep their slot
    // (kNoVertex tombstone) and each lane remembers which slot it serves.
    uint32_t lanes = 0;
    while (i < n && lanes < kWalkBatchSize) {
      const size_t ahead = i + kWalkPrefetchDistance;
      if (ahead < n && positions[ahead] != kNoVertex) {
        PrefetchRead(&offsets[positions[ahead]]);
      }
      const Vertex p = positions[i];
      if (p == kNoVertex) {
        ++i;
        continue;
      }
      const uint64_t lo = offsets[p];
      const uint64_t hi = offsets[p + 1];
      if (lo == hi) {
        positions[i] = kNoVertex;
        ++i;
        continue;
      }
      base[lanes] = lo;
      bound[lanes] = static_cast<uint32_t>(hi - lo);
      slot[lanes] = static_cast<uint32_t>(i);
      ++lanes;
      ++i;
    }
    if (lanes == 0) continue;
    rng.UniformIndexBatch({bound, lanes}, draw);
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      PrefetchRead(&targets[base[lane] + draw[lane]]);
    }
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      positions[slot[lane]] = targets[base[lane] + draw[lane]];
    }
    // Cross-step prefetch of the new positions' offset rows (see
    // AdvanceCompactBatched).
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      PrefetchRead(&offsets[positions[slot[lane]]]);
    }
    alive += lanes;
  }
  return alive;
}

inline void SampleBatched(const WalkView& view,
                          std::span<const Vertex> vertices, Rng& rng,
                          Vertex* out) {
  const uint64_t* offsets = view.offsets;
  const Vertex* targets = view.targets;
  uint64_t base[kWalkBatchSize];
  uint32_t bound[kWalkBatchSize];
  uint32_t draw[kWalkBatchSize];
  uint32_t slot[kWalkBatchSize];
  const size_t n = vertices.size();
  size_t i = 0;
  // Aliasing note: each batch reads vertices[] only from its own slot range
  // (plus prefetch peeks ahead, which tolerate stale values) before writing
  // out[] for those same slots, so vertices == out is safe.
  while (i < n) {
    uint32_t lanes = 0;
    while (i < n && lanes < kWalkBatchSize) {
      const size_t ahead = i + kWalkPrefetchDistance;
      if (ahead < n && vertices[ahead] != kNoVertex) {
        PrefetchRead(&offsets[vertices[ahead]]);
      }
      const Vertex v = vertices[i];
      if (v == kNoVertex) {
        out[i] = kNoVertex;
        ++i;
        continue;
      }
      const uint64_t lo = offsets[v];
      const uint64_t hi = offsets[v + 1];
      if (lo == hi) {
        out[i] = kNoVertex;
        ++i;
        continue;
      }
      base[lanes] = lo;
      bound[lanes] = static_cast<uint32_t>(hi - lo);
      slot[lanes] = static_cast<uint32_t>(i);
      ++lanes;
      ++i;
    }
    if (lanes == 0) continue;
    rng.UniformIndexBatch({bound, lanes}, draw);
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      PrefetchRead(&targets[base[lane] + draw[lane]]);
    }
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      out[slot[lane]] = targets[base[lane] + draw[lane]];
    }
  }
}

inline uint32_t AdvanceWalksCompactImpl(const DirectedGraph& graph,
                                        std::span<Vertex> positions,
                                        uint32_t live, Rng& rng,
                                        WalkCounter* counter) {
  SIMRANK_CHECK_LE(live, positions.size());
  const WalkView view = graph.walk_view();
  return view.resident
             ? AdvanceCompactResident(view, positions, live, rng, counter)
             : AdvanceCompactBatched(view, positions, live, rng, counter);
}

}  // namespace

uint32_t AdvanceWalksCompact(const DirectedGraph& graph,
                             std::span<Vertex> positions, uint32_t live,
                             Rng& rng) {
  return AdvanceWalksCompactImpl(graph, positions, live, rng, nullptr);
}

uint32_t AdvanceWalksCompactCounted(const DirectedGraph& graph,
                                    std::span<Vertex> positions, uint32_t live,
                                    Rng& rng, WalkCounter& counter) {
  return AdvanceWalksCompactImpl(graph, positions, live, rng, &counter);
}

uint32_t StepWalksInPlace(const DirectedGraph& graph,
                          std::span<Vertex> positions, Rng& rng) {
  const WalkView view = graph.walk_view();
  return view.resident ? StepInPlaceResident(view, positions, rng)
                       : StepInPlaceBatched(view, positions, rng);
}

void SampleInNeighbors(const DirectedGraph& graph,
                       std::span<const Vertex> vertices, Rng& rng,
                       Vertex* out) {
  const WalkView view = graph.walk_view();
  if (view.resident) {
    SampleResident(view, vertices, rng, out);
  } else {
    SampleBatched(view, vertices, rng, out);
  }
}

}  // namespace simrank
