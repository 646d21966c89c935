// The traced replay: digests the same stream as an engine, but by calling
// the lower layers' public functions directly (graph, gpma, gpusim,
// encoder, wbm, baselines) with a span around each call, so host time and
// exact counts can be attributed to the layer that spent them.  Each replay
// mirrors the structure of the engine it stands in for, which is what lets
// the benchmark demand that it reproduce the engine's per-batch match
// counts and modeled ticks exactly.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/labeled_graph.hpp"
#include "graph/query_graph.hpp"
#include "graph/update_stream.hpp"
#include "spans.hpp"

namespace perfbench {

/// What the engine's BatchReport must agree with.
struct BatchOutcome {
  std::vector<size_t> matches;  ///< per query, raw positive + negative
  uint64_t update_ticks = 0;    ///< update_stats.makespan_ticks
  uint64_t match_ticks = 0;     ///< match_stats.makespan_ticks
  bool truncated = false;
};

/// Exact per-batch counts recorded at the layer boundaries, plus the host
/// cost of the simulated launches.
struct LayerCounts {
  uint64_t ops = 0;                  ///< sanitized updates
  uint64_t gpma_moved = 0;           ///< gpma.plan.moved_entries
  uint64_t gpma_resized = 0;         ///< gpma.plan.resized_entries
  uint64_t update_ticks = 0;
  uint64_t match_ticks = 0;
  uint64_t busy_ticks = 0;           ///< WBM launches only, from here down
  uint64_t warp_ticks = 0;
  uint64_t steals = 0;
  uint64_t wbm_tasks = 0;            ///< warp tasks launched (one per seed)
  uint64_t coalesced_words = 0;
  uint64_t uncoalesced_words = 0;
  uint64_t global_tx = 0;
  uint64_t wbm_launches = 0;
  uint64_t launches = 0;             ///< every Device::Launch, GPMA included
  double launch_wall_s = 0.0;
  double launch_cpu_s = 0.0;         ///< process CPU, all launch threads
  double launch_modeled_s = 0.0;
  uint64_t wbm_matches = 0;
  uint64_t csm_raw_matches = 0;      ///< CSM chassis, as emitted
  uint64_t csm_net_matches = 0;      ///< after NetEffect
};

class Replay {
 public:
  virtual ~Replay() = default;
  /// Digests one raw batch; the root span covers exactly the engine work.
  virtual BatchOutcome Process(const bdsm::UpdateBatch& raw,
                               LayerCounts* counts) = 0;
};

/// A replay of engine `engine` ("gamma", "multi" or "tf") over `base` with
/// `queries` registered, recording into `rec`; nullptr for other engines.
std::unique_ptr<Replay> MakeReplay(const std::string& engine,
                                   const bdsm::LabeledGraph& base,
                                   const std::vector<bdsm::QueryGraph>& queries,
                                   SpanRecorder* rec);

}  // namespace perfbench
