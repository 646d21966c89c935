// Workload definitions and input generation of the repository benchmark.
//
// A workload fixes the engine, the dataset twin, the query recipe and the
// stream recipe; the seed only draws the update stream.  Queries come from
// a fixed extraction seed so that every seed measures the same patterns —
// the run-to-run spread then reflects the stream, not a different query mix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/match.hpp"
#include "graph/datasets.hpp"
#include "graph/labeled_graph.hpp"
#include "graph/query_graph.hpp"
#include "graph/update_stream.hpp"

namespace perfbench {

/// Independent engine for every workload's match check; traced runs also
/// replay it for the `baselines` layer's metrics, so it is a CSM baseline.
inline constexpr const char* kCheckEngine = "tf";
/// Batches generated forward per cycle; each cycle is followed by the
/// inverses of its batches in reverse order, so the graph returns to the
/// dataset twin every kCycleLen batches.
inline constexpr size_t kHalfCycle = 8;
inline constexpr size_t kCycleLen = 2 * kHalfCycle;

struct Workload {
  const char* name;
  const char* engine;        ///< timed engine spec
  bdsm::DatasetId dataset;
  size_t ops_per_batch;
  size_t num_queries;
  size_t query_size;
  /// Cycles per pass, sized so that the timed passes fill a 15-second run
  /// on a 4-core host.  Exact metrics come from the first pass.
  size_t cycles;
};

const std::vector<Workload>& AllWorkloads();
const Workload* FindWorkload(const std::string& name);

struct Inputs {
  bdsm::LabeledGraph base;
  std::vector<bdsm::QueryGraph> queries;
  std::vector<bdsm::UpdateBatch> pass;
  size_t max_drift_ops = 0;  ///< most ops any batch is away from `base`
};

/// Builds the workload's inputs for `seed`.  `short_mode` keeps one cycle.
/// Returns false with `error` when the stream is not effective op
/// for op or does not return to the dataset twin after every cycle.
bool MakeInputs(const Workload& w, uint64_t seed, bool short_mode,
                Inputs* out, std::string* error);

/// Order-independent digest of a query's net-effect matches (what
/// bdsm::NetDelta returns), built one raw match at a time: each match adds
/// its assignment's hash with its polarity as sign.  A (+,-) pair on one
/// assignment — the only redundancy NetDelta removes — contributes zero, so
/// two raw match streams have equal digests exactly when their NetDelta
/// sets are equal, up to a 2^-64 hash collision.
struct Digest {
  int64_t balance = 0;  ///< positives minus negatives
  uint64_t hash = 0;
  friend bool operator==(const Digest&, const Digest&) = default;
};
void AddToDigest(const bdsm::MatchRecord& m, Digest* d);

}  // namespace perfbench
