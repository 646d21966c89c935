#include "workload.hpp"

#include <algorithm>

#include "util/rng.hpp"
#include "workload/scenario.hpp"
#include "workload/stream_gen.hpp"

namespace perfbench {

namespace {

/// Query extraction seed shared by every run of every workload.
constexpr uint64_t kQuerySeed = 2024;
/// DeriveSeed stream id of cycle c is kCycleStream + c.
constexpr uint64_t kCycleStream = 100;

bdsm::UpdateBatch Inverse(const bdsm::UpdateBatch& batch) {
  bdsm::UpdateBatch inv = batch;
  for (bdsm::UpdateOp& op : inv) op.is_insert = !op.is_insert;
  return inv;
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  using bdsm::DatasetId;
  // Why each workload exists is recorded in perfbench/README.md.
  static const std::vector<Workload> kWorkloads = {
      {.name = "match-heavy", .engine = "gamma",
       .dataset = DatasetId::kGithub, .ops_per_batch = 200,
       .num_queries = 4, .query_size = 5, .cycles = 24},
      {.name = "update-heavy", .engine = "gamma",
       .dataset = DatasetId::kLiveJournal, .ops_per_batch = 1000,
       .num_queries = 4, .query_size = 5, .cycles = 18},
      {.name = "multi-query", .engine = "multi",
       .dataset = DatasetId::kGithub, .ops_per_batch = 200,
       .num_queries = 12, .query_size = 4, .cycles = 40},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool MakeInputs(const Workload& w, uint64_t seed, bool short_mode,
                Inputs* out, std::string* error) {
  out->base = bdsm::LoadDataset(w.dataset);

  bdsm::workload::ScenarioSpec qspec;
  qspec.num_queries = w.num_queries;
  qspec.query_size = w.query_size;
  qspec.mixed_classes = true;
  out->queries = bdsm::workload::BuildQuerySet(out->base, qspec, kQuerySeed);
  if (out->queries.size() != w.num_queries) {
    *error = "query extraction returned too few queries";
    return false;
  }

  bdsm::workload::StreamSpec sspec;
  sspec.kind = bdsm::workload::StreamKind::kUniform;
  sspec.num_batches = kHalfCycle;
  sspec.ops_per_batch = w.ops_per_batch;
  sspec.insert_fraction = 0.5;
  const size_t cycles = short_mode ? 1 : w.cycles;
  out->pass.clear();
  out->max_drift_ops = 0;
  for (size_t c = 0; c < cycles; ++c) {
    bdsm::workload::StreamGenerator gen(
        sspec, bdsm::DeriveSeed(seed, kCycleStream + c));
    std::vector<bdsm::UpdateBatch> fwd = gen.Generate(out->base);
    for (const bdsm::UpdateBatch& b : fwd) out->pass.push_back(b);
    for (auto it = fwd.rbegin(); it != fwd.rend(); ++it) {
      out->pass.push_back(Inverse(*it));
    }
  }

  // Every op must take effect, and every cycle must end on the twin.
  bdsm::LabeledGraph g = out->base;
  size_t drift = 0;
  for (size_t i = 0; i < out->pass.size(); ++i) {
    const bdsm::UpdateBatch& b = out->pass[i];
    if (b.empty() || bdsm::SanitizeBatch(g, b).size() != b.size()) {
      *error = "generated batch " + std::to_string(i) + " is not effective";
      return false;
    }
    bdsm::ApplyBatch(&g, b);
    drift = (i % kCycleLen) < kHalfCycle ? drift + b.size()
                                           : drift - b.size();
    out->max_drift_ops = std::max(out->max_drift_ops, drift);
    if ((i + 1) % kCycleLen == 0 &&
        (drift != 0 || g.NumEdges() != out->base.NumEdges())) {
      *error = "cycle ending at batch " + std::to_string(i) +
               " does not return to the dataset twin";
      return false;
    }
  }
  return true;
}

void AddToDigest(const bdsm::MatchRecord& m, Digest* d) {
  uint64_t h = bdsm::SplitMix64(m.n);
  for (uint8_t i = 0; i < m.n; ++i) h = bdsm::SplitMix64(h ^ m.m[i]);
  d->hash += m.positive ? h : 0 - h;
  d->balance += m.positive ? 1 : -1;
}

}  // namespace perfbench
