#include "replay.hpp"

#include <atomic>
#include <ctime>
#include <unordered_map>

#include "baselines/turboflux.hpp"
#include "core/encoder.hpp"
#include "core/engine.hpp"
#include "core/query_context.hpp"
#include "core/wbm_kernel.hpp"
#include "gpma/gpma.hpp"
#include "gpma/gpma_kernel.hpp"
#include "gpusim/device.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace {

using bdsm::DeviceStats;
using bdsm::UpdateBatch;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs one simulated launch, charging its host wall and CPU time and its
/// modeled time to the gpusim counters.  `launch` returns DeviceStats.
template <typename Fn>
DeviceStats MeteredLaunch(LayerCounts* c, double tick_seconds, Fn&& launch) {
  const double wall0 = WallSeconds();
  const double cpu0 = ProcessCpuSeconds();
  DeviceStats st = launch();
  c->launch_cpu_s += ProcessCpuSeconds() - cpu0;
  c->launch_wall_s += WallSeconds() - wall0;
  c->launch_modeled_s +=
      static_cast<double>(st.makespan_ticks) * tick_seconds;
  ++c->launches;
  return st;
}

void CountWbmLaunch(const DeviceStats& st, LayerCounts* c) {
  c->match_ticks += st.makespan_ticks;
  c->busy_ticks += st.total_busy_ticks;
  c->warp_ticks += st.total_warp_ticks;
  c->steals += st.steal_events;
  c->coalesced_words += st.coalesced_words;
  c->uncoalesced_words += st.uncoalesced_words;
  c->global_tx += st.global_transactions;
  ++c->wbm_launches;
}

#if !BDSM_OBS
#error "the replay reads the GPMA's moved-entry counters from the obs registry"
#endif

/// Gpma::ApplyBatch with observability switched on for the call alone, so
/// the moved and resized entries come from the counters the GPMA publishes
/// from its own plan, not from a copy of their definition.
bdsm::UpdatePlan CountedGpmaApply(bdsm::Gpma* gpma, const UpdateBatch& batch,
                                  LayerCounts* c) {
  auto& registry = bdsm::obs::MetricsRegistry::Instance();
  static bdsm::obs::Counter& moved =
      registry.GetCounter("gpma.plan.moved_entries");
  static bdsm::obs::Counter& resized =
      registry.GetCounter("gpma.plan.resized_entries");
  const uint64_t moved0 = moved.Value(), resized0 = resized.Value();
  bdsm::obs::SetEnabled(true);
  bdsm::UpdatePlan plan = gpma->ApplyBatch(batch);
  bdsm::obs::SetEnabled(false);
  c->gpma_moved += moved.Value() - moved0;
  c->gpma_resized += resized.Value() - resized0;
  return plan;
}

/// One polarity's seeds and the order map of the batch-dedup rule, as the
/// device engines build them.
struct PolaritySeeds {
  std::vector<bdsm::SeedEdge> seeds;
  std::unordered_map<bdsm::Edge, uint32_t, bdsm::EdgeHash> order;
};

PolaritySeeds CollectSeeds(const UpdateBatch& batch, bool positive) {
  PolaritySeeds out;
  uint32_t next = 0;
  for (const bdsm::UpdateOp& op : batch) {
    if (op.is_insert != positive) continue;
    out.seeds.push_back(bdsm::SeedEdge{op.u, op.v, op.elabel, next});
    out.order.emplace(bdsm::Edge(op.u, op.v), next);
    ++next;
  }
  return out;
}

SpanName PhaseSpan(bool positive) {
  return positive ? SpanName::kWbmPos : SpanName::kWbmNeg;
}

// ------------------------------------------------------------- "gamma"

/// Mirrors the "gamma" engine: per query, its own host graph, GPMA,
/// candidate encoder and device; one canonical graph for sanitizing.
class GammaReplay final : public Replay {
 public:
  GammaReplay(const bdsm::LabeledGraph& base,
              const std::vector<bdsm::QueryGraph>& queries,
              SpanRecorder* rec)
      : opts_(bdsm::EngineOptions{}.gamma), graph_(base), rec_(rec) {
    for (const bdsm::QueryGraph& q : queries) {
      auto s = std::make_unique<Slot>(base, q, opts_);
      s->gpma.BuildFrom(s->host);
      s->enc.BuildAll(s->host);
      slots_.push_back(std::move(s));
    }
  }

  BatchOutcome Process(const UpdateBatch& raw, LayerCounts* c) override {
    BatchOutcome out;
    out.matches.assign(slots_.size(), 0);
    ScopedSpan root(rec_, SpanName::kEngineBatch);
    UpdateBatch batch;
    {
      ScopedSpan s(rec_, SpanName::kGraphSanitize);
      batch = bdsm::SanitizeBatch(graph_, raw);
    }
    c->ops += batch.size();
    MatchPhase(batch, /*positive=*/false, &out, c);
    for (auto& slot : slots_) {
      bdsm::UpdatePlan plan;
      {
        ScopedSpan s(rec_, SpanName::kGpmaApply);
        plan = CountedGpmaApply(&slot->gpma, batch, c);
      }
      DeviceStats st;
      {
        ScopedSpan s(rec_, SpanName::kGpusimGpmaSim);
        st = MeteredLaunch(c, Tick(), [&] {
          return bdsm::SimulateGpmaUpdate(slot->device, plan, opts_.gpma);
        });
      }
      c->update_ticks += st.makespan_ticks;
      out.update_ticks += st.makespan_ticks;
      out.truncated = out.truncated || st.timed_out;
      {
        ScopedSpan s(rec_, SpanName::kGraphApply);
        bdsm::ApplyBatch(&slot->host, batch);
      }
      {
        ScopedSpan s(rec_, SpanName::kEncoderReencode);
        slot->enc.ApplyBatchDirty(slot->host, batch);
      }
    }
    {
      ScopedSpan s(rec_, SpanName::kGraphApply);
      bdsm::ApplyBatch(&graph_, batch);
    }
    MatchPhase(batch, /*positive=*/true, &out, c);
    return out;
  }

 private:
  struct Slot {
    Slot(const bdsm::LabeledGraph& base, const bdsm::QueryGraph& q,
         const bdsm::GammaOptions& o)
        : host(base),
          gpma(o.gpma_segment_capacity),
          qctx(bdsm::BuildQueryContext(q, o.coalesced_search,
                                       o.aggressive_coalescing)),
          enc(q),
          device(o.device) {}
    bdsm::LabeledGraph host;
    bdsm::Gpma gpma;
    bdsm::QueryContext qctx;
    bdsm::CandidateEncoder enc;
    bdsm::Device device;
  };

  double Tick() const { return opts_.device.TickSeconds(); }

  void MatchPhase(const UpdateBatch& batch, bool positive, BatchOutcome* out,
                  LayerCounts* c) {
    for (size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = *slots_[i];
      PolaritySeeds seeds;
      {
        ScopedSpan s(rec_, SpanName::kWbmSeed);
        seeds = CollectSeeds(batch, positive);
      }
      if (seeds.seeds.empty()) continue;
      ScopedSpan s(rec_, PhaseSpan(positive));
      bdsm::WbmEnv env{&slot.gpma, &slot.qctx, &slot.enc, &seeds.order,
                       positive};
      env.result_cap = opts_.result_cap;
      bdsm::WbmResult r;
      MeteredLaunch(c, Tick(), [&] {
        r = bdsm::RunWbmKernel(slot.device, env, seeds.seeds);
        return r.stats;
      });
      CountWbmLaunch(r.stats, c);
      out->match_ticks += r.stats.makespan_ticks;
      out->matches[i] += r.matches.size();
      c->wbm_matches += r.matches.size();
      c->wbm_tasks += seeds.seeds.size();
      out->truncated = out->truncated || r.overflowed || r.stats.timed_out;
    }
  }

  bdsm::GammaOptions opts_;
  bdsm::LabeledGraph graph_;
  std::vector<std::unique_ptr<Slot>> slots_;
  SpanRecorder* rec_;
};

// ------------------------------------------------------------- "multi"

/// Mirrors the "multi" engine: one host graph, GPMA and device shared by
/// every query; per query only a query context and an encoder; each
/// polarity's tasks for all queries fused into one launch.
class MultiReplay final : public Replay {
 public:
  MultiReplay(const bdsm::LabeledGraph& base,
              const std::vector<bdsm::QueryGraph>& queries,
              SpanRecorder* rec)
      : opts_(bdsm::EngineOptions{}.gamma),
        host_(base),
        gpma_(opts_.gpma_segment_capacity),
        device_(opts_.device),
        rec_(rec) {
    gpma_.BuildFrom(host_);
    for (const bdsm::QueryGraph& q : queries) {
      auto pq = std::make_unique<PerQuery>(
          bdsm::BuildQueryContext(q, opts_.coalesced_search,
                                  opts_.aggressive_coalescing),
          q);
      pq->enc.BuildAll(host_);
      queries_.push_back(std::move(pq));
    }
  }

  BatchOutcome Process(const UpdateBatch& raw, LayerCounts* c) override {
    BatchOutcome out;
    out.matches.assign(queries_.size(), 0);
    ScopedSpan root(rec_, SpanName::kEngineBatch);
    UpdateBatch batch;
    {
      ScopedSpan s(rec_, SpanName::kGraphSanitize);
      batch = bdsm::SanitizeBatch(host_, raw);
    }
    c->ops += batch.size();
    MatchPhase(batch, /*positive=*/false, &out, c);
    bdsm::UpdatePlan plan;
    {
      ScopedSpan s(rec_, SpanName::kGpmaApply);
      plan = CountedGpmaApply(&gpma_, batch, c);
    }
    DeviceStats st;
    {
      ScopedSpan s(rec_, SpanName::kGpusimGpmaSim);
      st = MeteredLaunch(c, Tick(), [&] {
        return bdsm::SimulateGpmaUpdate(device_, plan, opts_.gpma);
      });
    }
    c->update_ticks += st.makespan_ticks;
    out.update_ticks += st.makespan_ticks;
    out.truncated = out.truncated || st.timed_out;
    {
      ScopedSpan s(rec_, SpanName::kGraphApply);
      bdsm::ApplyBatch(&host_, batch);
    }
    {
      ScopedSpan s(rec_, SpanName::kEncoderReencode);
      for (auto& pq : queries_) pq->enc.ApplyBatchDirty(host_, batch);
    }
    MatchPhase(batch, /*positive=*/true, &out, c);
    return out;
  }

 private:
  struct PerQuery {
    PerQuery(bdsm::QueryContext ctx, const bdsm::QueryGraph& q)
        : qctx(std::move(ctx)), enc(q) {}
    bdsm::QueryContext qctx;
    bdsm::CandidateEncoder enc;
  };

  double Tick() const { return opts_.device.TickSeconds(); }

  void MatchPhase(const UpdateBatch& batch, bool positive, BatchOutcome* out,
                  LayerCounts* c) {
    PolaritySeeds seeds;
    {
      ScopedSpan s(rec_, SpanName::kWbmSeed);
      seeds = CollectSeeds(batch, positive);
    }
    if (seeds.seeds.empty()) return;
    ScopedSpan s(rec_, PhaseSpan(positive));
    std::atomic<size_t> emitted{0};
    std::atomic<bool> overflowed{false};
    std::vector<bdsm::WbmEnv> envs;
    envs.reserve(queries_.size());
    for (auto& pq : queries_) {
      bdsm::WbmEnv env{&gpma_, &pq->qctx, &pq->enc, &seeds.order, positive};
      env.result_cap = opts_.result_cap;
      if (env.result_cap > 0) {
        env.emitted = &emitted;
        env.overflowed = &overflowed;
      }
      envs.push_back(env);
    }
    std::vector<std::vector<std::vector<bdsm::MatchRecord>>> slots(
        queries_.size());
    std::vector<std::unique_ptr<bdsm::WarpTask>> tasks;
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      for (auto& t : bdsm::MakeWbmTasks(envs[qi], seeds.seeds, &slots[qi])) {
        tasks.push_back(std::move(t));
      }
    }
    const DeviceStats st = MeteredLaunch(
        c, Tick(), [&] { return device_.Launch(std::move(tasks)); });
    CountWbmLaunch(st, c);
    out->match_ticks += st.makespan_ticks;
    c->wbm_tasks += seeds.seeds.size() * queries_.size();
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      for (const auto& slot : slots[qi]) {
        out->matches[qi] += slot.size();
        c->wbm_matches += slot.size();
      }
    }
    out->truncated = out->truncated || st.timed_out ||
                     overflowed.load(std::memory_order_relaxed);
  }

  bdsm::GammaOptions opts_;
  bdsm::LabeledGraph host_;
  bdsm::Gpma gpma_;
  bdsm::Device device_;
  std::vector<std::unique_ptr<PerQuery>> queries_;
  SpanRecorder* rec_;
};

// ---------------------------------------------------------------- "tf"

/// TurboFlux-lite with spans around the chassis hooks: the seeded search
/// and the candidate-index refresh (a CandidateEncoder re-encode).
class TracedTurboFlux final : public bdsm::TurboFluxLite {
 public:
  TracedTurboFlux(const bdsm::LabeledGraph& g, const bdsm::QueryGraph& q,
                  SpanRecorder* rec)
      : TurboFluxLite(g, q), rec_(rec) {}

 protected:
  void OnEdgeInserted(bdsm::VertexId u, bdsm::VertexId v,
                      bdsm::Label el) override {
    ScopedSpan s(rec_, SpanName::kEncoderReencode);
    TurboFluxLite::OnEdgeInserted(u, v, el);
  }
  void OnEdgeRemoved(bdsm::VertexId u, bdsm::VertexId v) override {
    ScopedSpan s(rec_, SpanName::kEncoderReencode);
    TurboFluxLite::OnEdgeRemoved(u, v);
  }
  void FindIncremental(bdsm::VertexId v1, bdsm::VertexId v2, bdsm::Label el,
                       bool positive,
                       std::vector<bdsm::MatchRecord>* out) override {
    ScopedSpan s(rec_, SpanName::kCsmSearch);
    CsmEngine::FindIncremental(v1, v2, el, positive, out);
  }

 private:
  SpanRecorder* rec_;
};

/// Mirrors the CSM adapter over "tf": one chassis instance per query, each
/// digesting the batch edge by edge, plus the adapter's canonical graph.
class CsmReplay final : public Replay {
 public:
  CsmReplay(const bdsm::LabeledGraph& base,
            const std::vector<bdsm::QueryGraph>& queries, SpanRecorder* rec)
      : graph_(base), rec_(rec) {
    const size_t cap = bdsm::EngineOptions{}.csm_result_cap;
    for (const bdsm::QueryGraph& q : queries) {
      engines_.push_back(std::make_unique<TracedTurboFlux>(base, q, rec));
      engines_.back()->set_result_cap(cap);
    }
  }

  BatchOutcome Process(const UpdateBatch& raw, LayerCounts* c) override {
    BatchOutcome out;
    std::vector<std::vector<bdsm::MatchRecord>> emitted(engines_.size());
    {
      ScopedSpan root(rec_, SpanName::kEngineBatch);
      UpdateBatch batch;
      {
        ScopedSpan s(rec_, SpanName::kGraphSanitize);
        batch = bdsm::SanitizeBatch(graph_, raw);
      }
      c->ops += batch.size();
      for (size_t i = 0; i < engines_.size(); ++i) {
        ScopedSpan s(rec_, SpanName::kCsmChassis);
        emitted[i] = engines_[i]->ProcessBatch(batch, /*budget=*/0.0);
        out.truncated = out.truncated || engines_[i]->Truncated();
      }
      ScopedSpan s(rec_, SpanName::kGraphApply);
      bdsm::ApplyBatch(&graph_, batch);
    }
    for (const auto& raw_matches : emitted) {
      out.matches.push_back(raw_matches.size());
      c->csm_raw_matches += raw_matches.size();
      c->csm_net_matches += bdsm::NetEffect(raw_matches).size();
    }
    return out;
  }

 private:
  bdsm::LabeledGraph graph_;
  std::vector<std::unique_ptr<TracedTurboFlux>> engines_;
  SpanRecorder* rec_;
};

}  // namespace

std::unique_ptr<Replay> MakeReplay(const std::string& engine,
                                   const bdsm::LabeledGraph& base,
                                   const std::vector<bdsm::QueryGraph>& queries,
                                   SpanRecorder* rec) {
  if (engine == "gamma") {
    return std::make_unique<GammaReplay>(base, queries, rec);
  }
  if (engine == "multi") {
    return std::make_unique<MultiReplay>(base, queries, rec);
  }
  if (engine == "tf") return std::make_unique<CsmReplay>(base, queries, rec);
  return nullptr;
}

}  // namespace perfbench
