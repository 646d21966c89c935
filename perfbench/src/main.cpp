// perfbench: the repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--short] [--spans-out <file>] [--git <describe>]
//
// Untraced (--trace 0): builds the workload's inputs, times MakeEngine +
// AddQuery (set-up), then drives Engine::ProcessBatch over the stationary
// stream for the given seconds, timing every call itself.  Outside the
// timed region it replays the first pass through an independent engine and
// compares every (batch, query) pair's net-effect matches.
//
// Traced (--trace 1): alternates untraced engine passes with passes of the
// layer replay (replay.hpp), checks that the replay reproduces the engine's
// per-batch match counts and modeled ticks exactly, and reports per-layer
// self times and exact counts.
//
// Human-readable lines come first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.  Exit status: 0 when every
// check passed, 1 when a check failed, 2 on a usage or input error.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuSeconds(const rusage& r) {
  return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
         static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) * 1e-6;
}

/// Nearest-rank percentile of unsorted samples; `beyond` receives how many
/// samples lie above the returned rank.
double Percentile(std::vector<double> v, double p, size_t* beyond = nullptr) {
  if (v.empty()) {
    if (beyond) *beyond = 0;
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  if (beyond) *beyond = v.size() - rank;
  return v[rank - 1];
}

double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

/// Whether to start another pass over the stream: always until
/// `min_passes` are done, then only if a pass as long as the average so far
/// would end within `seconds` of `start`.
bool AnotherPass(size_t done, size_t min_passes, Clock::time_point start,
                 double seconds) {
  if (done < min_passes) return true;
  const double elapsed = SecondsSince(start);
  return elapsed + elapsed / static_cast<double>(done) <= seconds;
}

/// Passes whose batch times are kept (best of this many per batch).
constexpr size_t kTimedPasses = 3;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Heap bytes allocated and not yet freed, all arenas, in MiB.
double HeapInUseMb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
  std::string note;  ///< printed on the human line only
};

struct Result {
  std::vector<Metric> metrics;
  size_t attempted = 0;
  size_t failed = 0;
  bool checks_passed = true;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool short_mode = false;
  std::string spans_out;
  std::string git = "unknown";
};

/// A heap allocation of a size that differs with `i`, held while an engine
/// is set up and used, so engines built after different spacers land on
/// different heap layouts.  The layout alone put one engine's set-up time
/// into one of two modes 1.5x apart from one process to the next; the
/// benchmark measures over several layouts instead of trusting one.
class Spacer {
 public:
  explicit Spacer(size_t i) : bytes_(64 + (i * 4160) % 65536) {
    // Keep the allocation from being elided.
    asm volatile("" : : "r"(bytes_.data()) : "memory");
  }

 private:
  std::vector<char> bytes_;
};

/// MakeEngine plus every AddQuery: what `setup_s` times.
std::unique_ptr<bdsm::Engine> SetUp(const std::string& spec,
                                    const Inputs& in) {
  auto engine = bdsm::MakeEngine(spec, in.base);
  for (const bdsm::QueryGraph& q : in.queries) engine->AddQuery(q);
  return engine;
}

/// A fresh engine assigns query ids 0..n-1 in registration order;
/// DigestSink indexes by them.
void CheckQueryIds(const bdsm::Engine& engine) {
  const std::vector<bdsm::QueryId> ids = engine.QueryIds();
  for (size_t i = 0; i < ids.size(); ++i) GAMMA_CHECK(ids[i] == i);
}

/// Modeled device makespan of a batch in microseconds (0 for host-clock
/// engines).
double ModeledMicros(const bdsm::BatchReport& r, double tick_seconds) {
  return static_cast<double>(r.update_stats.makespan_ticks +
                             r.match_stats.makespan_ticks) *
         tick_seconds * 1e6;
}

/// Streams every match into its query's net-effect digest, so no match is
/// ever materialized: the engines run in their bounded-memory mode.
class DigestSink final : public bdsm::ResultSink {
 public:
  explicit DigestSink(size_t num_queries) : digests_(num_queries) {}
  void OnMatch(bdsm::QueryId q, const bdsm::MatchRecord& m) override {
    AddToDigest(m, &digests_[q]);
  }
  /// This batch's digests, query ids in registration order; resets them.
  std::vector<Digest> Take() {
    std::vector<Digest> out(digests_.size());
    out.swap(digests_);
    return out;
  }

 private:
  std::vector<Digest> digests_;  ///< indexed by QueryId (0..n-1)
};

/// One batch's per-query outcome as the match check sees it.
struct Checked {
  std::vector<Digest> digests;
  std::vector<bool> truncated;
};

Checked Collect(const bdsm::BatchReport& rep, DigestSink* sink) {
  Checked c{sink->Take(), {}};
  for (const bdsm::QueryReport& q : rep.queries) {
    c.truncated.push_back(q.Truncated());
  }
  return c;
}

bdsm::BatchOptions Streaming(DigestSink* sink) {
  bdsm::BatchOptions opts;
  opts.sink = sink;
  opts.materialize = false;
  return opts;
}

// ------------------------------------------------------------ untraced

Result RunUntraced(const Workload& w, const Options& opt, const Inputs& in) {
  Result res;
  const size_t pass_len = in.pass.size();
  const size_t nq = in.queries.size();

  // One untimed set-up first: the process's first is always the slowest.
  bdsm::EngineInfo info;
  {
    const auto engine = SetUp(w.engine, in);
    CheckQueryIds(*engine);
    info = engine->Describe();
  }
  const bool device_clock = info.clock == bdsm::ClockDomain::kModeledDevice;

  // Timed loop: whole passes over the stream.  Each pass sets up a fresh
  // engine on a new heap layout and warms it with one untimed cycle; the
  // stream returns to the dataset twin after every cycle, so every pass
  // digests the same batches from the same state.  Each batch keeps its
  // best wall and CPU time over the first kTimedPasses passes, which
  // filters out interference from whatever else the host runs and the luck
  // of any one heap layout.  The count is fixed: a minimum over more
  // samples is lower, so letting a faster program run more timed passes
  // would flatter it twice.  Passes after those, while the seconds last,
  // only add to the match check.
  //
  // Set-up is timed on throwaway engines spread over the timed passes, one
  // before every cycle, and `setup_s` is their median.  The host's speed
  // shifts by up to 1.5x over a tenth of a second; a dozen set-ups in a row
  // see one such state, and their median moves by a third between runs.
  std::vector<double> best_ms(pass_len, INFINITY);
  std::vector<double> best_cpu_s(pass_len, INFINITY);
  std::vector<double> modeled_us;
  std::vector<Checked> first_pass;
  DigestSink sink(nq);
  const bdsm::BatchOptions opts = Streaming(&sink);
  uint64_t raw_total = 0;
  double engine_mb = 0.0;
  std::vector<double> setup_s;
  size_t passes = 0, mismatched = 0, trunc_pairs = 0;
  const auto loop_start = Clock::now();
  for (; AnotherPass(passes, kTimedPasses, loop_start, opt.seconds);
       ++passes) {
    const Spacer spacer(passes);
    const double heap_before_mb = HeapInUseMb();
    const auto engine = SetUp(w.engine, in);
    for (size_t j = 0; j < kCycleLen; ++j) {
      engine->ProcessBatch(in.pass[j], opts);
      sink.Take();
    }
    for (size_t j = 0; j < pass_len; ++j) {
      if (passes < kTimedPasses && j % kCycleLen == 0) {
        const auto t0 = Clock::now();
        const auto throwaway = SetUp(w.engine, in);
        setup_s.push_back(SecondsSince(t0));
      }
      rusage r0{}, r1{};
      getrusage(RUSAGE_SELF, &r0);
      const auto t0 = Clock::now();
      const bdsm::BatchReport rep = engine->ProcessBatch(in.pass[j], opts);
      const double dt = SecondsSince(t0);
      getrusage(RUSAGE_SELF, &r1);
      if (passes < kTimedPasses) {
        best_ms[j] = std::min(best_ms[j], dt * 1e3);
        best_cpu_s[j] =
            std::min(best_cpu_s[j], CpuSeconds(r1) - CpuSeconds(r0));
      }
      Checked got = Collect(rep, &sink);
      if (passes == 0) {
        if (device_clock) {
          modeled_us.push_back(ModeledMicros(rep, info.tick_seconds));
        }
        raw_total += rep.TotalMatches();
        first_pass.push_back(std::move(got));
        continue;
      }
      // Later passes must repeat the first exactly.
      for (size_t q = 0; q < nq; ++q) {
        const bool trunc = got.truncated[q];
        trunc_pairs += trunc;
        mismatched +=
            !trunc && !(got.digests[q] == first_pass[j].digests[q]);
      }
    }
    // Every pass ends on the dataset twin: what the engine holds here is
    // its steady state, free of any batch's transient buffers.  The last
    // timed pass counts; only the first adds to the benchmark's own data.
    if (passes + 1 == kTimedPasses) {
      engine_mb = HeapInUseMb() - heap_before_mb;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("memory peak_rss_mb=%.3f (transient match buffers included)\n",
              static_cast<double>(ru.ru_maxrss) / 1024.0);

  // Match check, untimed: the independent engine digests one pass.  Its
  // batch times are printed as the comparison point, not gated.
  auto check = SetUp(kCheckEngine, in);
  CheckQueryIds(*check);
  uint64_t check_raw_total = 0;
  std::vector<double> check_ms;
  for (size_t j = 0; j < pass_len; ++j) {
    const auto t0 = Clock::now();
    const bdsm::BatchReport rep = check->ProcessBatch(in.pass[j], opts);
    check_ms.push_back(SecondsSince(t0) * 1e3);
    check_raw_total += rep.TotalMatches();
    const Checked want = Collect(rep, &sink);
    for (size_t q = 0; q < nq; ++q) {
      const bool trunc = first_pass[j].truncated[q] || want.truncated[q];
      trunc_pairs += trunc;
      mismatched +=
          !trunc && !(first_pass[j].digests[q] == want.digests[q]);
    }
  }
  check.reset();

  res.attempted = passes * pass_len * nq;
  res.failed = mismatched + trunc_pairs;
  res.checks_passed = res.failed == 0;
  std::printf(
      "check engine=%s check_engine=%s passes=%zu timed_passes=%zu "
      "pass_batches=%zu "
      "raw_matches=%llu check_raw_matches=%llu mismatched_pairs=%zu "
      "truncated_pairs=%zu failed_share=%.6g check_p50_ms=%.6g "
      "check_p95_ms=%.6g\n",
      w.engine, kCheckEngine, passes, kTimedPasses, pass_len,
      static_cast<unsigned long long>(raw_total),
      static_cast<unsigned long long>(check_raw_total), mismatched,
      trunc_pairs,
      Ratio(static_cast<double>(res.failed),
            static_cast<double>(res.attempted)),
      Percentile(check_ms, 50), Percentile(check_ms, 95));

  // Stationarity: the two halves of the stream should cost the same.
  const std::vector<double> first(best_ms.begin(),
                                  best_ms.begin() + pass_len / 2);
  const std::vector<double> second(best_ms.begin() + pass_len / 2,
                                   best_ms.end());
  const double p50_first = Median(first), p50_second = Median(second);
  std::printf(
      "stationarity first_half_p50_ms=%.6g second_half_p50_ms=%.6g "
      "relative_change=%.4f max_drift_ops=%zu\n",
      p50_first, p50_second, Ratio(p50_second - p50_first, p50_first),
      in.max_drift_ops);

  double wall_s = 0.0, cpu_s = 0.0, updates = 0.0;
  for (size_t j = 0; j < pass_len; ++j) {
    wall_s += best_ms[j] * 1e-3;
    cpu_s += best_cpu_s[j];
    updates += static_cast<double>(in.pass[j].size());
  }
  size_t beyond50 = 0, beyond95 = 0, mbeyond50 = 0, mbeyond95 = 0;
  const double p50 = Percentile(best_ms, 50, &beyond50);
  const double p95 = Percentile(best_ms, 95, &beyond95);
  const double m50 = Percentile(modeled_us, 50, &mbeyond50);
  const double m95 = Percentile(modeled_us, 95, &mbeyond95);
  const std::string best = "best_of=" + std::to_string(kTimedPasses);
  res.metrics = {
      {"updates_per_s", Ratio(updates, wall_s), "1/s", pass_len, best},
      {"batch_p50_ms", p50, "ms", pass_len,
       best + " beyond=" + std::to_string(beyond50)},
      {"batch_p95_ms", p95, "ms", pass_len,
       best + " beyond=" + std::to_string(beyond95)},
      {"modeled_p50_us", m50, "us", modeled_us.size(),
       "beyond=" + std::to_string(mbeyond50)},
      {"modeled_p95_us", m95, "us", modeled_us.size(),
       "beyond=" + std::to_string(mbeyond95)},
      {"cpu_ms_per_kupdate", Ratio(cpu_s * 1e3, updates / 1e3), "ms",
       pass_len, best},
      {"engine_mb", engine_mb, "MB", 1, "end of last timed pass"},
      {"setup_s", Median(setup_s), "s", setup_s.size(),
       "median min=" + std::to_string(Percentile(setup_s, 0)) +
           " max=" + std::to_string(Percentile(setup_s, 100))},
  };
  return res;
}

// -------------------------------------------------------------- traced

/// An engine and the layer replay that mirrors it, over the same inputs.
struct TracedEngine {
  TracedEngine(const std::string& spec, const Inputs& in)
      : name(spec),
        engine(SetUp(spec, in)),
        replay(MakeReplay(spec, in.base, in.queries, &rec)) {
    CheckQueryIds(*engine);
    GAMMA_CHECK_MSG(replay != nullptr, "no layer replay for this engine");
  }
  TracedEngine(const TracedEngine&) = delete;  // replay points at rec
  TracedEngine& operator=(const TracedEngine&) = delete;

  std::string name;
  SpanRecorder rec;
  std::unique_ptr<bdsm::Engine> engine;
  std::unique_ptr<Replay> replay;
  std::vector<LayerCounts> counts;  ///< one per replayed batch
  double engine_wall_s = 0.0;       ///< untraced, same batches
  size_t fidelity_failures = 0;
};

/// The first `batches` batches of the stream (whole cycles), untraced
/// through the engine and then traced through the replay.  A replayed batch
/// whose match counts or modeled ticks differ from the engine's counts as
/// failed.
void TracePass(const Inputs& in, size_t batches, TracedEngine* t) {
  const size_t pass_len = std::min(batches, in.pass.size());
  DigestSink sink(in.queries.size());
  const bdsm::BatchOptions opts = Streaming(&sink);
  std::vector<BatchOutcome> expected(pass_len);
  for (size_t j = 0; j < pass_len; ++j) {
    const auto t0 = Clock::now();
    const bdsm::BatchReport rep = t->engine->ProcessBatch(in.pass[j], opts);
    t->engine_wall_s += SecondsSince(t0);
    sink.Take();
    BatchOutcome& e = expected[j];
    for (const bdsm::QueryReport& q : rep.queries) {
      e.matches.push_back(q.TotalMatches());
    }
    e.update_ticks = rep.update_stats.makespan_ticks;
    e.match_ticks = rep.match_stats.makespan_ticks;
    e.truncated = rep.Truncated();
  }
  for (size_t j = 0; j < pass_len; ++j) {
    t->rec.BeginBatch(static_cast<uint32_t>(t->counts.size()));
    t->counts.emplace_back();
    const BatchOutcome got = t->replay->Process(in.pass[j], &t->counts.back());
    const BatchOutcome& e = expected[j];
    if (got.truncated || e.truncated || got.matches != e.matches ||
        got.update_ticks != e.update_ticks ||
        got.match_ticks != e.match_ticks) {
      ++t->fidelity_failures;
    }
  }
}

/// Per-batch layer self times and exact counts of one traced engine.
/// Times are taken over every replayed batch.  Counts and ticks come from
/// the first `exact_batches` only: the GPMA's layout depends on its
/// history (window redistribution, resizes with hysteresis), so later
/// passes start from a layout the first pass left behind, and how many of
/// them a run makes depends on the host's speed.
struct LayerSummary {
  LayerSummary(const TracedEngine& t, size_t exact_batches);

  double SpanMs(SpanName n) const {
    return Median(self_ms[static_cast<size_t>(n)]);
  }

  std::vector<std::vector<double>> self_ms;  ///< [span name][batch]
  LayerCounts exact;  ///< first `exact_batches`; launch_* fields unused
  std::vector<double> update_ticks, match_ticks, global_tx, matches,
      launches;  ///< per batch, first `exact_batches`
  double launch_wall_s = 0.0, launch_cpu_s = 0.0, launch_modeled_s = 0.0;
  double layer_self_s = 0.0;   ///< every span but the replay roots
  double replay_wall_s = 0.0;  ///< the replay roots
};

LayerSummary::LayerSummary(const TracedEngine& t, size_t exact_batches)
    : self_ms(static_cast<size_t>(SpanName::kCount),
              std::vector<double>(t.counts.size(), 0.0)) {
  const std::vector<uint64_t> self = t.rec.SelfNanos();
  for (size_t i = 0; i < t.rec.spans().size(); ++i) {
    const Span& s = t.rec.spans()[i];
    self_ms[static_cast<size_t>(s.name)][s.batch] += self[i] * 1e-6;
    if (s.name == SpanName::kEngineBatch) {
      replay_wall_s += (s.end_ns - s.start_ns) * 1e-9;
    } else {
      layer_self_s += self[i] * 1e-9;
    }
  }
  for (const LayerCounts& c : t.counts) {
    launch_wall_s += c.launch_wall_s;
    launch_cpu_s += c.launch_cpu_s;
    launch_modeled_s += c.launch_modeled_s;
  }
  const size_t n = std::min(exact_batches, t.counts.size());
  for (size_t i = 0; i < n; ++i) {
    const LayerCounts& c = t.counts[i];
    update_ticks.push_back(static_cast<double>(c.update_ticks));
    match_ticks.push_back(static_cast<double>(c.match_ticks));
    global_tx.push_back(static_cast<double>(c.global_tx));
    matches.push_back(static_cast<double>(c.wbm_matches));
    launches.push_back(static_cast<double>(c.launches));
    exact.ops += c.ops;
    exact.gpma_moved += c.gpma_moved;
    exact.gpma_resized += c.gpma_resized;
    exact.busy_ticks += c.busy_ticks;
    exact.warp_ticks += c.warp_ticks;
    exact.steals += c.steals;
    exact.wbm_tasks += c.wbm_tasks;
    exact.coalesced_words += c.coalesced_words;
    exact.uncoalesced_words += c.uncoalesced_words;
    exact.wbm_launches += c.wbm_launches;
    exact.wbm_matches += c.wbm_matches;
    exact.csm_raw_matches += c.csm_raw_matches;
    exact.csm_net_matches += c.csm_net_matches;
  }
}

/// Writes the spans of the first `batches` replayed batches of each engine.
bool WriteSpans(const std::string& path, size_t batches,
                const std::vector<const TracedEngine*>& engines) {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (!f) return false;
  std::fprintf(f.get(), "engine\tindex\tname\tbatch\tparent\tstart_ns\t"
                        "end_ns\n");
  for (const TracedEngine* t : engines) {
    t->rec.WriteTsv(f.get(), t->name.c_str(), batches);
  }
  return std::fflush(f.get()) == 0 && !std::ferror(f.get());
}

/// Cycles of the stream the CSM baseline is traced over.
constexpr size_t kCsmTraceCycles = 2;

Result RunTraced(const Workload& w, const Options& opt, const Inputs& in) {
  TracedEngine timed(w.engine, in);
  const auto loop_start = Clock::now();
  for (size_t pass = 0; AnotherPass(pass, 1, loop_start, opt.seconds);
       ++pass) {
    TracePass(in, in.pass.size(), &timed);
  }
  // The CSM baseline that checks this workload's matches, traced over the
  // first cycles of the same stream: the `baselines` layer's metrics.  Its
  // spans are per edge, so a few cycles keep them to a few hundred
  // thousand.
  TracedEngine csm(kCheckEngine, in);
  TracePass(in, kCsmTraceCycles * kCycleLen, &csm);

  Result res;
  res.attempted = timed.counts.size() + csm.counts.size();
  res.failed = timed.fidelity_failures + csm.fidelity_failures;
  res.checks_passed = res.failed == 0;

  const LayerSummary L(timed, in.pass.size());
  const LayerSummary C(csm, csm.counts.size());
  auto d = [](uint64_t x) { return static_cast<double>(x); };
  std::printf(
      "replay engine=%s batches=%zu fidelity_failures=%zu "
      "first_pass_wbm_matches=%llu "
      "csm_engine=%s csm_batches=%zu csm_fidelity_failures=%zu "
      "csm_raw_matches=%llu csm_net_matches=%llu\n",
      w.engine, timed.counts.size(), timed.fidelity_failures,
      static_cast<unsigned long long>(L.exact.wbm_matches), kCheckEngine,
      csm.counts.size(), csm.fidelity_failures,
      static_cast<unsigned long long>(C.exact.csm_raw_matches),
      static_cast<unsigned long long>(C.exact.csm_net_matches));

  // Samples: nb replayed batches for times, ne first-pass batches for
  // the exact counts and ticks.
  const size_t nb = timed.counts.size(), nc = csm.counts.size();
  const size_t ne = L.update_ticks.size();
  res.metrics = {
      {"graph.sanitize_ms", L.SpanMs(SpanName::kGraphSanitize), "ms", nb, ""},
      {"graph.apply_ms", L.SpanMs(SpanName::kGraphApply), "ms", nb, ""},
      {"gpma.apply_ms", L.SpanMs(SpanName::kGpmaApply), "ms", nb, ""},
      {"gpusim.gpma_sim_ms", L.SpanMs(SpanName::kGpusimGpmaSim), "ms", nb,
       ""},
      {"encoder.reencode_ms", L.SpanMs(SpanName::kEncoderReencode), "ms", nb,
       ""},
      {"gpma.moved_per_update", Ratio(d(L.exact.gpma_moved), d(L.exact.ops)),
       "count", ne, ""},
      {"gpma.resized_per_update",
       Ratio(d(L.exact.gpma_resized), d(L.exact.ops)), "count", ne, ""},
      {"gpma.update_ticks", Median(L.update_ticks), "ticks", ne, ""},
      {"wbm.seed_ms", L.SpanMs(SpanName::kWbmSeed), "ms", nb, ""},
      {"wbm.neg_ms", L.SpanMs(SpanName::kWbmNeg), "ms", nb, ""},
      {"wbm.pos_ms", L.SpanMs(SpanName::kWbmPos), "ms", nb, ""},
      {"wbm.match_ticks", Median(L.match_ticks), "ticks", ne, ""},
      {"wbm.warp_util", Ratio(d(L.exact.busy_ticks), d(L.exact.warp_ticks)),
       "ratio", ne, ""},
      {"wbm.steals_per_task", Ratio(d(L.exact.steals), d(L.exact.wbm_tasks)),
       "ratio", ne, ""},
      {"wbm.coalesced_share",
       Ratio(d(L.exact.coalesced_words),
             d(L.exact.coalesced_words + L.exact.uncoalesced_words)),
       "ratio", ne, ""},
      {"wbm.global_tx", Median(L.global_tx), "count", ne, ""},
      {"wbm.matches", Median(L.matches), "count", ne, ""},
      {"gpusim.launches", Median(L.launches), "count", ne, ""},
      {"gpusim.cpu_per_wall", Ratio(L.launch_cpu_s, L.launch_wall_s), "ratio",
       nb, ""},
      {"gpusim.host_s_per_modeled_s",
       Ratio(L.launch_wall_s, L.launch_modeled_s), "s/s", nb, ""},
      {"multi.tasks_per_launch",
       Ratio(d(L.exact.wbm_tasks), d(L.exact.wbm_launches)), "count", ne, ""},
      {"csm.search_ms", C.SpanMs(SpanName::kCsmSearch), "ms", nc,
       "engine=" + csm.name},
      {"csm.graph_apply_ms", C.SpanMs(SpanName::kCsmChassis), "ms", nc,
       "engine=" + csm.name},
      {"csm.raw_per_net_match",
       Ratio(d(C.exact.csm_raw_matches), d(C.exact.csm_net_matches)), "ratio",
       nc, "engine=" + csm.name},
      {"trace.coverage", Ratio(L.layer_self_s, timed.engine_wall_s), "ratio",
       nb, ""},
      {"trace.overhead_pct",
       Ratio(L.replay_wall_s - timed.engine_wall_s, timed.engine_wall_s) *
           100.0,
       "%", nb, ""},
  };

  if (!opt.spans_out.empty() &&
      !WriteSpans(opt.spans_out, kCycleLen, {&timed, &csm})) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 opt.spans_out.c_str());
    res.checks_passed = false;
  }
  return res;
}

// -------------------------------------------------------------- output

void PrintResult(const Result& res) {
  for (const Metric& m : res.metrics) {
    std::printf("metric %s value=%.9g unit=%s samples=%zu%s%s\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.samples,
                m.note.empty() ? "" : " ", m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              res.checks_passed ? "true" : "false", res.attempted,
              res.failed);
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--short] [--spans-out <file>] "
               "[--git <describe>]\nworkloads:",
               msg);
  for (const Workload& w : AllWorkloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUnsigned(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

size_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<size_t>(CPU_COUNT(&set));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    uint64_t v = 0;
    if (a == "--short") {
      opt.short_mode = true;
    } else if (!has_value) {
      return Usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed") {
      if (!ParseUnsigned(argv[++i], &opt.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (a == "--seconds") {
      if (!ParseUnsigned(argv[++i], &v) || v < 1 || v > 3600) {
        return Usage("bad --seconds (1..3600)");
      }
      opt.seconds = static_cast<double>(v);
      have_seconds = true;
    } else if (a == "--trace") {
      if (!ParseUnsigned(argv[++i], &v) || v > 1) return Usage("bad --trace");
      opt.trace = v == 1;
      have_trace = true;
    } else if (a == "--spans-out") {
      opt.spans_out = argv[++i];
    } else if (a == "--git") {
      opt.git = argv[++i];
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  const Workload* w = FindWorkload(opt.workload);
  if (!w) return Usage(("unknown workload " + opt.workload).c_str());

  Inputs in;
  std::string error;
  if (!MakeInputs(*w, opt.seed, opt.short_mode, &in, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  std::printf(
      "perfbench workload=%s engine=%s seed=%llu seconds=%g trace=%d "
      "short=%d\n",
      w->name, w->engine, static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, opt.short_mode ? 1 : 0);
  std::printf(
      "provenance git=%s nproc=%zu hardware_concurrency=%u build=%s "
      "dataset=%s vertices=%zu edges=%zu queries=%zu ops_per_batch=%zu "
      "pass_batches=%zu\n",
      opt.git.c_str(), AffinityCpus(), std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE,
      bdsm::AllDatasets()[static_cast<size_t>(w->dataset)].short_name,
      in.base.NumVertices(), in.base.NumEdges(), in.queries.size(),
      w->ops_per_batch, in.pass.size());
  std::fflush(stdout);

  const Result res = opt.trace ? RunTraced(*w, opt, in)
                               : RunUntraced(*w, opt, in);
  PrintResult(res);
  return res.checks_passed ? 0 : 1;
}
