// In-memory span recorder of the traced run.  Spans are opened and closed
// around calls into the library's layers, on one thread, so they nest
// strictly; a span's parent is the span open when it started, and every
// span of one batch carries that batch's id.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Span names.  The prefix before the dot is the layer (repo module).
enum class SpanName : uint8_t {
  kEngineBatch,       ///< root: one replayed batch
  kGraphSanitize,     ///< SanitizeBatch
  kGraphApply,        ///< host-mirror ApplyBatch
  kGpmaApply,         ///< Gpma::ApplyBatch -> UpdatePlan
  kGpusimGpmaSim,     ///< SimulateGpmaUpdate
  kEncoderReencode,   ///< CandidateEncoder dirty re-encode
  kWbmSeed,           ///< polarity seed + order-map collection
  kWbmNeg,            ///< negative WBM launch (tasks + Device::Launch)
  kWbmPos,            ///< positive WBM launch
  kCsmChassis,        ///< CsmEngine::ProcessBatch (self = graph edits)
  kCsmSearch,         ///< CsmEngine::FindIncremental
  kCount
};

const char* SpanNameString(SpanName name);

struct Span {
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t parent;  ///< index of the enclosing span, kNoParent at a root
  uint32_t batch;
  SpanName name;
};

inline constexpr uint32_t kNoParent = ~0u;

class SpanRecorder {
 public:
  SpanRecorder();

  void BeginBatch(uint32_t batch) { batch_ = batch; }

  uint32_t Open(SpanName name);
  void Close(uint32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus its children's.
  std::vector<uint64_t> SelfNanos() const;

  /// Writes one tab-separated line, led by `engine`, per span of the
  /// batches before `batches`.
  void WriteTsv(FILE* f, const char* engine, size_t batches) const;

 private:
  uint64_t Now() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  uint32_t batch_ = 0;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, SpanName name)
      : rec_(rec), index_(rec->Open(name)) {}
  ~ScopedSpan() { rec_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  uint32_t index_;
};

}  // namespace perfbench
