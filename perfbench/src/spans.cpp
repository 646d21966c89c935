#include "spans.hpp"

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kEngineBatch: return "engine.batch";
    case SpanName::kGraphSanitize: return "graph.sanitize";
    case SpanName::kGraphApply: return "graph.apply";
    case SpanName::kGpmaApply: return "gpma.apply";
    case SpanName::kGpusimGpmaSim: return "gpusim.gpma_sim";
    case SpanName::kEncoderReencode: return "encoder.reencode";
    case SpanName::kWbmSeed: return "wbm.seed";
    case SpanName::kWbmNeg: return "wbm.neg";
    case SpanName::kWbmPos: return "wbm.pos";
    case SpanName::kCsmChassis: return "csm.chassis";
    case SpanName::kCsmSearch: return "csm.search";
    case SpanName::kCount: break;
  }
  return "?";
}

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

uint32_t SpanRecorder::Open(SpanName name) {
  const uint32_t parent = open_.empty() ? kNoParent : open_.back();
  const uint32_t index = static_cast<uint32_t>(spans_.size());
  spans_.push_back(Span{Now(), 0, parent, batch_, name});
  open_.push_back(index);
  return index;
}

void SpanRecorder::Close(uint32_t index) {
  spans_[index].end_ns = Now();
  open_.pop_back();
}

std::vector<uint64_t> SpanRecorder::SelfNanos() const {
  std::vector<uint64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) self[s.parent] -= s.end_ns - s.start_ns;
  }
  return self;
}

void SpanRecorder::WriteTsv(FILE* f, const char* engine,
                            size_t batches) const {
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.batch >= batches) continue;
    std::fprintf(f, "%s\t%zu\t%s\t%u\t%lld\t%llu\t%llu\n", engine, i,
                 SpanNameString(s.name), s.batch,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
}

}  // namespace perfbench
