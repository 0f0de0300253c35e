// Copyright 2026 The rollview Authors.
//
// Spans recorded by the benchmark around its own calls into the program
// (--trace 1). Each thread appends to its own buffer; nothing is shared
// until the run ends, when WriteTrace merges the buffers and writes every
// span plus a per-kind summary with self times. A disabled buffer records
// nothing, so the untraced run pays one branch per call site.

#ifndef ROLLVIEW_PERFBENCH_TRACE_H_
#define ROLLVIEW_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class SpanKind : uint8_t {
  kTxn,            // root: one writer transaction, first Begin to ack
  kBegin,          // Db::Begin
  kInsert,         // Db::Insert
  kDelete,         // Db::DeleteTuple
  kUpdate,         // Db::Update
  kReadByKey,      // Db::ReadByKey
  kCommit,         // Db::Commit
  kAbort,          // Db::Abort (before a retry)
  kReadOnce,       // MvReader::ReadOnce
  kSnapshot,       // MaterializedView::Snapshot
  kCatchupWait,    // resume maintenance -> MV visible at the batch's end
  kCount,
};

const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t id = 0;  // spans of one transaction share it
  uint64_t start = 0;
  uint64_t end = 0;
  SpanKind kind = SpanKind::kTxn;
  bool root = false;
};

class SpanBuffer {
 public:
  explicit SpanBuffer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }
  void Add(SpanKind kind, uint64_t id, uint64_t start, uint64_t end,
           bool root = false) {
    if (enabled_) spans_.push_back(Span{id, start, end, kind, root});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Times one call into the program and records it on scope exit.
class SpanScope {
 public:
  SpanScope(SpanBuffer* buf, SpanKind kind, uint64_t id)
      : buf_(buf), kind_(kind), id_(id),
        start_(buf->enabled() ? NowNanos() : 0) {}
  ~SpanScope() {
    if (buf_->enabled()) buf_->Add(kind_, id_, start_, NowNanos());
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanBuffer* buf_;
  SpanKind kind_;
  uint64_t id_;
  uint64_t start_;
};

// Writes `<prefix>.spans.jsonl` (one span per line, self time included) and
// `<prefix>.summary.json` (per kind: count, total, self time, p50).
// `counters` are extra name/value pairs recorded at the same boundaries.
bool WriteTrace(const std::string& prefix,
                const std::vector<const SpanBuffer*>& buffers,
                const std::vector<std::pair<std::string, double>>& counters);

}  // namespace perfbench

#endif  // ROLLVIEW_PERFBENCH_TRACE_H_
