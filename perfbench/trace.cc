// Copyright 2026 The rollview Authors.

#include "trace.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>

namespace perfbench {

const char* SpanKindName(SpanKind kind) {
  static const char* const kNames[] = {
      "txn",     "begin", "insert",    "delete",   "update",       "read_by_key",
      "commit",  "abort", "read_once", "snapshot", "catchup_wait",
  };
  return kNames[static_cast<size_t>(kind)];
}

bool WriteTrace(const std::string& prefix,
                const std::vector<const SpanBuffer*>& buffers,
                const std::vector<std::pair<std::string, double>>& counters) {
  // Self time of a root span: its duration minus the part its children (the
  // non-root spans sharing its id, recorded by the same thread) cover.
  // Children of one transaction are sequential, so they never overlap.
  struct KindTotals {
    uint64_t count = 0;
    uint64_t total = 0;
    uint64_t self = 0;
    std::vector<uint64_t> durations;
  };
  std::array<KindTotals, static_cast<size_t>(SpanKind::kCount)> totals;

  FILE* spans = std::fopen((prefix + ".spans.jsonl").c_str(), "w");
  if (spans == nullptr) return false;
  for (const SpanBuffer* buf : buffers) {
    std::map<uint64_t, uint64_t> child_time;  // root id -> covered nanos
    for (const Span& s : buf->spans()) {
      if (!s.root) child_time[s.id] += s.end - s.start;
    }
    for (const Span& s : buf->spans()) {
      uint64_t dur = s.end - s.start;
      uint64_t self = dur;
      if (s.root) {
        uint64_t covered = child_time[s.id];
        self = covered < dur ? dur - covered : 0;
      }
      KindTotals& k = totals[static_cast<size_t>(s.kind)];
      k.count++;
      k.total += dur;
      k.self += self;
      k.durations.push_back(dur);
      std::fprintf(spans,
                   "{\"id\":%llu,\"kind\":\"%s\",\"root\":%s,\"start_ns\":%llu,"
                   "\"dur_ns\":%llu,\"self_ns\":%llu}\n",
                   static_cast<unsigned long long>(s.id), SpanKindName(s.kind),
                   s.root ? "true" : "false",
                   static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(dur),
                   static_cast<unsigned long long>(self));
    }
  }
  std::fclose(spans);

  FILE* summary = std::fopen((prefix + ".summary.json").c_str(), "w");
  if (summary == nullptr) return false;
  std::fprintf(summary, "{\n  \"spans\": {\n");
  bool first = true;
  for (size_t i = 0; i < totals.size(); ++i) {
    KindTotals& k = totals[i];
    if (k.count == 0) continue;
    std::sort(k.durations.begin(), k.durations.end());
    uint64_t p50 = k.durations[k.durations.size() / 2];
    std::fprintf(summary,
                 "%s    \"%s\": {\"count\": %llu, \"total_ms\": %.3f, "
                 "\"self_ms\": %.3f, \"p50_us\": %.3f}",
                 first ? "" : ",\n", SpanKindName(static_cast<SpanKind>(i)),
                 static_cast<unsigned long long>(k.count), k.total / 1e6,
                 k.self / 1e6, p50 / 1e3);
    first = false;
  }
  std::fprintf(summary, "\n  },\n  \"counters\": {\n");
  for (size_t i = 0; i < counters.size(); ++i) {
    std::fprintf(summary, "    \"%s\": %.10g%s\n", counters[i].first.c_str(),
                 counters[i].second, i + 1 < counters.size() ? "," : "");
  }
  std::fprintf(summary, "  }\n}\n");
  std::fclose(summary);
  return true;
}

}  // namespace perfbench
