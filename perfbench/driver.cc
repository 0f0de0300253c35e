// Copyright 2026 The rollview Authors.
//
// perfbench_driver: the steady-state benchmark. One process runs a workload
// with writers, log capture, MaintenanceService (propagate + apply) and an
// MV reader all live, through four phases:
//
//   setup    create and load the tables, create and materialize the view,
//            start capture and maintenance
//   steady   open loop: writers commit at the workload's fixed rate and a
//            reader reads at a fixed rate; every operation is timed from
//            when it was due; a poller measures commit-to-visible latency
//   ingest   propagation and apply paused; a fixed-size seeded batch is
//            committed closed-loop
//   catchup  maintenance resumed; timed until the MV covers the batch
//
// After every phase the MV is compared with the view recomputed from the
// benchmark's own record of acknowledged writes; MV snapshots sampled
// during `steady` are checked the same way at their own CSNs. A durable
// workload is finally recovered from its WAL directory and checked again.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1 (which also writes spans; see trace.h).
//
// Usage: perfbench_driver --workload <name> --seed <n> --seconds <s>
//            --trace <0|1> --run-dir <dir>
//        [--trace-dir <dir>]           where --trace 1 writes its spans
//        [--closed-loop live|stopped]  capacity probe instead of phases
//
// The exit code is 0 only if every correctness check passed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "capture/log_capture.h"
#include "harness/crash_harness.h"
#include "harness/mv_reader.h"
#include "ivm/maintenance.h"
#include "ivm/view_manager.h"
#include "obs/freshness.h"
#include "obs/registry.h"
#include "storage/db.h"
#include "storage/wal_segment.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using rollview::CountMap;
using rollview::Db;
using rollview::DbOptions;
using rollview::LockManager;
using rollview::LogCapture;
using rollview::MaintenanceService;
using rollview::MvReader;
using rollview::Txn;
using rollview::TxnClass;
using rollview::TxnState;
using rollview::Value;
using rollview::View;
using rollview::ViewManager;
namespace obs = rollview::obs;

const uint64_t kProcessStart = NowNanos();

constexpr double kWarmupSeconds = 1.0;
constexpr int kMaxRetries = 32;
constexpr auto kPollInterval = std::chrono::microseconds(200);
constexpr uint64_t kLagSampleNanos = 10'000'000;       // 10 ms
constexpr uint64_t kSnapshotSampleNanos = 1'000'000'000;  // 1 s
constexpr uint64_t kVisibleTimeoutNanos = 60'000'000'000;

double Seconds(uint64_t nanos) { return static_cast<double>(nanos) / 1e9; }

void SleepUntil(uint64_t nanos) {
  uint64_t now = NowNanos();
  if (nanos > now) std::this_thread::sleep_for(std::chrono::nanoseconds(nanos - now));
}

// Due times of an open-loop generator over [0, span): one arrival at a
// seeded uniform point of each period of the given rate. The count per run
// is fixed and bursts stay short, but the phase against the program's own
// periodic loops (1 ms polls, group-commit rounds) is random, so a run
// cannot lock onto one phase for its whole length.
std::vector<uint64_t> ArrivalOffsets(rollview::Rng* rng, uint64_t span_nanos, double rate) {
  const double period = 1e9 / rate;
  std::vector<uint64_t> out;
  for (double slot = 0; slot + period <= static_cast<double>(span_nanos); slot += period) {
    out.push_back(static_cast<uint64_t>(slot + rng->NextDouble() * period));
  }
  return out;
}

// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1]);
}

// --- Per-thread CPU attribution ---------------------------------------------

std::set<pid_t> ListTasks() {
  std::set<pid_t> out;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    out.insert(static_cast<pid_t>(std::stol(e.path().filename().string())));
  }
  return out;
}

std::vector<pid_t> NewTasks(const std::set<pid_t>& before) {
  std::vector<pid_t> out;
  for (pid_t t : ListTasks()) {
    if (before.count(t) == 0) out.push_back(t);
  }
  return out;  // ascending: thread ids are handed out in creation order
}

// CPU seconds of a thread of this process (the kernel's per-thread CPU
// clock, MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)); 0 once it has exited.
double ThreadCpuSeconds(pid_t tid) {
  clockid_t clock = static_cast<clockid_t>((~static_cast<clockid_t>(tid)) * 8 + 6);
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double ThreadsCpuSeconds(const std::vector<pid_t>& tids) {
  double sum = 0;
  for (pid_t t : tids) sum += ThreadCpuSeconds(t);
  return sum;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double OwnThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// --- The correctness oracle -------------------------------------------------

// Every acknowledged change, ordered by commit CSN (stable, so changes of
// one transaction keep their order).
std::vector<Change> MergeRecord(const std::vector<const std::vector<Change>*>& logs) {
  std::vector<Change> all;
  for (const auto* log : logs) all.insert(all.end(), log->begin(), log->end());
  std::stable_sort(all.begin(), all.end(),
                   [](const Change& a, const Change& b) { return a.csn < b.csn; });
  return all;
}

TableState StateAt(const std::vector<Change>& record, size_t num_tables, Csn csn) {
  TableState state(num_tables);
  for (const Change& c : record) {
    if (c.csn > csn) break;
    if (c.sign > 0) {
      state[c.table][c.row[0]] = c.row;
    } else {
      state[c.table].erase(c.row[0]);
    }
  }
  return state;
}

using Fingerprint = std::vector<std::pair<size_t, int64_t>>;

Fingerprint FingerprintOf(const CountMap& m) {
  Fingerprint f;
  f.reserve(m.size());
  for (const auto& [t, n] : m) f.emplace_back(rollview::HashTuple(t), n);
  std::sort(f.begin(), f.end());
  return f;
}

// Compares an observed multiset with the expected one; reports the first
// differences on stderr.
bool SameContents(const CountMap& got, const CountMap& want, const std::string& what) {
  size_t shown = 0;
  bool same = got.size() == want.size();
  for (const auto& [t, n] : want) {
    auto it = got.find(t);
    int64_t g = it == got.end() ? 0 : it->second;
    if (g != n) {
      same = false;
      if (shown++ < 3) {
        std::fprintf(stderr, "  %s: %s expected count %lld, got %lld\n", what.c_str(),
                     rollview::TupleToString(t).c_str(), static_cast<long long>(n),
                     static_cast<long long>(g));
      }
    }
  }
  if (!same) {
    std::fprintf(stderr, "CHECK FAILED: %s (%zu rows, expected %zu)\n", what.c_str(),
                 got.size(), want.size());
  }
  return same;
}

// --- Commit-to-visible poller -----------------------------------------------

struct Ack {
  Csn csn;
  uint64_t ack_nanos;
  bool measured;  // inside the steady phase's measured window
  bool operator>(const Ack& o) const { return csn > o.csn; }
};

struct SnapshotSample {
  Csn csn;
  Fingerprint fingerprint;
};

// Polls view->mv->csn() and stamps each acknowledged commit visible when the
// MV covers it. While `sampling` is on it also samples the capture, hwm and
// apply lags.
class Poller {
 public:
  Poller(Db* db, LogCapture* capture, View* view)
      : db_(db), capture_(capture), view_(view), thread_([this] { Loop(); }) {}
  ~Poller() { Stop(); }

  void Push(const Ack& ack) {
    std::lock_guard<std::mutex> lk(mu_);
    incoming_.push_back(ack);
    pushed_++;
  }
  void set_sampling(bool on) { sampling_.store(on); }

  // Waits until every pushed commit is visible; false on timeout.
  bool WaitAllVisible() {
    uint64_t deadline = NowNanos() + kVisibleTimeoutNanos;
    while (NowNanos() < deadline) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (visible_ == pushed_) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  void Stop() {
    if (!stop_.exchange(true)) thread_.join();
  }

  // Read after the phase that produced them has ended.
  std::vector<uint64_t> visible_nanos;
  std::vector<uint64_t> capture_lag, hwm_lag, apply_lag;  // CSN units
  uint64_t visible_count() {
    std::lock_guard<std::mutex> lk(mu_);
    return visible_;
  }

 private:
  void Loop() {
    std::priority_queue<Ack, std::vector<Ack>, std::greater<Ack>> pending;
    uint64_t next_lag = 0;
    while (!stop_.load()) {
      std::vector<Ack> fresh;
      {
        std::lock_guard<std::mutex> lk(mu_);
        fresh.swap(incoming_);
      }
      for (const Ack& a : fresh) pending.push(a);
      Csn mv = view_->mv->csn();
      uint64_t now = NowNanos();
      uint64_t newly = 0;
      while (!pending.empty() && pending.top().csn <= mv) {
        const Ack& a = pending.top();
        if (a.measured) {
          visible_nanos.push_back(now > a.ack_nanos ? now - a.ack_nanos : 0);
        }
        pending.pop();
        newly++;
      }
      if (newly > 0) {
        std::lock_guard<std::mutex> lk(mu_);
        visible_ += newly;
      }
      if (sampling_.load() && now >= next_lag) {
        next_lag = now + kLagSampleNanos;
        Csn stable = db_->stable_csn();
        Csn cap = capture_->high_water_mark();
        Csn hwm = view_->high_water_mark();
        capture_lag.push_back(stable > cap ? stable - cap : 0);
        hwm_lag.push_back(stable > hwm ? stable - hwm : 0);
        apply_lag.push_back(hwm > mv ? hwm - mv : 0);
      }
      std::this_thread::sleep_for(kPollInterval);
    }
  }

  Db* db_;
  LogCapture* capture_;
  View* view_;
  std::mutex mu_;
  std::vector<Ack> incoming_;
  uint64_t pushed_ = 0;   // guarded by mu_
  uint64_t visible_ = 0;  // guarded by mu_
  std::atomic<bool> sampling_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Takes an MV snapshot once every kSnapshotSampleNanos between Start and
// Stop, for the point-in-time check. Its own thread, so that a slow
// snapshot of a large view never delays the poller's visibility stamps.
class SnapshotSampler {
 public:
  explicit SnapshotSampler(View* view) : view_(view) {}
  ~SnapshotSampler() { Stop(); }

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Read after Stop.
  std::vector<uint64_t> snapshot_nanos;
  std::vector<SnapshotSample> snapshots;

 private:
  void Loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
      lk.unlock();
      CountMap contents;
      Csn csn = 0;
      uint64_t t0 = NowNanos();
      view_->mv->Snapshot(&contents, &csn);
      snapshot_nanos.push_back(NowNanos() - t0);
      snapshots.push_back(SnapshotSample{csn, FingerprintOf(contents)});
      lk.lock();
      cv_.wait_for(lk, std::chrono::nanoseconds(kSnapshotSampleNanos),
                   [this] { return stop_; });
    }
  }

  View* view_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;
};

// --- Writers and the reader -------------------------------------------------

struct WriterResult {
  std::vector<Change> log;  // acknowledged changes of this writer
  // Measured window of the steady phase, one entry per transaction.
  std::vector<uint64_t> commit_nanos;       // due -> Commit returned
  std::vector<uint64_t> write_nanos;        // time in the write calls
  std::vector<uint64_t> commit_call_nanos;  // time in Db::Commit
  std::vector<uint64_t> late_nanos;         // due -> started
  uint64_t steady_commits = 0;  // whole steady phase, warm-up included
  uint64_t commits = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  double cpu_seconds = 0;  // steady phase only
  Csn last_csn = 0;
};

struct Engine;

class Writer {
 public:
  Writer(Engine* e, int index, std::unique_ptr<Planner> planner, bool trace)
      : e_(e), index_(index), planner_(std::move(planner)), spans_(trace) {}

  // Steady phase: open loop, one transaction due at start + each offset;
  // transactions due before `measure_from` are the warm-up.
  void RunOpenLoop(uint64_t start, const std::vector<uint64_t>& offsets,
                   uint64_t measure_from);
  // Ingest phase: `n` transactions back to back.
  void RunClosedLoop(uint64_t n);
  // Capacity probe: back to back until `end`.
  void RunUntil(uint64_t end);

  int index() const { return index_; }
  WriterResult& result() { return r_; }
  const SpanBuffer& spans() const { return spans_; }

 private:
  // One transaction with retries; fills timing on success.
  bool RunTxn(bool measured, uint64_t due);
  Status ExecuteOp(Txn* txn, Op* op, std::vector<Change>* changes, uint64_t id);

  Engine* e_;
  int index_;
  std::unique_ptr<Planner> planner_;
  SpanBuffer spans_;
  WriterResult r_;
  std::vector<Op> ops_;
  uint64_t seq_ = 0;
};

struct Engine {
  Workload* wl = nullptr;
  Db* db = nullptr;
  LogCapture* capture = nullptr;
  ViewManager* views = nullptr;
  View* view = nullptr;
  Poller* poller = nullptr;
};

Status Writer::ExecuteOp(Txn* txn, Op* op, std::vector<Change>* changes, uint64_t id) {
  Db* db = e_->db;
  const Workload& wl = *e_->wl;
  TableId table = wl.table_id(op->table);
  switch (op->kind) {
    case OpKind::kInsert: {
      SpanScope s(&spans_, SpanKind::kInsert, id);
      ROLLVIEW_RETURN_NOT_OK(db->Insert(txn, table, wl.ToTuple(op->table, op->new_row)));
      changes->push_back(Change{0, op->table, +1, op->new_row});
      return Status::OK();
    }
    case OpKind::kDelete: {
      SpanScope s(&spans_, SpanKind::kDelete, id);
      ROLLVIEW_ASSIGN_OR_RETURN(
          int64_t n, db->DeleteTuple(txn, table, wl.ToTuple(op->table, op->old_row)));
      if (n != 1) return Status::Internal("delete victim missing");
      changes->push_back(Change{0, op->table, -1, op->old_row});
      return Status::OK();
    }
    case OpKind::kUpdateAttr: {
      std::vector<Tuple> rows;
      {
        SpanScope s(&spans_, SpanKind::kReadByKey, id);
        ROLLVIEW_ASSIGN_OR_RETURN(rows,
                                  db->ReadByKey(txn, table, 0, Value(op->new_row[0])));
      }
      if (rows.size() != 1) return Status::Internal("dimension row missing");
      op->old_row = wl.FromTuple(op->table, rows[0]);
      int64_t attr = op->new_row[1];
      op->new_row = op->old_row;
      op->new_row[1] = attr;
      [[fallthrough]];
    }
    case OpKind::kUpdate: {
      SpanScope s(&spans_, SpanKind::kUpdate, id);
      ROLLVIEW_RETURN_NOT_OK(db->Update(txn, table, wl.ToTuple(op->table, op->old_row),
                                        wl.ToTuple(op->table, op->new_row)));
      changes->push_back(Change{0, op->table, -1, op->old_row});
      changes->push_back(Change{0, op->table, +1, op->new_row});
      return Status::OK();
    }
  }
  return Status::Internal("unknown op");
}

bool Writer::RunTxn(bool measured, uint64_t due) {
  Db* db = e_->db;
  planner_->Plan(&ops_);
  r_.attempted++;
  uint64_t id = (static_cast<uint64_t>(index_ + 1) << 48) | ++seq_;
  uint64_t start = NowNanos();
  uint64_t write_nanos = 0, commit_call_nanos = 0;
  std::vector<Change> changes;
  int attempts = 0;
  std::unique_ptr<Txn> txn;
  Status s;
  while (true) {
    changes.clear();
    {
      SpanScope span(&spans_, SpanKind::kBegin, id);
      txn = db->Begin();
    }
    uint64_t w0 = NowNanos();
    for (Op& op : ops_) {
      s = ExecuteOp(txn.get(), &op, &changes, id);
      if (!s.ok()) break;
    }
    uint64_t w1 = NowNanos();
    write_nanos += w1 - w0;
    if (s.ok()) {
      SpanScope span(&spans_, SpanKind::kCommit, id);
      s = db->Commit(txn.get());
      commit_call_nanos += NowNanos() - w1;
    }
    if (s.ok()) break;
    if (txn->state() == TxnState::kActive) {
      SpanScope span(&spans_, SpanKind::kAbort, id);
      db->Abort(txn.get()).ok();
    }
    if (!s.IsTransient() || ++attempts > kMaxRetries) {
      std::fprintf(stderr, "writer %d: transaction failed: %s\n", index_,
                   s.ToString().c_str());
      planner_->Abandoned(ops_);
      r_.failed++;
      return false;
    }
    r_.retries++;
    std::this_thread::sleep_for(std::chrono::microseconds(100) * attempts);
  }
  uint64_t ack = NowNanos();
  spans_.Add(SpanKind::kTxn, id, start, ack, /*root=*/true);
  Csn csn = txn->commit_csn();
  for (Change& c : changes) {
    c.csn = csn;
    r_.log.push_back(c);
  }
  planner_->Committed(ops_);
  r_.commits++;
  r_.last_csn = std::max(r_.last_csn, csn);
  e_->poller->Push(Ack{csn, ack, measured});
  if (measured) {
    r_.commit_nanos.push_back(ack - due);
    r_.write_nanos.push_back(write_nanos);
    r_.commit_call_nanos.push_back(commit_call_nanos);
    r_.late_nanos.push_back(start > due ? start - due : 0);
  }
  return true;
}

void Writer::RunOpenLoop(uint64_t start, const std::vector<uint64_t>& offsets,
                         uint64_t measure_from) {
  double cpu0 = OwnThreadCpuSeconds();
  for (uint64_t offset : offsets) {
    uint64_t due = start + offset;
    SleepUntil(due);
    if (RunTxn(due >= measure_from, due)) r_.steady_commits++;
  }
  r_.cpu_seconds = OwnThreadCpuSeconds() - cpu0;
}

void Writer::RunClosedLoop(uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) RunTxn(false, 0);
}

void Writer::RunUntil(uint64_t end) {
  while (NowNanos() < end) RunTxn(false, 0);
}

struct ReaderResult {
  std::vector<uint64_t> read_nanos;      // due -> done, measured window
  std::vector<uint64_t> read_call_nanos;  // MvReader::ReadOnce
  std::vector<uint64_t> snapshot_nanos;   // MaterializedView::Snapshot
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double cpu_seconds = 0;
};

void RunReader(Engine* e, const WorkloadConfig& cfg, uint64_t start,
               const std::vector<uint64_t>& offsets, uint64_t measure_from,
               ReaderResult* r, SpanBuffer* spans) {
  double cpu0 = OwnThreadCpuSeconds();
  MvReader reader(e->views, e->view);
  const uint64_t reader_id = 0xffffULL << 48;
  for (uint64_t i = 0; i < offsets.size(); ++i) {
    uint64_t due = start + offsets[i];
    SleepUntil(due);
    r->attempted++;
    uint64_t t0 = NowNanos();
    bool snapshot = cfg.snapshot_every > 0 && i % cfg.snapshot_every == 0;
    if (snapshot) {
      SpanScope span(spans, SpanKind::kSnapshot, reader_id | i);
      CountMap contents;
      Csn csn = 0;
      e->view->mv->Snapshot(&contents, &csn);
    } else {
      SpanScope span(spans, SpanKind::kReadOnce, reader_id | i);
      int64_t total = 0;
      Status s = reader.ReadOnce(&total);
      if (!s.ok()) {
        std::fprintf(stderr, "reader: %s\n", s.ToString().c_str());
        r->failed++;
        continue;
      }
    }
    uint64_t t1 = NowNanos();
    if (due >= measure_from) {
      r->read_nanos.push_back(t1 - due);
      (snapshot ? r->snapshot_nanos : r->read_call_nanos).push_back(t1 - t0);
    }
  }
  r->cpu_seconds = OwnThreadCpuSeconds() - cpu0;
}

// --- Arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string run_dir;
  std::string trace_dir;
  std::string closed_loop;  // "", "live" or "stopped"
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::stoull(v);
      have_seed = true;
    } else if (k == "--seconds") {
      a->seconds = std::stod(v);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--run-dir") {
      a->run_dir = v;
    } else if (k == "--trace-dir") {
      a->trace_dir = v;
    } else if (k == "--closed-loop") {
      a->closed_loop = v;
    } else {
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  auto& names = WorkloadNames();
  return have_seed && a->seconds > 0 && !a->run_dir.empty() &&
         std::find(names.begin(), names.end(), a->workload) != names.end() &&
         (a->closed_loop.empty() || a->closed_loop == "live" ||
          a->closed_loop == "stopped");
}

// --- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// --- Program-side counters, read at phase boundaries -------------------------

struct Counters {
  LockManager::Stats locks;
  LogCapture::Stats capture;
  uint64_t wal_syncs = 0;
  obs::MetricsSnapshot metrics;
};

Counters ReadCounters(Db* db, LogCapture* capture, const obs::MetricsRegistry& registry) {
  Counters c;
  c.locks = db->lock_manager()->GetStats();
  c.capture = capture->GetStats();
  if (db->wal()->durable()) c.wal_syncs = db->wal()->store()->counters().syncs;
  c.metrics = registry.Snapshot();
  return c;
}

int Run(const Args& args) {
  const uint64_t run_start = NowNanos();
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload, args.seed);
  const WorkloadConfig& cfg = wl->config();
  rollview::Rng seeds(args.seed ^ 0x70657266ULL);

  std::filesystem::create_directories(args.run_dir);
  const std::string wal_dir = args.run_dir + "/wal";
  std::filesystem::remove_all(wal_dir);
  DbOptions db_options;
  if (cfg.durable_wal) db_options.wal_dir = wal_dir;

  // Declaration order is teardown order in reverse: the registry and the
  // freshness tracker must outlive the engine and the service.
  obs::MetricsRegistry registry;
  obs::FreshnessOptions fresh_options;
  fresh_options.commit_capacity = 1 << 16;
  obs::FreshnessTracker tracker(fresh_options);

  std::set<pid_t> tasks = ListTasks();
  auto db = std::make_unique<Db>(db_options);
  std::vector<pid_t> wal_tids = NewTasks(tasks);

  const uint64_t load_start = NowNanos();
  std::vector<Change> load_record;
  Status s = wl->Load(db.get(), &load_record);
  if (!s.ok()) {
    std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
    return 1;
  }
  const uint64_t view_start = NowNanos();
  auto capture = std::make_unique<LogCapture>(db.get());
  capture->CatchUp();
  auto views = std::make_unique<ViewManager>(db.get(), capture.get());
  rollview::Result<View*> created = views->CreateView("V", wl->ViewDef());
  if (!created.ok() || !(s = views->Materialize(created.value())).ok()) {
    std::fprintf(stderr, "view: %s\n",
                 (created.ok() ? s : created.status()).ToString().c_str());
    return 1;
  }
  View* view = created.value();
  db->SetFreshnessTracker(&tracker);

  const uint64_t start_start = NowNanos();
  MaintenanceService::Options service_options;
  service_options.propagate_partitions = cfg.partitions;
  service_options.freshness = &tracker;
  tasks = ListTasks();
  auto service = std::make_unique<MaintenanceService>(views.get(), view, service_options);
  std::vector<pid_t> propagate_tids = NewTasks(tasks);
  service->RegisterMetrics(&registry);
  tasks = ListTasks();
  capture->Start();
  std::vector<pid_t> capture_tids = NewTasks(tasks);
  tasks = ListTasks();
  service->Start();
  std::vector<pid_t> started = NewTasks(tasks);
  std::vector<pid_t> apply_tids;
  if (!started.empty()) {
    propagate_tids.push_back(started.front());
    apply_tids.assign(started.begin() + 1, started.end());
  }

  Poller poller(db.get(), capture.get(), view);
  Engine engine{wl.get(), db.get(), capture.get(), views.get(), view, &poller};
  std::vector<std::unique_ptr<Writer>> writers;
  for (int w = 0; w < cfg.writers; ++w) {
    writers.push_back(
        std::make_unique<Writer>(&engine, w, wl->MakePlanner(w, seeds.Fork()),
                                 args.trace));
  }
  // Open-loop schedules of the steady phase, drawn before it starts.
  const uint64_t steady_span =
      static_cast<uint64_t>((kWarmupSeconds + args.seconds) * 1e9);
  rollview::Rng schedule(seeds.Fork());
  std::vector<std::vector<uint64_t>> writer_offsets;
  for (int w = 0; w < cfg.writers; ++w) {
    writer_offsets.push_back(
        ArrivalOffsets(&schedule, steady_span, cfg.txn_rate / cfg.writers));
  }
  const std::vector<uint64_t> reader_offsets =
      ArrivalOffsets(&schedule, steady_span, cfg.read_rate);
  const uint64_t setup_end = NowNanos();
  const double setup_s = Seconds(setup_end - kProcessStart);
  std::fprintf(stderr,
               "setup %.1f ms: to main %.1f, open db %.1f, load %.1f, view %.1f, "
               "start %.1f\n",
               (setup_end - kProcessStart) / 1e6, (run_start - kProcessStart) / 1e6,
               (load_start - run_start) / 1e6, (view_start - load_start) / 1e6,
               (start_start - view_start) / 1e6, (setup_end - start_start) / 1e6);

  bool correct = true;
  auto record = [&] {
    std::vector<const std::vector<Change>*> logs{&load_record};
    for (auto& w : writers) logs.push_back(&w->result().log);
    return MergeRecord(logs);
  };
  auto check_mv = [&](const std::string& phase) {
    CountMap contents;
    Csn csn = 0;
    view->mv->Snapshot(&contents, &csn);
    std::vector<Change> all = record();
    bool ok = SameContents(contents, wl->Join(StateAt(all, wl->num_tables(), csn)),
                           "MV at end of " + phase);
    correct = correct && ok;
  };
  check_mv("setup");

  // Runs `body` on every writer, one thread each, and waits for them.
  auto run_writers = [&](const std::function<void(Writer*)>& body) {
    std::vector<std::thread> threads;
    for (auto& w : writers) threads.emplace_back([&body, w = w.get()] { body(w); });
    for (std::thread& t : threads) t.join();
  };

  if (!args.closed_loop.empty()) {
    // Capacity probe: closed-loop writers for --seconds, maintenance live
    // or paused; then catch up and check.
    if (args.closed_loop == "stopped") {
      service->PausePropagation();
      service->PauseApply();
    }
    uint64_t t0 = NowNanos(), end = t0 + static_cast<uint64_t>(args.seconds * 1e9);
    run_writers([end](Writer* w) { w->RunUntil(end); });
    double elapsed = Seconds(NowNanos() - t0);
    uint64_t commits = 0, attempted = 0, failed = 0;
    for (auto& w : writers) {
      commits += w->result().commits;
      attempted += w->result().attempted;
      failed += w->result().failed;
    }
    service->ResumePropagation();
    service->ResumeApply();
    correct = poller.WaitAllVisible() && correct;
    check_mv("closed loop");
    double rate = static_cast<double>(commits) / elapsed;
    std::fprintf(stderr,
                 "closed loop (%s maintenance): %llu commits in %.2f s = %.1f txn/s\n",
                 args.closed_loop == "live" ? "live" : "stopped",
                 static_cast<unsigned long long>(commits), elapsed, rate);
    poller.Stop();
    service->Stop();
    capture->Stop();
    PrintResult(correct, attempted, failed,
                {{"closed_loop_commits_per_s", "txn/s", rate}});
    return correct ? 0 : 1;
  }

  // ---- steady ----
  Counters c_start = ReadCounters(db.get(), capture.get(), registry);
  auto program_cpu = [&] {
    return std::array<double, 4>{ThreadsCpuSeconds(capture_tids),
                                 ThreadsCpuSeconds(propagate_tids),
                                 ThreadsCpuSeconds(apply_tids),
                                 ThreadsCpuSeconds(wal_tids)};
  };
  std::array<double, 4> cpu0 = program_cpu();
  double proc_cpu0 = ProcessCpuSeconds();
  const uint64_t steady_start = NowNanos();
  const uint64_t measure_from =
      steady_start + static_cast<uint64_t>(kWarmupSeconds * 1e9);
  poller.set_sampling(true);
  SnapshotSampler sampler(view);
  sampler.Start();
  ReaderResult rr;
  SpanBuffer reader_spans(args.trace);
  std::thread reader_thread([&] {
    RunReader(&engine, cfg, steady_start, reader_offsets, measure_from, &rr,
              &reader_spans);
  });
  run_writers([&](Writer* w) {
    w->RunOpenLoop(steady_start, writer_offsets[w->index()], measure_from);
  });
  reader_thread.join();
  poller.set_sampling(false);
  sampler.Stop();
  const double steady_seconds = Seconds(NowNanos() - steady_start);
  std::array<double, 4> cpu1 = program_cpu();
  double proc_cpu = ProcessCpuSeconds() - proc_cpu0;
  obs::MetricsSnapshot steady_metrics = registry.Snapshot();
  if (!poller.WaitAllVisible()) {
    std::fprintf(stderr, "CHECK FAILED: steady commits never became visible\n");
    correct = false;
  }
  check_mv("steady");
  {
    // Point-in-time check of every MV snapshot sampled during `steady`.
    std::vector<Change> all = record();
    for (const SnapshotSample& sample : sampler.snapshots) {
      Fingerprint want =
          FingerprintOf(wl->Join(StateAt(all, wl->num_tables(), sample.csn)));
      if (want != sample.fingerprint) {
        std::fprintf(stderr,
                     "CHECK FAILED: MV snapshot at csn %llu differs from the join\n",
                     static_cast<unsigned long long>(sample.csn));
        correct = false;
      }
    }
  }

  // ---- ingest ----
  service->PausePropagation();
  service->PauseApply();
  uint64_t commits_before_ingest = 0;
  for (auto& w : writers) commits_before_ingest += w->result().commits;
  const uint64_t ingest_start = NowNanos();
  run_writers([&](Writer* w) {
    w->RunClosedLoop(static_cast<uint64_t>(cfg.ingest_txns / cfg.writers));
  });
  const double ingest_s = Seconds(NowNanos() - ingest_start);
  uint64_t ingest_commits = 0;
  for (auto& w : writers) ingest_commits += w->result().commits;
  ingest_commits -= commits_before_ingest;
  Csn batch_end = 0;
  for (auto& w : writers) batch_end = std::max(batch_end, w->result().last_csn);
  check_mv("ingest");

  // ---- catchup ----
  SpanBuffer main_spans(args.trace);
  uint64_t catchup_start = NowNanos();
  service->ResumePropagation();
  service->ResumeApply();
  while (view->mv->csn() < batch_end &&
         NowNanos() - catchup_start < kVisibleTimeoutNanos) {
    std::this_thread::sleep_for(kPollInterval);
  }
  uint64_t catchup_end = NowNanos();
  main_spans.Add(SpanKind::kCatchupWait, 1, catchup_start, catchup_end, true);
  double catchup_s = Seconds(catchup_end - catchup_start);
  if (view->mv->csn() < batch_end) {
    std::fprintf(stderr, "CHECK FAILED: MV never reached the ingest batch\n");
    correct = false;
  }
  check_mv("catchup");
  if (!poller.WaitAllVisible()) correct = false;
  Counters c_end = ReadCounters(db.get(), capture.get(), registry);

  // Commit-count cross-check against the program's freshness tracker.
  uint64_t acked = 0, attempted = rr.attempted, failed = rr.failed, retries = 0;
  uint64_t steady_commits = 0;
  for (auto& w : writers) {
    acked += w->result().commits;
    attempted += w->result().attempted;
    failed += w->result().failed;
    retries += w->result().retries;
    steady_commits += w->result().steady_commits;
  }
  poller.Stop();
  s = service->Stop();
  if (!s.ok()) {
    std::fprintf(stderr, "CHECK FAILED: maintenance stopped with %s\n",
                 s.ToString().c_str());
    correct = false;
  }
  capture->Stop();
  obs::ViewFreshness* channel = tracker.FindView("V");
  uint64_t tracked = channel != nullptr ? channel->commits_total() : 0;
  uint64_t evicted = channel != nullptr ? channel->evicted_total() : 0;
  if (tracked != acked || evicted != 0 || poller.visible_count() != acked) {
    std::fprintf(stderr,
                 "CHECK FAILED: %llu commits acknowledged, tracker made %llu visible "
                 "(%llu evicted), poller saw %llu\n",
                 static_cast<unsigned long long>(acked),
                 static_cast<unsigned long long>(tracked),
                 static_cast<unsigned long long>(evicted),
                 static_cast<unsigned long long>(poller.visible_count()));
    correct = false;
  }
  uint64_t versions = 0;
  for (size_t t = 0; t < wl->num_tables(); ++t) {
    versions += db->table(wl->table_id(t))->VersionCount();
  }
  const rollview::Status partition_fallback = service->partition_fallback();
  const uint32_t partitions = service->propagate_partitions();

  // ---- durability: recover from the WAL directory ----
  if (cfg.durable_wal) {
    service.reset();
    views.reset();
    capture.reset();
    db.reset();
    std::vector<Change> all = record();
    Csn last = all.empty() ? 0 : all.back().csn;
    TableState want = StateAt(all, wl->num_tables(), last);
    rollview::Result<rollview::RecoveredSystem> rec =
        rollview::RecoverFromWalDir(wal_dir, {{"V", wl->ViewDef()}});
    if (!rec.ok()) {
      std::fprintf(stderr, "CHECK FAILED: recovery: %s\n",
                   rec.status().ToString().c_str());
      correct = false;
    } else {
      rollview::RecoveredSystem& sys = rec.value();
      for (size_t t = 0; t < wl->num_tables(); ++t) {
        auto rows = sys.db->SnapshotScan(wl->table_id(t), sys.db->stable_csn());
        CountMap got, expect;
        if (rows.ok()) {
          for (const Tuple& row : rows.value()) got[row] += 1;
        }
        for (const auto& [key, row] : want[t]) expect[wl->ToTuple(t, row)] += 1;
        correct =
            SameContents(got, expect, "recovered table " + std::to_string(t)) && correct;
      }
      View* rv = sys.views->Find("V");
      if (rv == nullptr || sys.report.views_recovered != 1) {
        std::fprintf(stderr, "CHECK FAILED: view not recovered\n");
        correct = false;
      } else {
        CountMap contents;
        Csn csn = 0;
        rv->mv->Snapshot(&contents, &csn);
        correct = SameContents(contents, wl->Join(StateAt(all, wl->num_tables(), csn)),
                               "recovered MV") &&
                  correct;
      }
    }
  }
  std::filesystem::remove_all(wal_dir);

  // ---- metrics ----
  std::vector<uint64_t> commit_nanos, write_nanos, commit_call_nanos, late_nanos;
  double writer_cpu = 0;
  for (auto& w : writers) {
    WriterResult& r = w->result();
    commit_nanos.insert(commit_nanos.end(), r.commit_nanos.begin(), r.commit_nanos.end());
    write_nanos.insert(write_nanos.end(), r.write_nanos.begin(), r.write_nanos.end());
    commit_call_nanos.insert(commit_call_nanos.end(), r.commit_call_nanos.begin(),
                             r.commit_call_nanos.end());
    late_nanos.insert(late_nanos.end(), r.late_nanos.begin(), r.late_nanos.end());
    writer_cpu += r.cpu_seconds;
  }
  const double ingest_rate = static_cast<double>(ingest_commits) / ingest_s;
  std::vector<uint64_t> snapshot_nanos = rr.snapshot_nanos;
  snapshot_nanos.insert(snapshot_nanos.end(), sampler.snapshot_nanos.begin(),
                        sampler.snapshot_nanos.end());
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  // The gated end-to-end metrics. Every other end-to-end figure swung more
  // across runs than any usable bound (README.md), so it is reported with
  // the per-layer set under "e2e.", without a bound.
  std::vector<Metric> e2e = {
      {"setup_s", "s", setup_s},
      {"peak_rss_mb", "MB", static_cast<double>(ru.ru_maxrss) / 1024.0},
  };

  const LockManager::ClassStats& oltp0 = c_start.locks.cls(TxnClass::kOltp);
  const LockManager::ClassStats& oltp1 = c_end.locks.cls(TxnClass::kOltp);
  const LockManager::ClassStats& mnt0 = c_start.locks.cls(TxnClass::kMaintenance);
  const LockManager::ClassStats& mnt1 = c_end.locks.cls(TxnClass::kMaintenance);
  const obs::Labels lv{{"view", "V"}};
  auto delta = [&](const std::string& name, const obs::Labels& labels) {
    return static_cast<double>(c_end.metrics.CounterValue(name, labels) -
                               c_start.metrics.CounterValue(name, labels));
  };
  auto delta_total = [&](const std::string& name) {
    return static_cast<double>(c_end.metrics.CounterTotal(name) -
                               c_start.metrics.CounterTotal(name));
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  auto stage_ms = [&](rollview::obs::FreshnessStage stage) {
    const obs::HistogramSummary* h = steady_metrics.Histogram(
        "rollview_freshness_stage_nanos",
        {{"view", "V"}, {"stage", obs::FreshnessStageName(stage)}});
    return h != nullptr ? static_cast<double>(h->p50) / 1e6 : 0;
  };
  double wal_syncs = static_cast<double>(c_end.wal_syncs - c_start.wal_syncs);
  double fwd = delta("rollview_queries_total", {{"view", "V"}, {"kind", "forward"}});
  double comp =
      delta("rollview_queries_total", {{"view", "V"}, {"kind", "compensation"}});
  double rows_in = delta("rollview_exec_rows_total", {{"view", "V"}, {"dir", "in"}});
  double rows_out = delta("rollview_exec_rows_total", {{"view", "V"}, {"dir", "out"}});
  std::vector<Metric> layers = {
      {"e2e.commit_p50_us", "us", Percentile(commit_nanos, 0.50) / 1e3},
      {"e2e.commit_p99_us", "us", Percentile(commit_nanos, 0.99) / 1e3},
      {"e2e.visible_p50_ms", "ms", Percentile(poller.visible_nanos, 0.50) / 1e6},
      {"e2e.visible_p99_ms", "ms", Percentile(poller.visible_nanos, 0.99) / 1e6},
      {"e2e.read_p50_us", "us", Percentile(rr.read_nanos, 0.50) / 1e3},
      {"e2e.read_p99_us", "us", Percentile(rr.read_nanos, 0.99) / 1e3},
      {"e2e.ingest_commits_per_s", "txn/s", ingest_rate},
      {"e2e.catchup_s", "s", catchup_s},
      {"e2e.cpu_ms_per_commit", "ms",
       steady_commits > 0 ? proc_cpu * 1e3 / static_cast<double>(steady_commits) : 0},
      {"storage.write_us.p50", "us", Percentile(write_nanos, 0.50) / 1e3},
      {"storage.write_us.p99", "us", Percentile(write_nanos, 0.99) / 1e3},
      {"storage.commit_call_us.p50", "us", Percentile(commit_call_nanos, 0.50) / 1e3},
      {"storage.commit_call_us.p99", "us", Percentile(commit_call_nanos, 0.99) / 1e3},
      {"storage.lock_waits.oltp", "count",
       static_cast<double>(oltp1.waits - oltp0.waits)},
      {"storage.lock_wait_ms.oltp", "ms",
       static_cast<double>(oltp1.wait_nanos - oltp0.wait_nanos) / 1e6},
      {"storage.lock_wait_ms.maintenance", "ms",
       static_cast<double>(mnt1.wait_nanos - mnt0.wait_nanos) / 1e6},
      {"storage.deadlock_victims.oltp", "count",
       static_cast<double>(oltp1.deadlock_victims - oltp0.deadlock_victims)},
      {"storage.txn_retries", "count", static_cast<double>(retries)},
      {"storage.wal_syncs", "count", wal_syncs},
      {"storage.commits_per_sync", "ratio", ratio(static_cast<double>(acked), wal_syncs)},
      {"storage.versions", "count", static_cast<double>(versions)},
      {"capture.lag_csn.p99", "csn", Percentile(poller.capture_lag, 0.99)},
      {"capture.rows_published", "count",
       static_cast<double>(c_end.capture.rows_published -
                           c_start.capture.rows_published)},
      {"capture.txns_captured", "count",
       static_cast<double>(c_end.capture.txns_captured - c_start.capture.txns_captured)},
      {"ivm.partitions", "count", static_cast<double>(partitions)},
      {"ivm.steps", "count",
       delta("rollview_step_total",
             {{"view", "V"}, {"driver", "propagate"}, {"outcome", "ok"}})},
      {"ivm.forward_queries", "count", fwd},
      {"ivm.comp_queries", "count", comp},
      {"ivm.comp_per_forward", "ratio", ratio(comp, fwd)},
      {"ivm.query_retries", "count", delta_total("rollview_query_retries_total")},
      {"ivm.view_delta_rows", "count", delta("rollview_view_delta_rows_total", lv)},
      {"ivm.apply_rolls", "count", delta("rollview_apply_rolls_total", lv)},
      {"ivm.apply_rows", "count",
       delta("rollview_apply_rows_total", {{"view", "V"}, {"event", "selected"}})},
      {"ivm.driver_transient_errors", "count",
       delta_total("rollview_driver_errors_total")},
      {"ivm.driver_backoff_ms", "ms",
       delta_total("rollview_driver_backoff_nanos_total") / 1e6},
      {"ivm.hwm_lag_csn.p99", "csn", Percentile(poller.hwm_lag, 0.99)},
      {"ivm.apply_lag_csn.p99", "csn", Percentile(poller.apply_lag, 0.99)},
      {"ra.exec_ms", "ms", delta("rollview_exec_nanos_total", lv) / 1e6},
      {"ra.input_rows", "count", rows_in},
      {"ra.output_rows", "count", rows_out},
      {"ra.input_per_output", "ratio", ratio(rows_in, rows_out)},
      {"ra.index_probes", "count", delta("rollview_exec_index_probes_total", lv)},
      {"ra.half_join_rebuilds", "count",
       delta("rollview_half_join_maintenance_total", {{"view", "V"}, {"kind", "rebuild"}})},
      {"ra.half_join_advance_rows", "count",
       delta("rollview_half_join_advance_rows_total", lv)},
      {"harness.read_call_us.p50", "us", Percentile(rr.read_call_nanos, 0.50) / 1e3},
      {"harness.snapshot_read_us.p50", "us", Percentile(snapshot_nanos, 0.50) / 1e3},
      {"harness.generator_late_ms.p99", "ms", Percentile(late_nanos, 0.99) / 1e6},

      {"obs.stage_durable_ms.p50", "ms", stage_ms(obs::FreshnessStage::kDurable)},
      {"obs.stage_pickup_ms.p50", "ms", stage_ms(obs::FreshnessStage::kPickup)},
      {"obs.stage_propagate_ms.p50", "ms", stage_ms(obs::FreshnessStage::kPropagate)},
      {"obs.stage_apply_ms.p50", "ms", stage_ms(obs::FreshnessStage::kApply)},
      {"cpu.writers_s", "s", writer_cpu},
      {"cpu.readers_s", "s", rr.cpu_seconds},
      {"cpu.capture_s", "s", cpu1[0] - cpu0[0]},
      {"cpu.propagate_s", "s", cpu1[1] - cpu0[1]},
      {"cpu.apply_s", "s", cpu1[2] - cpu0[2]},
      {"cpu.wal_s", "s", cpu1[3] - cpu0[3]},
  };

  std::fprintf(stderr,
               "workload %s seed %llu: steady %.2f s (%llu commits, %zu measured, "
               "%zu reads), "
               "ingest %d txns, %llu attempted, %llu failed, correct=%s\n",
               cfg.name.c_str(), static_cast<unsigned long long>(args.seed),
               steady_seconds,
               static_cast<unsigned long long>(steady_commits), commit_nanos.size(),
               rr.read_nanos.size(), cfg.ingest_txns,
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed), correct ? "true" : "false");
  if (!partition_fallback.ok()) {
    std::fprintf(stderr, "propagation runs serial: %s\n",
                 partition_fallback.ToString().c_str());
  }
  PrintTable("end-to-end", e2e);
  PrintTable("per-layer", layers);

  if (args.trace && !args.trace_dir.empty()) {
    std::filesystem::create_directories(args.trace_dir);
    std::string prefix =
        args.trace_dir + "/" + cfg.name + "-seed" + std::to_string(args.seed);
    std::vector<const SpanBuffer*> buffers{&reader_spans, &main_spans};
    for (auto& w : writers) buffers.push_back(&w->spans());
    std::vector<std::pair<std::string, double>> counters;
    for (const Metric& m : e2e) counters.emplace_back(m.name, m.value);
    for (const Metric& m : layers) counters.emplace_back(m.name, m.value);
    if (!WriteTrace(prefix, buffers, counters)) {
      std::fprintf(stderr, "cannot write trace to %s\n", prefix.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace written to %s.{spans.jsonl,summary.json}\n",
                 prefix.c_str());
  }

  PrintResult(correct, attempted, failed, args.trace ? layers : e2e);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --run-dir <dir> [--trace-dir <dir>] "
                 "[--closed-loop live|stopped]\n");
    return 2;
  }
  return perfbench::Run(args);
}
