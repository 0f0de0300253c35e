// Copyright 2026 The rollview Authors.
//
// The benchmark's two workloads. Each one creates and bulk-loads its own
// base tables, plans every transaction itself from a seeded generator, and
// can recompute its view from the benchmark's own record of acknowledged
// writes -- the correctness oracle the driver checks the MV against.
//
// Rows are kept in a compact form (Row: up to five int64 fields) so that
// the record of every write costs little memory; ToTuple expands a Row into
// the engine's tuple for that table.

#ifndef ROLLVIEW_PERFBENCH_WORKLOAD_H_
#define ROLLVIEW_PERFBENCH_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "ivm/view_def.h"
#include "ra/net_effect.h"
#include "schema/tuple.h"
#include "storage/db.h"

namespace perfbench {

using rollview::Csn;
using rollview::Status;
using rollview::TableId;
using rollview::Tuple;

// A base-table row. Field 0 is always the row's unique key.
using Row = std::array<int64_t, 5>;

// One acknowledged row change, stamped with its transaction's commit CSN.
struct Change {
  Csn csn = 0;
  uint8_t table = 0;
  int8_t sign = 0;  // +1 insert, -1 delete
  Row row{};
};

// Base-table state: key -> row, one map per table of the workload.
using TableState = std::vector<std::unordered_map<int64_t, Row>>;

enum class OpKind : uint8_t {
  kInsert,      // insert new_row
  kDelete,      // delete old_row
  kUpdate,      // replace old_row by new_row
  kUpdateAttr,  // read the row keyed new_row[0], set field 1 to new_row[1]
};

struct Op {
  OpKind kind = OpKind::kInsert;
  uint8_t table = 0;
  Row old_row{};
  Row new_row{};
};

// Fixed shape of a workload: everything except the seed.
struct WorkloadConfig {
  std::string name;
  int writers = 2;
  double txn_rate = 0;     // offered commits/s, all writers together
  double read_rate = 0;    // offered reads/s
  int snapshot_every = 0;  // every n-th read is a full Snapshot (0: never)
  bool durable_wal = false;
  uint32_t partitions = 1;
  int ingest_txns = 0;     // size of the closed-loop ingest batch
};

// Per-writer transaction generator. Plans against the writer's own mirror
// of the rows it may touch; the mirror changes only when a plan commits.
class Planner {
 public:
  virtual ~Planner() = default;
  virtual void Plan(std::vector<Op>* ops) = 0;
  virtual void Committed(const std::vector<Op>& ops) = 0;
  // The plan will never commit: return its victims to the mirror.
  virtual void Abandoned(const std::vector<Op>& ops) = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  const WorkloadConfig& config() const { return config_; }
  size_t num_tables() const { return tables_.size(); }
  TableId table_id(size_t t) const { return tables_[t]; }

  // Creates and loads the base tables, recording every loaded row.
  virtual Status Load(rollview::Db* db, std::vector<Change>* record) = 0;
  virtual rollview::SpjViewDef ViewDef() const = 0;
  virtual Tuple ToTuple(size_t table, const Row& row) const = 0;
  virtual Row FromTuple(size_t table, const Tuple& tuple) const = 0;
  virtual std::unique_ptr<Planner> MakePlanner(int writer, uint64_t seed) = 0;
  // The view's contents over the given base-table state, with counts.
  virtual rollview::CountMap Join(const TableState& state) const = 0;

 protected:
  WorkloadConfig config_;
  std::vector<TableId> tables_;
};

// Known workload names, for argument checking.
const std::vector<std::string>& WorkloadNames();
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace perfbench

#endif  // ROLLVIEW_PERFBENCH_WORKLOAD_H_
