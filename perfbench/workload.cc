// Copyright 2026 The rollview Authors.

#include "workload.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using rollview::Column;
using rollview::Db;
using rollview::Rng;
using rollview::Schema;
using rollview::TableOptions;
using rollview::Value;
using rollview::ValueType;
using rollview::Zipf;

namespace {

// Keys a writer allocates for new rows: disjoint from the loaded keys and
// from every other writer's.
constexpr int64_t kWriterKeyStride = 1'000'000'000'000LL;

// Rows a planner may delete or update, with O(1) random removal.
class Mirror {
 public:
  void Add(const Row& row) { rows_.push_back(row); }
  bool empty() const { return rows_.empty(); }
  Row TakeRandom(Rng& rng) {
    size_t i = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(rows_.size()) - 1));
    Row out = rows_[i];
    rows_[i] = rows_.back();
    rows_.pop_back();
    return out;
  }

 private:
  std::vector<Row> rows_;
};

// ---------------------------------------------------------------------------
// churn_durable: V = R |><|_{jkey} S over a wide join domain, with an
// insert/delete/update mix on both tables.

constexpr int64_t kChurnRRows = 20000;
constexpr int64_t kChurnSRows = 5000;
constexpr int64_t kChurnJoinDomain = 10000;
constexpr int kChurnOpsPerTxn = 4;
constexpr double kChurnInsert = 0.5;
constexpr double kChurnDelete = 0.2;  // remainder (0.3) updates
constexpr double kChurnRShare = 0.8;  // share of ops on R (rest on S)

class ChurnPlanner : public Planner {
 public:
  ChurnPlanner(int writer, uint64_t seed, std::array<Mirror, 2> mirrors)
      : rng_(seed),
        next_key_((writer + 1) * kWriterKeyStride),
        mirrors_(std::move(mirrors)) {}

  void Plan(std::vector<Op>* ops) override {
    ops->clear();
    for (int i = 0; i < kChurnOpsPerTxn; ++i) {
      Op op;
      op.table = rng_.Bernoulli(kChurnRShare) ? 0 : 1;
      Mirror& m = mirrors_[op.table];
      double u = rng_.NextDouble();
      if (u < kChurnInsert || m.empty()) {
        op.kind = OpKind::kInsert;
        op.new_row = Fresh(next_key_++);
      } else if (u < kChurnInsert + kChurnDelete) {
        op.kind = OpKind::kDelete;
        op.old_row = m.TakeRandom(rng_);
      } else {
        op.kind = OpKind::kUpdate;
        op.old_row = m.TakeRandom(rng_);
        op.new_row = Fresh(op.old_row[0]);
      }
      ops->push_back(op);
    }
  }

  void Committed(const std::vector<Op>& ops) override {
    for (const Op& op : ops) {
      if (op.kind != OpKind::kDelete) mirrors_[op.table].Add(op.new_row);
    }
  }

  void Abandoned(const std::vector<Op>& ops) override {
    for (const Op& op : ops) {
      if (op.kind != OpKind::kInsert) mirrors_[op.table].Add(op.old_row);
    }
  }

 private:
  Row Fresh(int64_t key) {
    return Row{key, rng_.Uniform(0, kChurnJoinDomain - 1),
               rng_.Uniform(0, 1'000'000), 0, 0};
  }

  Rng rng_;
  int64_t next_key_;
  std::array<Mirror, 2> mirrors_;
};

class ChurnWorkload : public Workload {
 public:
  explicit ChurnWorkload(uint64_t seed) : seed_(seed) {
    config_.name = "churn_durable";
    config_.writers = 2;
    config_.txn_rate = 150;
    config_.read_rate = 50;
    config_.snapshot_every = 0;
    config_.durable_wal = true;
    config_.partitions = 1;
    config_.ingest_txns = 4000;
  }

  Status Load(Db* db, std::vector<Change>* record) override {
    TableOptions options;
    options.indexed_columns = {0, 1};  // key and join column
    for (const char* name : {"R", "S"}) {
      Schema schema({Column{std::string(name) + "key", ValueType::kInt64},
                     Column{"jkey", ValueType::kInt64},
                     Column{"val", ValueType::kInt64}});
      ROLLVIEW_ASSIGN_OR_RETURN(TableId id,
                                db->CreateTable(name, schema, options));
      tables_.push_back(id);
    }
    Rng rng(seed_);
    std::unique_ptr<rollview::Txn> txn = db->Begin();
    size_t first = record->size();
    for (uint8_t t = 0; t < 2; ++t) {
      int64_t rows = t == 0 ? kChurnRRows : kChurnSRows;
      for (int64_t k = 0; k < rows; ++k) {
        Row row{k, rng.Uniform(0, kChurnJoinDomain - 1),
                rng.Uniform(0, 1'000'000), 0, 0};
        ROLLVIEW_RETURN_NOT_OK(db->Insert(txn.get(), tables_[t],
                                          ToTuple(t, row)));
        record->push_back(Change{0, t, +1, row});
        loaded_[t].push_back(row);
      }
    }
    ROLLVIEW_RETURN_NOT_OK(db->Commit(txn.get()));
    for (size_t i = first; i < record->size(); ++i) {
      (*record)[i].csn = txn->commit_csn();
    }
    return Status::OK();
  }

  rollview::SpjViewDef ViewDef() const override {
    return rollview::ChainJoin({tables_[0], tables_[1]}, {{1, 1}});
  }

  Tuple ToTuple(size_t, const Row& row) const override {
    return Tuple{Value(row[0]), Value(row[1]), Value(row[2])};
  }

  Row FromTuple(size_t, const Tuple& t) const override {
    return Row{t[0].AsInt64(), t[1].AsInt64(), t[2].AsInt64(), 0, 0};
  }

  std::unique_ptr<Planner> MakePlanner(int writer, uint64_t seed) override {
    // Writer w owns the loaded rows whose key is w modulo the writer count.
    std::array<Mirror, 2> mirrors;
    for (size_t t = 0; t < 2; ++t) {
      for (const Row& row : loaded_[t]) {
        if (row[0] % config_.writers == writer) mirrors[t].Add(row);
      }
    }
    return std::make_unique<ChurnPlanner>(writer, seed, std::move(mirrors));
  }

  rollview::CountMap Join(const TableState& state) const override {
    std::unordered_map<int64_t, std::vector<const Row*>> s_by_jkey;
    for (const auto& [key, row] : state[1]) s_by_jkey[row[1]].push_back(&row);
    rollview::CountMap out;
    for (const auto& [key, r] : state[0]) {
      auto it = s_by_jkey.find(r[1]);
      if (it == s_by_jkey.end()) continue;
      for (const Row* s : it->second) {
        Tuple t = ToTuple(0, r);
        Tuple st = ToTuple(1, *s);
        t.insert(t.end(), st.begin(), st.end());
        out[std::move(t)] += 1;
      }
    }
    return out;
  }

 private:
  uint64_t seed_;
  std::array<std::vector<Row>, 2> loaded_;
};

// ---------------------------------------------------------------------------
// star_skew: V = fact |><| dim0 |><| dim1 |><| dim2 with Zipfian foreign
// keys; mostly fact inserts plus a few hot-key dimension-attribute updates.

constexpr int kStarDims = 3;
constexpr int64_t kStarDimRows = 1000;
constexpr int64_t kStarFactRows = 20000;
constexpr double kStarZipfTheta = 0.99;
constexpr int kStarOpsPerTxn = 4;
// Every 400th op of writer 0 updates a dimension attribute (1/800 of all
// ops with two writers), cycling through the dimensions; every other op
// inserts a fact. An update of a hot key joins thousands of facts, so even
// this share dominates maintenance.
constexpr uint64_t kStarDimUpdateEvery = 400;

Tuple DimTuple(int d, const Row& row) {
  return Tuple{Value(row[0]), Value(row[1]),
               Value("d" + std::to_string(d) + "_" + std::to_string(row[0]))};
}

// Zipf(n, theta) keys drawn by inverse CDF from a golden-ratio sequence
// instead of independent uniforms: the keys of any run of draws follow the
// Zipf distribution closely, so every seed updates about the same mix of
// hot and cold keys. An independent draw makes the few hottest-key updates
// (thousands of joined facts each) a coin flip per run.
class StratifiedZipf {
 public:
  StratifiedZipf(int64_t n, double theta, double start) : u_(start) {
    double sum = 0;
    for (int64_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  int64_t Next() {
    u_ += 0.6180339887498949;
    u_ -= std::floor(u_);
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u_);
    return it == cdf_.end() ? static_cast<int64_t>(cdf_.size()) - 1
                            : static_cast<int64_t>(it - cdf_.begin());
  }

 private:
  double u_;
  std::vector<double> cdf_;
};

class StarPlanner : public Planner {
 public:
  StarPlanner(int writer, uint64_t seed, const Zipf* zipf)
      : rng_(seed),
        // Writer 0 makes every dimension update, so no two writers ever
        // read-modify-write (or row-lock) the same dimension row.
        dim_updates_(writer == 0),
        next_key_((writer + 1) * kWriterKeyStride),
        zipf_(zipf),
        dim_keys_(kStarDimRows, kStarZipfTheta, rng_.NextDouble()) {}

  void Plan(std::vector<Op>* ops) override {
    ops->clear();
    for (int i = 0; i < kStarOpsPerTxn; ++i) {
      Op op;
      if (dim_updates_ && ++ops_planned_ % kStarDimUpdateEvery == 0) {
        op.kind = OpKind::kUpdateAttr;
        op.table = static_cast<uint8_t>(1 + dim_updates_made_++ % kStarDims);
        op.new_row = Row{dim_keys_.Next(), rng_.Uniform(0, 1'000'000), 0, 0, 0};
      } else {
        op.kind = OpKind::kInsert;
        op.table = 0;
        op.new_row = Row{next_key_++, zipf_->Sample(rng_),
                         zipf_->Sample(rng_), zipf_->Sample(rng_),
                         rng_.Uniform(1, 10000)};
      }
      ops->push_back(op);
    }
  }

  void Committed(const std::vector<Op>&) override {}
  void Abandoned(const std::vector<Op>&) override {}

 private:
  Rng rng_;
  bool dim_updates_;
  int64_t next_key_;
  const Zipf* zipf_;
  StratifiedZipf dim_keys_;
  uint64_t ops_planned_ = 0;
  uint64_t dim_updates_made_ = 0;
};

class StarWorkload : public Workload {
 public:
  explicit StarWorkload(uint64_t seed)
      : seed_(seed), zipf_(kStarDimRows, kStarZipfTheta) {
    config_.name = "star_skew";
    config_.writers = 2;
    config_.txn_rate = 40;
    config_.read_rate = 50;
    config_.snapshot_every = 5;
    config_.durable_wal = false;
    config_.partitions = 2;
    config_.ingest_txns = 8000;
  }

  Status Load(Db* db, std::vector<Change>* record) override {
    std::vector<Column> fact_cols{Column{"fkey", ValueType::kInt64}};
    TableOptions fact_options;
    fact_options.indexed_columns = {0};
    for (int d = 0; d < kStarDims; ++d) {
      fact_cols.push_back(Column{"d" + std::to_string(d), ValueType::kInt64});
      fact_options.indexed_columns.push_back(static_cast<size_t>(d) + 1);
    }
    fact_cols.push_back(Column{"amount", ValueType::kDouble});
    ROLLVIEW_ASSIGN_OR_RETURN(
        TableId fact,
        db->CreateTable("fact", Schema(fact_cols), fact_options));
    tables_.push_back(fact);
    TableOptions dim_options;
    dim_options.indexed_columns = {0};
    Schema dim_schema({Column{"dkey", ValueType::kInt64},
                       Column{"attr", ValueType::kInt64},
                       Column{"label", ValueType::kString}});
    for (int d = 0; d < kStarDims; ++d) {
      ROLLVIEW_ASSIGN_OR_RETURN(
          TableId id,
          db->CreateTable("dim" + std::to_string(d), dim_schema, dim_options));
      tables_.push_back(id);
    }

    Rng rng(seed_);
    std::unique_ptr<rollview::Txn> txn = db->Begin();
    size_t first = record->size();
    auto load = [&](uint8_t t, const Row& row) -> Status {
      record->push_back(Change{0, t, +1, row});
      return db->Insert(txn.get(), tables_[t], ToTuple(t, row));
    };
    for (uint8_t t = 1; t <= kStarDims; ++t) {
      for (int64_t k = 0; k < kStarDimRows; ++k) {
        ROLLVIEW_RETURN_NOT_OK(load(t, Row{k, rng.Uniform(0, 1'000'000), 0,
                                           0, 0}));
      }
    }
    for (int64_t k = 0; k < kStarFactRows; ++k) {
      ROLLVIEW_RETURN_NOT_OK(
          load(0, Row{k, zipf_.Sample(rng), zipf_.Sample(rng),
                      zipf_.Sample(rng), rng.Uniform(1, 10000)}));
    }
    ROLLVIEW_RETURN_NOT_OK(db->Commit(txn.get()));
    for (size_t i = first; i < record->size(); ++i) {
      (*record)[i].csn = txn->commit_csn();
    }
    return Status::OK();
  }

  rollview::SpjViewDef ViewDef() const override {
    return rollview::StarJoin(tables_[0], {tables_[1], tables_[2], tables_[3]},
                              {1, 2, 3}, {0, 0, 0});
  }

  Tuple ToTuple(size_t table, const Row& row) const override {
    if (table > 0) return DimTuple(static_cast<int>(table) - 1, row);
    return Tuple{Value(row[0]), Value(row[1]), Value(row[2]), Value(row[3]),
                 Value(static_cast<double>(row[4]) / 100.0)};
  }

  Row FromTuple(size_t table, const Tuple& t) const override {
    if (table > 0) return Row{t[0].AsInt64(), t[1].AsInt64(), 0, 0, 0};
    return Row{t[0].AsInt64(), t[1].AsInt64(), t[2].AsInt64(),
               t[3].AsInt64(), std::llround(t[4].AsDouble() * 100.0)};
  }

  std::unique_ptr<Planner> MakePlanner(int writer, uint64_t seed) override {
    return std::make_unique<StarPlanner>(writer, seed, &zipf_);
  }

  rollview::CountMap Join(const TableState& state) const override {
    std::vector<std::unordered_map<int64_t, Tuple>> dims(kStarDims);
    for (int d = 0; d < kStarDims; ++d) {
      for (const auto& [key, row] : state[d + 1]) {
        dims[d].emplace(key, DimTuple(d, row));
      }
    }
    rollview::CountMap out;
    for (const auto& [key, f] : state[0]) {
      Tuple t = ToTuple(0, f);
      bool joined = true;
      for (int d = 0; d < kStarDims && joined; ++d) {
        auto it = dims[d].find(f[1 + d]);
        if (it == dims[d].end()) {
          joined = false;
        } else {
          t.insert(t.end(), it->second.begin(), it->second.end());
        }
      }
      if (joined) out[std::move(t)] += 1;
    }
    return out;
  }

 private:
  uint64_t seed_;
  Zipf zipf_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names{"churn_durable", "star_skew"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "churn_durable") return std::make_unique<ChurnWorkload>(seed);
  if (name == "star_skew") return std::make_unique<StarWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
