// facade_lookups: a closed loop through EcoDb::Execute, called the way the
// examples call it (no statistics in the spec, so every ChoosePlan analyzes
// the table). ORDERS has a plain and a compressed variant and a B+tree on
// o_orderkey. Three ops in four are key-range lookups of 512 to 2048 keys
// planned for energy, which take the index path; the rest are wide
// order-date scans whose variant the objective (lambda 0, 0.05 or infinity)
// decides. The rig is the energy_aware_optimizer example's: one-core
// flash-scan host, modest flash, decode weight calibrated as in the
// Figure 2 bench.

#include <string>
#include <vector>

#include "common.h"
#include "tpch/generator.h"
#include "util/random.h"

namespace ecobench {
namespace {

using ecodb::Rng;
using ecodb::Status;
using ecodb::StatusOr;
namespace core = ecodb::core;
namespace exec = ecodb::exec;
namespace optimizer = ecodb::optimizer;
namespace storage = ecodb::storage;
namespace tpch = ecodb::tpch;

constexpr double kScaleFactor = 2.0;  // 30k orders
constexpr int kCyclesPerPass = 10;    // 12 ops per cycle: 120 ops
constexpr double kLambdas[] = {0.0, 0.05, 1e9};

struct LookupOp {
  bool wide = false;
  double lambda = 0.0;
  int64_t lo = 0, hi = 0;  // o_orderkey range (narrow) or o_orderdate (wide)
};

class FacadeLookups : public QueryWorkload {
 public:
  Status Setup(uint64_t seed, Tracer* tracer, int64_t op,
               SetupTimes* times) override {
    specs_.clear();
    db_.reset();

    core::DbConfig config;
    config.preset = core::PlatformPreset::kFlashScan;  // one modeled core
    config.ssd_count = 1;
    config.ssd_spec.read_bw_bytes_per_s = 30e6;
    config.cost_params.costs.decode_scale = 60.0;
    config.exec_options.costs.decode_scale = 60.0;
    {
      ScopedSpan span(tracer, "core", "core.open", op);
      ECODB_ASSIGN_OR_RETURN(db_, core::EcoDb::Open(config));
    }
    exec_options_ = config.exec_options;

    tpch::TpchConfig tc;
    tc.scale_factor = kScaleFactor;
    tc.seed = 20090104 + seed;
    std::vector<storage::ColumnData> columns =
        TimedStep(tracer, "tpch", "tpch.generate", op, &times->generate_s,
                  [&] { return tpch::GenerateOrders(tc); });
    ECODB_RETURN_IF_ERROR(TimedStep(
        tracer, "storage", "storage.load", op, &times->load_s, [&] {
          Status s = db_->CreateTable("orders", tpch::OrdersSchema());
          return s.ok() ? db_->Load("orders", columns) : s;
        }));
    ECODB_RETURN_IF_ERROR(TimedStep(
        tracer, "storage", "storage.encode", op, &times->encode_s, [&] {
          return db_->CloneWithCompression(
              "orders", "orders_compressed",
              {{"o_orderkey", storage::CompressionKind::kDelta},
               {"o_custkey", storage::CompressionKind::kFor},
               {"o_orderdate", storage::CompressionKind::kFor},
               {"o_orderpriority", storage::CompressionKind::kDictionary}});
        }));
    ECODB_ASSIGN_OR_RETURN(
        index_, TimedStep(tracer, "storage", "storage.index_build", op,
                          &times->index_s, [&] {
                            return db_->CreateIndex("orders", "o_orderkey");
                          }));
    ECODB_ASSIGN_OR_RETURN(plain_, db_->table("orders"));
    ECODB_ASSIGN_OR_RETURN(compressed_, db_->table("orders_compressed"));

    if (ops_.empty()) {
      ops_ = DrawOps(seed, static_cast<int64_t>(columns[0].size()));
    }
    for (const LookupOp& o : ops_) specs_.push_back(SpecFor(o));
    return Status::OK();
  }

  size_t num_ops() const override { return ops_.size(); }

  OpOutcome RunOp(size_t i, Tracer* tracer, int64_t op) override {
    const optimizer::Objective objective =
        optimizer::Objective::Balanced(ops_[i].lambda);
    // Traced ops take Execute's steps one span at a time.
    if (tracer->enabled()) {
      return PlanAndRun(db_.get(), exec_options_, specs_[i], objective, tracer,
                        op);
    }
    OpOutcome out;
    StatusOr<core::QueryOutcome> result = db_->Execute(specs_[i], objective);
    if (!result.ok()) {
      out.status = result.status();
      return out;
    }
    out.rows = std::move(result->rows);
    out.stats = result->stats;
    RecordPlan(specs_[i], *result->plan, &out);
    return out;
  }

  StatusOr<uint64_t> ReferenceFingerprint(size_t i) override {
    // A plain-variant table scan with the same filter.
    optimizer::PhysicalPlan plan;
    plan.left_variant = 0;
    plan.left_path = optimizer::AccessPath::kTableScan;
    ECODB_ASSIGN_OR_RETURN(exec::OperatorPtr root,
                           db_->planner()->BuildOperator(specs_[i], plan));
    exec::ExecContext ctx(db_->platform(), exec_options_);
    ECODB_ASSIGN_OR_RETURN(exec::QueryResultSet rows,
                           exec::CollectAll(root.get(), &ctx));
    ctx.Finish();
    return RowFingerprint(rows);
  }

  const storage::TableStorage* plain_table() const override { return plain_; }
  const storage::TableStorage* compressed_table() const override {
    return compressed_;
  }

 private:
  /// Per 12-op cycle: nine lookups and three wide scans (one per lambda).
  /// Lookups are planned for energy: under lambda 0 the planner, which
  /// prices an index fetch per row, already prefers a compressed scan at a
  /// few hundred keys. Lookup widths are stratified over 512..2048 keys:
  /// a lookup's modeled time steps with the pages it reads, and the median
  /// op must read enough pages (about 14) that one page is a small step.
  /// Scan spans are stratified over one to three years.
  static std::vector<LookupOp> DrawOps(uint64_t seed, int64_t rows) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 5);
    const std::vector<double> widths =
        StratifiedDraws(&rng, kCyclesPerPass * 9);
    const std::vector<double> spans =
        StratifiedDraws(&rng, kCyclesPerPass * 3);
    std::vector<LookupOp> ops;
    size_t narrow = 0, wide = 0;
    for (int cycle = 0; cycle < kCyclesPerPass; ++cycle) {
      for (int pos = 0; pos < 12; ++pos) {
        LookupOp o;
        o.wide = pos % 4 == 3;
        o.lambda = o.wide ? kLambdas[pos / 4] : kLambdas[2];
        if (o.wide) {
          const int64_t span =
              365 + static_cast<int64_t>(spans[wide++] * 730.0);
          o.lo = rng.Uniform(0, tpch::kDateRangeDays - span);
          o.hi = o.lo + span;
        } else {
          const int64_t width =
              512 + static_cast<int64_t>(1536.0 * widths[narrow++]);
          o.lo = rng.Uniform(1, rows - width);
          o.hi = o.lo + width - 1;
        }
        ops.push_back(o);
      }
    }
    return ops;
  }

  optimizer::QuerySpec SpecFor(const LookupOp& o) const {
    using exec::Col;
    using exec::Lit;
    optimizer::QuerySpec spec;
    spec.left.name = "orders";
    spec.left.variants = {plain_, compressed_};
    spec.left.columns = {"o_orderkey", "o_custkey", "o_totalprice",
                         "o_orderdate", "o_orderpriority"};
    spec.left.index = index_;
    spec.left.index_column = "o_orderkey";
    const char* column = o.wide ? "o_orderdate" : "o_orderkey";
    spec.left.filter =
        exec::And(Col(column) >= Lit(o.lo), Col(column) <= Lit(o.hi));
    return spec;
  }

  std::unique_ptr<core::EcoDb> db_;
  exec::ExecOptions exec_options_;
  const storage::TableStorage* plain_ = nullptr;
  const storage::TableStorage* compressed_ = nullptr;
  const storage::BTreeIndex* index_ = nullptr;
  std::vector<LookupOp> ops_;
  std::vector<optimizer::QuerySpec> specs_;
};

}  // namespace

std::unique_ptr<QueryWorkload> MakeFacadeLookups() {
  return std::make_unique<FacadeLookups>();
}

}  // namespace ecobench
