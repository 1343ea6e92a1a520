// tpch_joins: a closed loop over the four committed join shapes (the Q3,
// Q9, Q5 and Q14 analogues of tpch/queries.h) on the six-table schema.
// Specs carry load-time statistics, so the planner's N-way DP prices them
// without analyzing; the seed draws the data and each op's parameters, and
// every (shape, lambda) pair appears equally often in the op list.

#include <string>
#include <vector>

#include "common.h"
#include "optimizer/join_order.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
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

constexpr double kScaleFactor = 1.0;  // 15k orders, 60k line items
constexpr int kCyclesPerPass = 10;    // 4 shapes x 3 lambdas x 10 = 120 ops
constexpr double kLambdas[] = {0.0, 0.05, 1e9};
constexpr const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                     "HOUSEHOLD", "MACHINERY"};

struct JoinOp {
  int shape = 0;
  double lambda = 0.0;
  std::string segment;
  int64_t a = 0, b = 0, c = 0;  // shape parameters
};

class TpchJoins : public QueryWorkload {
 public:
  Status Setup(uint64_t seed, Tracer* tracer, int64_t op,
               SetupTimes* times) override {
    specs_.clear();
    tables_ = tpch::TpchDatabase();
    db_.reset();

    core::DbConfig config;
    config.preset = core::PlatformPreset::kProportional;
    // Engine worker threads stay within four host cores.
    config.derive_dop_ladder = false;
    config.planner_options.dops = {1, 2, 4};
    {
      ScopedSpan span(tracer, "bench", "core.open", op);
      ECODB_ASSIGN_OR_RETURN(db_, core::EcoDb::Open(config));
    }
    exec_options_ = config.exec_options;

    tpch::TpchConfig tc;
    tc.scale_factor = kScaleFactor;
    tc.seed = 20090104 + seed;
    ecodb::catalog::Catalog* catalog = db_->catalog();
    storage::StorageDevice* device = db_->primary_device();
    // The steps of tpch::LoadDatabase, one span each; dimensions first, so
    // the foreign keys can resolve their parents.
    auto load = [&](const char* name, ecodb::catalog::Schema schema,
                    std::vector<storage::ColumnData> (*generate)(
                        const tpch::TpchConfig&),
                    tpch::TpchTable* out) -> Status {
      std::vector<storage::ColumnData> columns = TimedStep(
          tracer, "tpch", "tpch.generate", op, &times->generate_s,
          [&] { return generate(tc); });
      return TimedStep(tracer, "storage", "storage.load", op, &times->load_s,
                       [&]() -> Status {
        ECODB_ASSIGN_OR_RETURN(const ecodb::catalog::TableId id,
                               catalog->CreateTable(name, schema));
        out->storage = std::make_unique<storage::TableStorage>(
            id, schema, storage::TableLayout::kColumn, device);
        ECODB_RETURN_IF_ERROR(out->storage->Append(columns));
        ECODB_RETURN_IF_ERROR(out->storage->AnalyzeInto(&out->stats));
        return catalog->UpdateStats(id, out->stats);
      });
    };
    ECODB_RETURN_IF_ERROR(load("customer", tpch::CustomerSchema(),
                               tpch::GenerateCustomer, &tables_.customer));
    ECODB_RETURN_IF_ERROR(
        load("part", tpch::PartSchema(), tpch::GeneratePart, &tables_.part));
    ECODB_RETURN_IF_ERROR(load("supplier", tpch::SupplierSchema(),
                               tpch::GenerateSupplier, &tables_.supplier));
    ECODB_RETURN_IF_ERROR(load("partsupp", tpch::PartsuppSchema(),
                               tpch::GeneratePartsupp, &tables_.partsupp));
    ECODB_RETURN_IF_ERROR(load("orders", tpch::OrdersSchema(),
                               tpch::GenerateOrders, &tables_.orders));
    ECODB_RETURN_IF_ERROR(load("lineitem", tpch::LineitemSchema(),
                               tpch::GenerateLineitem, &tables_.lineitem));
    // The foreign keys tpch::LoadDatabase registers.
    ECODB_RETURN_IF_ERROR(TimedStep(
        tracer, "storage", "storage.load", op, &times->load_s, [&]() -> Status {
          auto fk = [&](const tpch::TpchTable& child, const char* column,
                        const char* parent, const char* parent_column) {
            return catalog->AddForeignKey(child.storage->id(),
                                          {column, parent, parent_column});
          };
          ECODB_RETURN_IF_ERROR(
              fk(tables_.orders, "o_custkey", "customer", "c_custkey"));
          ECODB_RETURN_IF_ERROR(
              fk(tables_.lineitem, "l_orderkey", "orders", "o_orderkey"));
          ECODB_RETURN_IF_ERROR(
              fk(tables_.lineitem, "l_partkey", "part", "p_partkey"));
          ECODB_RETURN_IF_ERROR(
              fk(tables_.lineitem, "l_suppkey", "supplier", "s_suppkey"));
          ECODB_RETURN_IF_ERROR(
              fk(tables_.partsupp, "ps_partkey", "part", "p_partkey"));
          return fk(tables_.partsupp, "ps_suppkey", "supplier", "s_suppkey");
        }));

    if (ops_.empty()) ops_ = DrawOps(seed);
    for (const JoinOp& o : ops_) specs_.push_back(SpecFor(o));
    return Status::OK();
  }

  size_t num_ops() const override { return ops_.size(); }

  OpOutcome RunOp(size_t i, Tracer* tracer, int64_t op) override {
    return PlanAndRun(db_.get(), exec_options_, specs_[i],
                      optimizer::Objective::Balanced(ops_[i].lambda), tracer,
                      op);
  }

  StatusOr<uint64_t> ReferenceFingerprint(size_t i) override {
    // The estimate-free left-deep oracle plan, at dop 1.
    ECODB_ASSIGN_OR_RETURN(optimizer::PhysicalPlan plan,
                           optimizer::CanonicalJoinPlan(specs_[i]));
    ECODB_ASSIGN_OR_RETURN(exec::OperatorPtr root,
                           db_->planner()->BuildOperator(specs_[i], plan));
    exec::ExecContext ctx(db_->platform(), exec_options_);
    ECODB_ASSIGN_OR_RETURN(exec::QueryResultSet rows,
                           exec::CollectAll(root.get(), &ctx));
    ctx.Finish();
    return RowFingerprint(rows);
  }

  const storage::TableStorage* plain_table() const override {
    return tables_.lineitem.storage.get();
  }

 private:
  /// One op per (shape, lambda) per cycle; each pair's parameters are
  /// stratified over their ranges and its segments rotate. The ranges are
  /// narrow on purpose: an op's host cost follows its parameters, and the
  /// shapes' cost ranges overlap at the median op, so wide ranges let the
  /// seed alone move host_ms_p50 by 10%.
  static std::vector<JoinOp> DrawOps(uint64_t seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
    std::vector<JoinOp> ops(static_cast<size_t>(kCyclesPerPass * 12));
    for (int shape = 0; shape < 4; ++shape) {
      for (int l = 0; l < 3; ++l) {
        const std::vector<double> u = StratifiedDraws(&rng, kCyclesPerPass);
        const std::vector<double> v = StratifiedDraws(&rng, kCyclesPerPass);
        const int64_t segment0 = rng.Uniform(0, 4);
        for (int c = 0; c < kCyclesPerPass; ++c) {
          JoinOp& o = ops[static_cast<size_t>(c * 12 + shape * 3 + l)];
          o.shape = shape;
          o.lambda = kLambdas[l];
          o.segment = kSegments[(segment0 + c) % 5];
          auto in = [](double x, int64_t lo, int64_t hi) {
            return lo +
                   static_cast<int64_t>(x * static_cast<double>(hi - lo + 1));
          };
          switch (shape) {
            case 0:  // order-date cutoff
              o.a = in(u[c], 1000, 1400);
              break;
            case 1:  // max part size
              o.a = in(u[c], 4, 6);
              break;
            case 2:  // min part size
              o.a = in(u[c], 39, 41);
              break;
            default:  // ship-date window and top-k
              o.a = in(u[c], 0, tpch::kDateRangeDays - 90);
              o.b = o.a + in(v[c], 50, 70);
              o.c = 3 + c % 3;
              break;
          }
        }
      }
    }
    return ops;
  }

  optimizer::QuerySpec SpecFor(const JoinOp& o) const {
    switch (o.shape) {
      case 0:
        return tpch::MakeSegmentRevenueSpec(tables_, o.segment, o.a);
      case 1:
        return tpch::MakePartSupplierProfitSpec(tables_, o.a);
      case 2:
        return tpch::MakeLocalSupplierVolumeSpec(tables_, o.segment, o.a);
      default:
        return tpch::MakePromoRevenueSpec(tables_, o.a, o.b,
                                          static_cast<uint64_t>(o.c));
    }
  }

  std::unique_ptr<core::EcoDb> db_;
  tpch::TpchDatabase tables_;  // declared after db_: destroyed first
  exec::ExecOptions exec_options_;
  std::vector<JoinOp> ops_;
  std::vector<optimizer::QuerySpec> specs_;
};

}  // namespace

std::unique_ptr<QueryWorkload> MakeTpchJoins() {
  return std::make_unique<TpchJoins>();
}

}  // namespace ecobench
