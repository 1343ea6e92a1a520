// Shared pieces of the benchmark: command-line options, the result line,
// statistics helpers, the order-insensitive row fingerprint, and the timed
// closed loop both query workloads run.

#ifndef ECOBENCH_COMMON_H_
#define ECOBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ecodb.h"
#include "exec/operator.h"
#include "optimizer/planner.h"
#include "util/random.h"
#include "trace.h"

namespace ecobench {

/// The seed used when --seed is not given.
constexpr uint64_t kDefaultSeed = 1;

/// Setup rounds per run; setup_s is their median.
constexpr int kSetupRounds = 5;

/// Op ids: setup rounds are 0..kSetupRounds-1; timed ops count up from
/// this base.
constexpr int64_t kOpBase = 1000;

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // traced mode writes the spans here
  /// Test hook: flips one bit of the first op's row fingerprint, which the
  /// correctness check must then report.
  bool corrupt_fingerprint = false;
};

/// A metric the result line carries, with its unit.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed with tracing off (every workload).
extern const std::vector<MetricDef> kEndToEndMetrics;
/// Per-layer metrics, printed with tracing on (every workload; a layer that
/// does no work on a workload reports 0).
extern const std::vector<MetricDef> kPerLayerMetrics;

/// What one run prints as its last line.
struct RunOutput {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // correctness mismatches, in order
  std::map<std::string, double> values;

  bool correct() const { return errors.empty(); }
  void Error(std::string what) { errors.push_back(std::move(what)); }
  void Set(const std::string& name, double value) { values[name] = value; }
};

/// Host seconds of each setup step, summed over one setup round.
struct SetupTimes {
  double total_s = 0.0;
  double generate_s = 0.0;  // tpch generators
  double load_s = 0.0;      // table creation, append and analyze
  double encode_s = 0.0;    // compressed variants
  double index_s = 0.0;     // B+tree builds
};

/// Runs `fn` under a span and adds its host seconds to `*acc`.
template <typename Fn>
auto TimedStep(Tracer* tracer, const char* layer, const char* name,
               int64_t op, double* acc, Fn&& fn) {
  ScopedSpan span(tracer, layer, name, op);
  const double t0 = HostNow();
  auto result = fn();
  *acc += HostNow() - t0;
  return result;
}

/// `n` stratified uniform draws in [0, 1): one from each of n equal strata,
/// in seeded random order. Parameters drawn this way spread evenly over
/// their range on every seed, so op cost mixes stay alike across seeds.
std::vector<double> StratifiedDraws(ecodb::Rng* rng, int n);

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Order-insensitive fingerprint of a result set: columns are matched by
/// name and doubles rounded to 9 significant digits, so two plans that join
/// in different orders (and sum in a different order) agree.
uint64_t RowFingerprint(const ecodb::exec::QueryResultSet& rows);

/// Peak resident set of this process, in MB.
double PeakRssMb();


/// One query op: its rows, modeled stats and plan choices.
struct OpOutcome {
  ecodb::Status status;
  ecodb::exec::QueryResultSet rows;
  ecodb::exec::QueryStats stats;
  bool compressed = false;   // plan chose a compressed variant
  bool index = false;        // plan chose the index-scan path
  int dop = 1;
  double est_joules = 0.0;   // the planner's estimate for the chosen plan
  double scanned_rows = 0.0;
  RootCounts counts;         // traced mode only
};

/// Records `plan`'s choices in `out`: variant, access path, dop, the
/// estimated Joules and the rows its table scans read.
void RecordPlan(const ecodb::optimizer::QuerySpec& spec,
                const ecodb::optimizer::PhysicalPlan& plan, OpOutcome* out);

/// Plans `spec` with the database's planner, builds the tree and drains it
/// through exec::CollectAll — the steps EcoDb::Execute takes, each under its
/// own span.
OpOutcome PlanAndRun(ecodb::core::EcoDb* db,
                     const ecodb::exec::ExecOptions& base,
                     const ecodb::optimizer::QuerySpec& spec,
                     const ecodb::optimizer::Objective& objective,
                     Tracer* tracer, int64_t op);

/// A closed-loop query workload over a fixed, seed-built op list.
class QueryWorkload {
 public:
  virtual ~QueryWorkload() = default;

  /// Builds a fresh database from the seed (dropping the previous one) and
  /// the op list.
  virtual ecodb::Status Setup(uint64_t seed, Tracer* tracer, int64_t op,
                              SetupTimes* times) = 0;
  virtual size_t num_ops() const = 0;
  virtual OpOutcome RunOp(size_t i, Tracer* tracer, int64_t op) = 0;
  /// Fingerprint of op i's rows from an independent reference plan.
  virtual ecodb::StatusOr<uint64_t> ReferenceFingerprint(size_t i) = 0;
  /// The main plain table and its compressed variant (nullptr when there
  /// is none), which the traced run analyzes standalone.
  virtual const ecodb::storage::TableStorage* plain_table() const = 0;
  virtual const ecodb::storage::TableStorage* compressed_table() const {
    return nullptr;
  }
};

/// Runs setup rounds, the timed loop, the correctness checks and (traced)
/// the per-layer breakdown; fills `out`.
void RunQueryWorkload(QueryWorkload* workload, const Options& options,
                      Tracer* tracer, RunOutput* out);

/// Host ms of one standalone TableStorage::AnalyzeInto, median of three; a
/// failed analyze is reported as an error.
double AnalyzeMedianMs(const ecodb::storage::TableStorage* table,
                       RunOutput* out);

/// setup_s and the per-step setup medians.
void AddSetupMetrics(const std::vector<SetupTimes>& setups, RunOutput* out);

/// Layer self time per op (ms) over spans with op in [op_lo, op_hi), plus
/// how much of the ops' host time the named layers cover.
void AddLayerSelfMetrics(const Tracer& tracer, int64_t op_lo, int64_t op_hi,
                         double op_count, double op_host_s, RunOutput* out);

/// Tracing overhead: untraced minus traced ops per host second, from
/// traced and untraced repetitions that alternate.
void AddOverheadMetrics(double untraced_rate, double traced_rate,
                        RunOutput* out);

std::unique_ptr<QueryWorkload> MakeTpchJoins();
std::unique_ptr<QueryWorkload> MakeFacadeLookups();
void RunServing(const Options& options, Tracer* tracer, RunOutput* out);

}  // namespace ecobench

#endif  // ECOBENCH_COMMON_H_
