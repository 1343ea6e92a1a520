#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ecobench {

using ecodb::Status;
using ecodb::StatusOr;
using ecodb::catalog::DataType;
using ecodb::exec::QueryResultSet;
using ecodb::exec::QueryStats;

std::vector<double> StratifiedDraws(ecodb::Rng* rng, int n) {
  std::vector<int> strata(static_cast<size_t>(n));
  for (int k = 0; k < n; ++k) strata[static_cast<size_t>(k)] = k;
  rng->Shuffle(&strata);
  std::vector<double> draws;
  for (int k : strata) draws.push_back((k + rng->NextDouble()) / n);
  return draws;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t QuantizedDouble(double v) {
  if (v == 0.0 || !std::isfinite(v)) return v == 0.0 ? 0 : Mix(0x7ff);
  int exp = 0;
  const double mantissa = std::frexp(v, &exp);  // |mantissa| in [0.5, 1)
  const int64_t digits = std::llround(mantissa * 1e9);
  return Mix(static_cast<uint64_t>(digits)) ^ static_cast<uint64_t>(exp);
}

}  // namespace

uint64_t RowFingerprint(const QueryResultSet& rows) {
  const int ncols = rows.schema.num_columns();
  std::vector<int> order(static_cast<size_t>(ncols));
  for (int i = 0; i < ncols; ++i) order[static_cast<size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return rows.schema.column(a).name < rows.schema.column(b).name;
  });
  uint64_t sum = 0;
  std::vector<uint64_t> row_hash;
  for (const auto& batch : rows.batches) {
    row_hash.assign(batch.num_rows(), 0xcbf29ce484222325ULL);
    for (int c : order) {
      const ecodb::storage::ColumnData& lane =
          batch.column(static_cast<size_t>(c));
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        uint64_t v = 0;
        switch (lane.type) {
          case DataType::kInt64:
          case DataType::kDate:
            v = static_cast<uint64_t>(lane.i64[r]);
            break;
          case DataType::kDouble:
            v = QuantizedDouble(lane.f64[r]);
            break;
          case DataType::kString:
            for (unsigned char ch : lane.str[r]) {
              v = (v ^ ch) * 0x100000001b3ULL;
            }
            break;
        }
        row_hash[r] = Mix(row_hash[r] ^ v);
      }
    }
    for (uint64_t h : row_hash) sum += Mix(h);
  }
  return Mix(sum ^ rows.TotalRows());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// Rows the plan's table scans read (index-scan plans read none).
double ScannedRows(const ecodb::optimizer::QuerySpec& spec,
                   const ecodb::optimizer::PhysicalPlan& plan) {
  if (!spec.relations.empty()) {
    double rows = 0.0;  // N-way plans scan variant 0 of every relation
    for (const auto& rel : spec.relations) {
      rows += static_cast<double>(rel.variants[0]->row_count());
    }
    return rows;
  }
  if (plan.left_path != ecodb::optimizer::AccessPath::kTableScan) return 0.0;
  return static_cast<double>(
      spec.left.variants[static_cast<size_t>(plan.left_variant)]->row_count());
}

}  // namespace

void RecordPlan(const ecodb::optimizer::QuerySpec& spec,
                const ecodb::optimizer::PhysicalPlan& plan, OpOutcome* out) {
  out->compressed = spec.relations.empty() && plan.left_variant != 0;
  out->index = spec.relations.empty() &&
               plan.left_path == ecodb::optimizer::AccessPath::kIndexScan;
  out->dop = plan.dop;
  out->est_joules = plan.cost.joules;
  out->scanned_rows = ScannedRows(spec, plan);
}

OpOutcome PlanAndRun(ecodb::core::EcoDb* db,
                     const ecodb::exec::ExecOptions& base,
                     const ecodb::optimizer::QuerySpec& spec,
                     const ecodb::optimizer::Objective& objective,
                     Tracer* tracer, int64_t op) {
  OpOutcome out;
  ecodb::optimizer::Planner* planner = db->planner();
  StatusOr<ecodb::optimizer::PhysicalPlan> plan = [&] {
    ScopedSpan span(tracer, "optimizer", "optimizer.plan", op);
    return planner->ChoosePlan(spec, objective);
  }();
  if (!plan.ok()) {
    out.status = plan.status();
    return out;
  }
  StatusOr<ecodb::exec::OperatorPtr> root = [&] {
    ScopedSpan span(tracer, "optimizer", "optimizer.build", op);
    return planner->BuildOperator(spec, *plan);
  }();
  if (!root.ok()) {
    out.status = root.status();
    return out;
  }
  RecordPlan(spec, *plan, &out);

  ecodb::exec::ExecOptions options = base;
  options.dop = plan->dop;
  options.pstate = plan->pstate;
  ecodb::exec::OperatorPtr exec_root = std::move(root).value();
  if (tracer->enabled()) {
    exec_root = std::make_unique<TracedRoot>(std::move(exec_root), tracer, op,
                                             &out.counts);
  }
  std::unique_ptr<ecodb::exec::ExecContext> ctx;
  {
    ScopedSpan span(tracer, "power", "power.meter_open", op);
    ctx = std::make_unique<ecodb::exec::ExecContext>(db->platform(), options);
  }
  StatusOr<QueryResultSet> rows = [&] {
    ScopedSpan span(tracer, "exec", "exec.collect", op);
    return ecodb::exec::CollectAll(exec_root.get(), ctx.get());
  }();
  {
    ScopedSpan span(tracer, "power", "power.settle", op);
    out.stats = ctx->Finish();
  }
  if (!rows.ok()) {
    out.status = rows.status();
    return out;
  }
  out.rows = std::move(rows).value();
  return out;
}

namespace {

/// What pass 0 of the op list produced: the reference for repeats and the
/// source of every modeled metric.
struct FirstPass {
  bool ran = false;
  bool ok = false;
  uint64_t fingerprint = 0;
  QueryStats stats;
  bool compressed = false;
  bool index = false;
  int dop = 1;
  double est_joules = 0.0;
};

struct LoopResult {
  std::vector<double> host_s;  // per attempted op
  /// Host seconds of each completed repetition, by op index.
  std::vector<std::vector<double>> per_op;
  int64_t op_lo = 0;
  int64_t op_hi = 0;
  // Traced loops only.
  double exec_plain_s = 0.0, rows_plain = 0.0;
  double exec_compressed_s = 0.0, rows_compressed = 0.0;
  std::vector<double> batches;

  double HostSeconds() const {
    double s = 0.0;
    for (double v : host_s) s += v;
    return s;
  }
  /// Completed ops per host second at each op's median cost over its
  /// repetitions, for the ops in `subset` (all ops when empty). Medians
  /// across passes drop the slow outliers a shared host's interference
  /// adds to single repetitions.
  double OpsPerHostSecond(const std::vector<size_t>& subset = {}) const {
    double s = 0.0, ops = 0.0;
    for (size_t i = 0; i < per_op.size(); ++i) {
      if (per_op[i].empty()) continue;
      if (!subset.empty() &&
          std::find(subset.begin(), subset.end(), i) == subset.end()) {
        continue;
      }
      s += Median(per_op[i]);
      ops += 1.0;
    }
    return s > 0.0 ? ops / s : 0.0;
  }
  std::vector<double> OpMedians() const {
    std::vector<double> m;
    for (const auto& samples : per_op) {
      if (!samples.empty()) m.push_back(Median(samples));
    }
    return m;
  }
};

/// The timed repetitions, split by whether the tracer was on.
struct Loops {
  LoopResult untraced;
  LoopResult traced;
};

/// Runs the op list round-robin for `seconds`, and always for at least one
/// whole pass (two when tracing). In traced mode even passes run untraced
/// and odd passes traced, so host drift over the run falls on both halves
/// alike. Pass 0 fills `first`; each later op's rows are checked against
/// it, outside the op's timed span. A failed op is a correctness error.
Loops RunLoop(QueryWorkload* w, const Options& options, Tracer* tracer,
              std::vector<FirstPass>* first, RunOutput* out) {
  Tracer off(false);
  Loops loops;
  const size_t n = w->num_ops();
  const size_t min_ops = options.trace ? 2 * n : n;
  for (LoopResult* loop : {&loops.untraced, &loops.traced}) {
    loop->op_lo = kOpBase;
    loop->per_op.resize(n);
  }
  const double start = HostNow();
  for (size_t k = 0; k < min_ops || HostNow() - start < options.seconds;
       ++k) {
    const size_t i = k % n;
    const bool traced = options.trace && (k / n) % 2 == 1;
    Tracer* t = traced ? tracer : &off;
    LoopResult& loop = traced ? loops.traced : loops.untraced;
    FirstPass& ref = (*first)[i];
    const int64_t op = kOpBase + static_cast<int64_t>(k);
    const double t0 = HostNow();
    OpOutcome o;
    {
      ScopedSpan span(t, "bench", "bench.op", op);
      o = w->RunOp(i, t, op);
    }
    const double op_s = HostNow() - t0;
    loop.host_s.push_back(op_s);
    ++out->attempted;
    loop.op_hi = op + 1;
    if (!o.status.ok()) {
      ++out->failed;
      out->Error("op " + std::to_string(i) + " failed: " +
                 o.status.ToString());
      ref.ran = true;
      continue;
    }
    uint64_t fp = RowFingerprint(o.rows);
    if (!ref.ran) {
      if (options.corrupt_fingerprint && i == 0) fp ^= 1;
      ref = {true, true, fp, o.stats, o.compressed, o.index, o.dop,
             o.est_joules};
    } else if (ref.ok && fp != ref.fingerprint) {
      ++out->failed;
      out->Error("op " + std::to_string(i) + " rows changed on repeat");
      continue;
    }
    loop.per_op[i].push_back(op_s);
    if (traced) {
      loop.batches.push_back(static_cast<double>(o.counts.batches));
      // Exec time of table-scan plans per row they read, by variant.
      if (o.scanned_rows > 0.0) {
        const auto& spans = tracer->spans();
        double exec_s = 0.0;
        for (size_t s = spans.size(); s-- > 0 && spans[s].op == op;) {
          const std::string name = spans[s].name;
          if (name == "exec.open" || name == "exec.next") {
            exec_s += spans[s].end_s - spans[s].start_s;
          }
        }
        (o.compressed ? loop.exec_compressed_s : loop.exec_plain_s) += exec_s;
        (o.compressed ? loop.rows_compressed : loop.rows_plain) +=
            o.scanned_rows;
      }
    }
  }
  return loops;
}

}  // namespace

const std::vector<MetricDef> kEndToEndMetrics = {
    {"ops_per_host_s", "1/s"},  {"host_ms_p50", "ms"},
    {"host_ms_p90", "ms"},      {"modeled_j_per_op", "J"},
    {"modeled_s_p50", "s"},     {"modeled_s_p90", "s"},
    {"completed_share", "share"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayerMetrics = {
    {"exec.open_ms_p50", "ms"},
    {"exec.next_ms_p50", "ms"},
    {"exec.instructions_per_op", "count"},
    {"exec.rows_per_op", "count"},
    {"exec.batches_per_op", "count"},
    {"exec.ns_per_row_plain", "ns/row"},
    {"exec.ns_per_row_compressed", "ns/row"},
    {"optimizer.plan_ms_p50", "ms"},
    {"optimizer.build_ms_p50", "ms"},
    {"optimizer.plan_share", "share"},
    {"optimizer.compressed_choice_share", "share"},
    {"optimizer.index_choice_share", "share"},
    {"optimizer.dop_mean", "count"},
    {"optimizer.est_over_actual_j", "ratio"},
    {"storage.analyze_ms", "ms"},
    {"storage.analyze_compressed_ms", "ms"},
    {"storage.load_s", "s"},
    {"storage.encode_s", "s"},
    {"storage.index_build_s", "s"},
    {"storage.io_bytes_per_op", "B"},
    {"tpch.generate_s", "s"},
    {"sched.self_s", "s"},
    {"sched.share_rate", "share"},
    {"sched.batches", "count"},
    {"sched.queue_s_p90", "s"},
    {"sched.shed", "count"},
    {"sched.evicted", "count"},
    {"sched.deadline", "count"},
    {"power.cpu_j_per_op", "J"},
    {"power.dram_j_per_op", "J"},
    {"power.io_j_per_op", "J"},
    {"power.background_j_per_op", "J"},
    {"bench.self_ms_per_op", "ms"},
    {"tpch.self_ms_per_op", "ms"},
    {"storage.self_ms_per_op", "ms"},
    {"optimizer.self_ms_per_op", "ms"},
    {"exec.self_ms_per_op", "ms"},
    {"sched.self_ms_per_op", "ms"},
    {"power.self_ms_per_op", "ms"},
    {"trace.op_host_ms", "ms"},
    {"trace.layer_coverage", "share"},
    {"trace.overhead_ops_per_host_s", "1/s"},
    {"trace.overhead_share", "share"},
};

double AnalyzeMedianMs(const ecodb::storage::TableStorage* table,
                       RunOutput* out) {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    ecodb::catalog::TableStats stats;
    const double t0 = HostNow();
    const Status s = table->AnalyzeInto(&stats);
    if (!s.ok()) {
      out->Error("standalone analyze failed: " + s.ToString());
      return 0.0;
    }
    ms.push_back(1e3 * (HostNow() - t0));
  }
  return Median(ms);
}

void AddSetupMetrics(const std::vector<SetupTimes>& setups, RunOutput* out) {
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };
  out->Set("setup_s", median_of(&SetupTimes::total_s));
  out->Set("tpch.generate_s", median_of(&SetupTimes::generate_s));
  out->Set("storage.load_s", median_of(&SetupTimes::load_s));
  out->Set("storage.encode_s", median_of(&SetupTimes::encode_s));
  out->Set("storage.index_build_s", median_of(&SetupTimes::index_s));
}

void AddLayerSelfMetrics(const Tracer& tracer, int64_t op_lo, int64_t op_hi,
                         double op_count, double op_host_s, RunOutput* out) {
  const std::map<std::string, double> self =
      tracer.SelfSecondsByLayer(op_lo, op_hi);
  double covered = 0.0;
  for (const auto& [layer, s] : self) {
    if (layer != "bench") covered += s;
    out->Set(layer + ".self_ms_per_op",
             op_count > 0 ? 1e3 * s / op_count : 0.0);
  }
  out->Set("trace.op_host_ms", op_count > 0 ? 1e3 * op_host_s / op_count : 0.0);
  out->Set("trace.layer_coverage", op_host_s > 0 ? covered / op_host_s : 0.0);
}

void AddOverheadMetrics(double untraced_rate, double traced_rate,
                        RunOutput* out) {
  out->Set("trace.overhead_ops_per_host_s", untraced_rate - traced_rate);
  out->Set("trace.overhead_share",
           untraced_rate > 0 ? (untraced_rate - traced_rate) / untraced_rate
                             : 0.0);
}

void RunQueryWorkload(QueryWorkload* w, const Options& options,
                      Tracer* tracer, RunOutput* out) {
  std::vector<SetupTimes> setups;
  for (int r = 0; r < kSetupRounds; ++r) {
    SetupTimes t;
    const double t0 = HostNow();
    const Status s = w->Setup(options.seed, tracer, r, &t);
    t.total_s = HostNow() - t0;
    if (!s.ok()) {
      ++out->attempted;
      ++out->failed;
      out->Error("setup failed: " + s.ToString());
      return;
    }
    setups.push_back(t);
  }
  AddSetupMetrics(setups, out);

  const size_t n = w->num_ops();
  std::vector<FirstPass> first(n);
  const Loops loops = RunLoop(w, options, tracer, &first, out);
  const LoopResult& loop = loops.untraced;
  const LoopResult& traced = loops.traced;

  // Correctness: pass 0's rows against an independent reference plan.
  for (size_t i = 0; i < n; ++i) {
    if (!first[i].ok) continue;
    StatusOr<uint64_t> ref = w->ReferenceFingerprint(i);
    if (!ref.ok()) {
      ++out->failed;
      out->Error("op " + std::to_string(i) + " reference failed: " +
                 ref.status().ToString());
    } else if (*ref != first[i].fingerprint) {
      ++out->failed;
      out->Error("op " + std::to_string(i) + " rows differ from reference");
    }
  }

  // Modeled metrics come from pass 0 only: a fixed op sequence after a
  // fixed setup, so they are bit-identical across runs of one seed.
  double joules = 0.0, cpu_j = 0.0, dram_j = 0.0, io_j = 0.0, bg_j = 0.0;
  double est_j = 0.0, instructions = 0.0, rows = 0.0, io_bytes = 0.0;
  double compressed = 0.0, index = 0.0, dop = 0.0;
  std::vector<double> modeled_s;
  for (const FirstPass& f : first) {
    if (!f.ok) continue;
    const QueryStats& st = f.stats;
    joules += st.Joules();
    cpu_j += st.cpu_active_joules;
    dram_j += st.dram_joules;
    io_j += st.io_active_joules + st.faults.reconstruct_joules;
    bg_j += st.Joules() - st.DirectJoules();
    est_j += f.est_joules;
    instructions += st.cpu_instructions;
    rows += static_cast<double>(st.rows_emitted);
    io_bytes += static_cast<double>(st.io_bytes);
    compressed += f.compressed ? 1.0 : 0.0;
    index += f.index ? 1.0 : 0.0;
    dop += f.dop;
    modeled_s.push_back(st.elapsed_seconds);
  }
  const double nops = static_cast<double>(n);

  out->Set("ops_per_host_s", loop.OpsPerHostSecond());
  out->Set("host_ms_p50", 1e3 * Percentile(loop.OpMedians(), 0.5));
  out->Set("host_ms_p90", 1e3 * Percentile(loop.OpMedians(), 0.9));
  out->Set("modeled_j_per_op", joules / nops);
  out->Set("modeled_s_p50", Percentile(modeled_s, 0.5));
  out->Set("modeled_s_p90", Percentile(modeled_s, 0.9));
  out->Set("exec.instructions_per_op", instructions / nops);
  out->Set("exec.rows_per_op", rows / nops);
  out->Set("optimizer.compressed_choice_share", compressed / nops);
  out->Set("optimizer.index_choice_share", index / nops);
  out->Set("optimizer.dop_mean", dop / nops);
  out->Set("optimizer.est_over_actual_j", joules > 0 ? est_j / joules : 0.0);
  out->Set("storage.io_bytes_per_op", io_bytes / nops);
  out->Set("power.cpu_j_per_op", cpu_j / nops);
  out->Set("power.dram_j_per_op", dram_j / nops);
  out->Set("power.io_j_per_op", io_j / nops);
  out->Set("power.background_j_per_op", bg_j / nops);
  if (!options.trace) return;

  // --- Per-layer timings (traced loop only) ------------------------------
  const int64_t lo = traced.op_lo, hi = traced.op_hi;
  auto per_op_ms = [&](const char* name) {
    std::vector<double> v;
    for (const auto& [op, s] : tracer->TotalByOp(name)) {
      if (op >= lo && op < hi) v.push_back(1e3 * s);
    }
    return v;
  };
  const double traced_host_s = traced.HostSeconds();
  double plan_ms = 0.0;
  for (double ms : per_op_ms("optimizer.plan")) plan_ms += ms;
  out->Set("exec.open_ms_p50", Median(per_op_ms("exec.open")));
  out->Set("exec.next_ms_p50", Median(per_op_ms("exec.next")));
  out->Set("exec.batches_per_op", Mean(traced.batches));
  out->Set("exec.ns_per_row_plain",
           traced.rows_plain > 0
               ? 1e9 * traced.exec_plain_s / traced.rows_plain
               : 0.0);
  out->Set("exec.ns_per_row_compressed",
           traced.rows_compressed > 0
               ? 1e9 * traced.exec_compressed_s / traced.rows_compressed
               : 0.0);
  out->Set("optimizer.plan_ms_p50", Median(per_op_ms("optimizer.plan")));
  out->Set("optimizer.build_ms_p50", Median(per_op_ms("optimizer.build")));
  out->Set("optimizer.plan_share",
           traced_host_s > 0 ? 1e-3 * plan_ms / traced_host_s : 0.0);
  out->Set("storage.analyze_ms", AnalyzeMedianMs(w->plain_table(), out));
  const ecodb::storage::TableStorage* compressed_table = w->compressed_table();
  out->Set("storage.analyze_compressed_ms",
           compressed_table ? AnalyzeMedianMs(compressed_table, out) : 0.0);
  AddLayerSelfMetrics(*tracer, lo, hi,
                      static_cast<double>(traced.host_s.size()), traced_host_s,
                      out);
  // Overhead over the ops both halves ran.
  std::vector<size_t> both;
  for (size_t i = 0; i < n; ++i) {
    if (!loop.per_op[i].empty() && !traced.per_op[i].empty()) both.push_back(i);
  }
  AddOverheadMetrics(loop.OpsPerHostSecond(both), traced.OpsPerHostSecond(both),
                     out);
}

}  // namespace ecobench
