// serving: one seeded multi-tenant arrival trace sent through EcoDb::Serve
// on serving_sweep's rig (4 x HDD RAID-5, energy-proportional host, 2-slot
// worker fleet) with admission batching, shared scans, deadlines and a
// queue SLO on. The trace is open-loop in simulated time and offered below
// the fleet's capacity, so sessions queue but none is refused. An op is one
// session; the timed phase serves the trace once per fresh database.

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "sim/arrival_trace.h"
#include "tpch/generator.h"
#include "tpch/workload.h"
#include "util/random.h"

namespace ecobench {
namespace {

using ecodb::Rng;
using ecodb::Status;
using ecodb::StatusOr;
namespace core = ecodb::core;
namespace exec = ecodb::exec;
namespace sched = ecodb::sched;
namespace sim = ecodb::sim;
namespace storage = ecodb::storage;
namespace tpch = ecodb::tpch;

constexpr double kScaleFactor = 2.0;
constexpr size_t kSessions = 1000;  // per Serve call
constexpr int kTenants = 4;
constexpr int kPriorities = 2;
constexpr int kQueryClasses = 3;
constexpr double kMeanInterarrivalS = 0.012;
constexpr double kRelativeDeadlineS = 60.0;
constexpr double kQueueSloS = 30.0;
/// Op ids of one Serve call: the call, then call + 1 + session index.
constexpr int64_t kCallStride = 100000;

class Serving {
 public:
  explicit Serving(uint64_t seed) : trace_(MakeTrace(seed)) {
    config_.worker_fleet = 2;
    config_.batching.window_s = 0.02;
    config_.share_window_s = 1.0;
    config_.overload.relative_deadline_s = kRelativeDeadlineS;
    config_.overload.queue_slo_s = kQueueSloS;
  }

  const sim::ArrivalTrace& trace() const { return trace_; }

  Status Setup(uint64_t seed, Tracer* tracer, int64_t op, SetupTimes* times) {
    db_.reset();
    core::DbConfig config;
    config.preset = core::PlatformPreset::kProportional;
    config.hdd_count = 4;
    config.ssd_count = 0;
    config.hdd_spec.sustained_bw_bytes_per_s = 80.0 * 1e6;
    config.hdd_spec.active_watts = 17.0;
    config.hdd_spec.idle_watts = 12.0;
    {
      ScopedSpan span(tracer, "core", "core.open", op);
      ECODB_ASSIGN_OR_RETURN(db_, core::EcoDb::Open(config));
    }
    tpch::TpchConfig tc;
    tc.scale_factor = kScaleFactor;
    tc.seed = 20090104 + seed;
    for (const auto& [name, schema, generate] :
         {std::tuple{"orders", tpch::OrdersSchema(), &tpch::GenerateOrders},
          std::tuple{"lineitem", tpch::LineitemSchema(),
                     &tpch::GenerateLineitem}}) {
      std::vector<storage::ColumnData> columns =
          TimedStep(tracer, "tpch", "tpch.generate", op, &times->generate_s,
                    [&] { return generate(tc); });
      ECODB_RETURN_IF_ERROR(TimedStep(
          tracer, "storage", "storage.load", op, &times->load_s, [&] {
            Status s = db_->CreateTable(name, schema);
            return s.ok() ? db_->Load(name, columns) : s;
          }));
    }
    ECODB_ASSIGN_OR_RETURN(orders_, db_->table("orders"));
    ECODB_ASSIGN_OR_RETURN(lineitem_, db_->table("lineitem"));
    return Status::OK();
  }

  struct Call {
    StatusOr<sched::ServingReport> report = Status::Internal("not served");
    double host_s = 0.0;
    std::vector<double> session_host_s;  // factory call to the next one
    double scanned_rows = 0.0;
    RootCounts counts;  // traced calls only
  };

  /// One Serve of the whole trace under a span; per-session host time runs
  /// from the session's factory call to the next session's.
  Call Serve(Tracer* tracer, int64_t call_op) {
    Call call;
    const sched::SessionManager::QueryFactory inner =
        tpch::MakeServingFactory(orders_, lineitem_);
    std::vector<double> starts;
    starts.reserve(trace_.requests.size());
    auto factory = [&](const sim::TraceRequest& req)
        -> StatusOr<sched::SessionManager::PlannedQuery> {
      starts.push_back(HostNow());
      const int64_t op = call_op + 1 + static_cast<int64_t>(req.index);
      StatusOr<sched::SessionManager::PlannedQuery> pq = [&] {
        ScopedSpan span(tracer, "tpch", "tpch.factory", op);
        return inner(req);
      }();
      if (!pq.ok()) return pq;
      for (const auto& scan : pq->scans) {
        call.scanned_rows += static_cast<double>(scan.table->row_count());
      }
      if (tracer->enabled()) {
        pq->root = std::make_unique<TracedRoot>(std::move(pq->root), tracer,
                                                op, &call.counts);
      }
      return pq;
    };
    const double t0 = HostNow();
    {
      ScopedSpan span(tracer, "sched", "sched.serve", call_op);
      call.report = db_->Serve(trace_, config_, factory);
    }
    const double t1 = HostNow();
    call.host_s = t1 - t0;
    for (size_t j = 0; j < starts.size(); ++j) {
      call.session_host_s.push_back(
          (j + 1 < starts.size() ? starts[j + 1] : t1) - starts[j]);
    }
    return call;
  }

  /// Each request's plan run alone through EcoDb::Run: the CPU instructions
  /// and device bytes a session costs, which the serving report does not
  /// itemize (standalone runs read every table themselves).
  Status StandaloneWork(double* instructions, double* io_bytes) {
    const sched::SessionManager::QueryFactory factory =
        tpch::MakeServingFactory(orders_, lineitem_);
    for (const sim::TraceRequest& req : trace_.requests) {
      ECODB_ASSIGN_OR_RETURN(sched::SessionManager::PlannedQuery pq,
                             factory(req));
      ECODB_ASSIGN_OR_RETURN(core::QueryOutcome out, db_->Run(pq.root.get()));
      *instructions += out.stats.cpu_instructions;
      *io_bytes += static_cast<double>(out.stats.io_bytes);
    }
    return Status::OK();
  }

  const storage::TableStorage* lineitem() const { return lineitem_; }

 private:
  /// Poisson arrivals with Zipf-skewed tenants and two priorities; query
  /// classes are dealt in equal shares in a seeded order, so every seed
  /// offers the same mix.
  static sim::ArrivalTrace MakeTrace(uint64_t seed) {
    sim::ArrivalTraceSpec spec;
    spec.seed = 2009 + seed;
    spec.tenants = kTenants;
    spec.requests = kSessions;
    spec.mean_interarrival_s = kMeanInterarrivalS;
    spec.tenant_skew_theta = 0.5;
    spec.priority_classes = kPriorities;
    spec.query_classes = kQueryClasses;
    sim::ArrivalTrace trace = sim::GenerateArrivalTrace(spec);
    // Stretch the arrivals so the last one lands at requests x the mean
    // gap: every seed offers the same rate over the same window.
    const double last = trace.requests.back().arrival_s;
    const double horizon = static_cast<double>(kSessions) * kMeanInterarrivalS;
    for (sim::TraceRequest& req : trace.requests) {
      req.arrival_s *= horizon / last;
    }
    std::vector<int> classes;
    for (size_t i = 0; i < trace.requests.size(); ++i) {
      classes.push_back(static_cast<int>(i % kQueryClasses));
    }
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
    rng.Shuffle(&classes);
    for (size_t i = 0; i < trace.requests.size(); ++i) {
      trace.requests[i].query_class = classes[i];
    }
    return trace;
  }

  sim::ArrivalTrace trace_;
  sched::ServingConfig config_;
  std::unique_ptr<core::EcoDb> db_;
  const storage::TableStorage* orders_ = nullptr;
  const storage::TableStorage* lineitem_ = nullptr;
};

bool Conserved(const sched::ServingReport& r) {
  return std::abs(r.billed_joules - r.total_joules) <=
         1e-9 * std::max(1.0, r.total_joules);
}

struct ServeLoop {
  std::vector<Serving::Call> calls;
  int64_t op_lo = 0, op_hi = 0;
  double host_s = 0.0;  // summed Serve wall time
  uint64_t sessions = 0;

  /// Median over calls of completed sessions per Serve second: a shared
  /// host's interference slows single calls, not the median.
  double OpsPerHostSecond() const {
    std::vector<double> rates;
    for (const Serving::Call& call : calls) {
      if (call.report.ok() && call.host_s > 0) {
        rates.push_back(
            static_cast<double>(call.report->sessions_completed) / call.host_s);
      }
    }
    return Median(rates);
  }
  /// Each session's median host seconds over the calls (sessions keep
  /// their admission order across calls: the schedule replays).
  std::vector<double> SessionMedians() const {
    std::vector<std::vector<double>> by_session;
    for (const Serving::Call& call : calls) {
      by_session.resize(
          std::max(by_session.size(), call.session_host_s.size()));
      for (size_t j = 0; j < call.session_host_s.size(); ++j) {
        by_session[j].push_back(call.session_host_s[j]);
      }
    }
    std::vector<double> medians;
    for (const auto& samples : by_session) medians.push_back(Median(samples));
    return medians;
  }
  /// Sessions per host second at each session's median cost.
  double SessionRate() const {
    const std::vector<double> medians = SessionMedians();
    double s = 0.0;
    for (double m : medians) s += m;
    return s > 0 ? static_cast<double>(medians.size()) / s : 0.0;
  }
};

/// The timed Serve calls, split by whether the tracer was on, and the
/// setup of every call.
struct ServeLoops {
  std::vector<SetupTimes> setups;
  ServeLoop untraced;
  ServeLoop traced;
};

/// Serves the trace once per fresh database, until `seconds` of Serve time
/// and at least two calls have passed. In traced mode even calls run
/// untraced and odd calls traced, so host drift falls on both halves
/// alike. Every call has the same inputs, so each must reproduce the first
/// call's admission fingerprint and bill exactly what the meter integrated.
/// A failed setup or Serve call is a correctness error; every session not
/// completed is a failed op.
ServeLoops RunServeLoop(Serving* serving, const Options& options,
                        Tracer* tracer, RunOutput* out) {
  Tracer off(false);
  ServeLoops loops;
  loops.untraced.op_lo = loops.traced.op_lo = kOpBase;
  std::optional<uint64_t> reference;
  double host_s = 0.0;
  for (int64_t c = 0; c < 2 || host_s < options.seconds; ++c) {
    const bool traced = options.trace && c % 2 == 1;
    Tracer* t = traced ? tracer : &off;
    ServeLoop& loop = traced ? loops.traced : loops.untraced;
    SetupTimes st;
    const double t0 = HostNow();
    // Setup spans carry the call index, below every op id.
    const Status s = serving->Setup(options.seed, t, c, &st);
    st.total_s = HostNow() - t0;
    if (!s.ok()) {
      ++out->attempted;
      ++out->failed;
      out->Error("setup failed: " + s.ToString());
      break;
    }
    loops.setups.push_back(st);

    const int64_t call_op = kOpBase + c * kCallStride;
    Serving::Call call = serving->Serve(t, call_op);
    loop.op_hi = call_op + kCallStride;
    const size_t n = serving->trace().requests.size();
    out->attempted += n;
    loop.sessions += n;
    loop.host_s += call.host_s;
    host_s += call.host_s;
    if (!call.report.ok()) {
      out->failed += n;
      out->Error("serve call " + std::to_string(c) +
                 " failed: " + call.report.status().ToString());
      break;
    }
    const sched::ServingReport& r = *call.report;
    out->failed += n - r.sessions_completed;
    if (!Conserved(r)) {
      ++out->failed;
      out->Error("serve call " + std::to_string(c) +
                 ": session bills do not sum to the meter integral");
    }
    if (!reference.has_value()) {
      reference =
          r.admission_fingerprint ^ (options.corrupt_fingerprint ? 1 : 0);
    } else if (r.admission_fingerprint != *reference) {
      ++out->failed;
      out->Error("serve call " + std::to_string(c) +
                 ": admission_fingerprint differs from the first call");
    }
    loop.calls.push_back(std::move(call));
  }
  return loops;
}

}  // namespace

void RunServing(const Options& options, Tracer* tracer, RunOutput* out) {
  Serving serving(options.seed);
  const ServeLoops loops = RunServeLoop(&serving, options, tracer, out);
  const ServeLoop& loop = loops.untraced;
  const ServeLoop& traced = loops.traced;
  if (loop.calls.empty()) return;
  AddSetupMetrics(loops.setups, out);
  const sched::ServingReport& first = *loop.calls.front().report;

  const double n = static_cast<double>(first.sessions.size());
  std::vector<double> latency, queue;
  double cpu_j = 0.0, dram_j = 0.0, io_j = 0.0, bg_j = 0.0, rows = 0.0;
  for (const sched::SessionBill& bill : first.sessions) {
    cpu_j += bill.cpu_joules;
    dram_j += bill.dram_joules;
    io_j += bill.io_joules + bill.fault_joules;
    bg_j += bill.background_joules;
    rows += static_cast<double>(bill.rows_emitted);
    if (bill.terminal == sched::SessionTerminal::kCompleted) {
      latency.push_back(bill.end_s - bill.arrival_s);
      queue.push_back(bill.queue_seconds);
    }
  }
  const std::vector<double> host_s = loop.SessionMedians();
  out->Set("ops_per_host_s", loop.OpsPerHostSecond());
  out->Set("host_ms_p50", 1e3 * Percentile(host_s, 0.5));
  out->Set("host_ms_p90", 1e3 * Percentile(host_s, 0.9));
  out->Set("modeled_j_per_op", first.total_joules / n);
  out->Set("modeled_s_p50", Percentile(latency, 0.5));
  out->Set("modeled_s_p90", Percentile(latency, 0.9));
  out->Set("exec.rows_per_op", rows / n);
  out->Set("sched.share_rate", first.shared_scans.ShareRate());
  out->Set("sched.batches", static_cast<double>(first.batches_dispatched));
  out->Set("sched.queue_s_p90", Percentile(queue, 0.9));
  out->Set("sched.shed", static_cast<double>(first.sessions_shed));
  out->Set("sched.evicted", static_cast<double>(first.sessions_evicted));
  out->Set("sched.deadline", static_cast<double>(first.sessions_deadline));
  out->Set("power.cpu_j_per_op", cpu_j / n);
  out->Set("power.dram_j_per_op", dram_j / n);
  out->Set("power.io_j_per_op", io_j / n);
  out->Set("power.background_j_per_op", bg_j / n);
  if (!options.trace || traced.calls.empty()) return;

  // --- Per-layer breakdown (traced calls) ---------------------------------
  const int64_t lo = traced.op_lo, hi = traced.op_hi;
  auto per_session_ms = [&](const char* name) {
    std::vector<double> v;
    for (const auto& [op, s] : tracer->TotalByOp(name)) {
      if (op >= lo && op < hi) v.push_back(1e3 * s);
    }
    return v;
  };
  double exec_ms = 0.0, scanned = 0.0, batches = 0.0;
  for (double ms : per_session_ms("exec.open")) exec_ms += ms;
  for (double ms : per_session_ms("exec.next")) exec_ms += ms;
  for (const Serving::Call& call : traced.calls) {
    scanned += call.scanned_rows;
    batches += static_cast<double>(call.counts.batches);
  }
  const double traced_sessions = static_cast<double>(traced.sessions);
  out->Set("exec.open_ms_p50", Median(per_session_ms("exec.open")));
  out->Set("exec.next_ms_p50", Median(per_session_ms("exec.next")));
  out->Set("exec.batches_per_op", batches / traced_sessions);
  out->Set("exec.ns_per_row_plain",
           scanned > 0 ? 1e6 * exec_ms / scanned : 0.0);
  const std::map<std::string, double> self =
      tracer->SelfSecondsByLayer(lo, hi);
  const auto sched_self = self.find("sched");
  out->Set("sched.self_s",
           sched_self == self.end()
               ? 0.0
               : sched_self->second / static_cast<double>(traced.calls.size()));
  out->Set("storage.analyze_ms", AnalyzeMedianMs(serving.lineitem(), out));
  double instructions = 0.0, io_bytes = 0.0;
  const Status s = serving.StandaloneWork(&instructions, &io_bytes);
  if (!s.ok()) out->Error("standalone run failed: " + s.ToString());
  out->Set("exec.instructions_per_op", instructions / n);
  out->Set("storage.io_bytes_per_op", io_bytes / n);
  AddLayerSelfMetrics(*tracer, lo, hi, traced_sessions, traced.host_s, out);
  AddOverheadMetrics(loop.SessionRate(), traced.SessionRate(), out);
}

}  // namespace ecobench
