// In-memory span recorder for the benchmark's traced mode.
//
// Spans wrap calls into the engine's public API from the benchmark's own
// code; nothing inside src/ is instrumented. Each span names the module
// (layer) whose public function it times, the call, its host start and end,
// the span that caused it and the id of the op it belongs to. Spans stay in
// memory and are written as JSON lines when the run ends. With tracing off
// a ScopedSpan costs one branch.

#ifndef ECOBENCH_TRACE_H_
#define ECOBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace ecobench {

/// Host seconds on the steady clock.
double HostNow();

struct Span {
  const char* layer = "";  // tpch, storage, optimizer, exec, sched, power,
                           // or bench (the benchmark's own loop)
  const char* name = "";   // the call, e.g. "optimizer.plan"
  double start_s = 0.0;
  double end_s = 0.0;
  int64_t parent = -1;  // index of the enclosing span, -1 for a root
  int64_t op = -1;      // op id (setup rounds, queries or sessions)
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index.
  int64_t Begin(const char* layer, const char* name, int64_t op);
  void End(int64_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds per layer: each span's duration minus the part its child
  /// spans cover, summed by layer. Only spans with op in [op_lo, op_hi).
  std::map<std::string, double> SelfSecondsByLayer(int64_t op_lo,
                                                   int64_t op_hi) const;

  /// Summed duration of spans named `name`, per op id.
  std::map<int64_t, double> TotalByOp(const char* name) const;

  /// Writes one JSON object per span; returns false on an I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* layer, const char* name, int64_t op)
      : tracer_(tracer),
        id_(tracer->enabled() ? tracer->Begin(layer, name, op) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Work counted at the plan root by TracedRoot.
struct RootCounts {
  uint64_t batches = 0;
};

/// Pass-through plan root: spans the inner root's Open and each Next call
/// (layer exec) and counts the non-empty batches it returns. It
/// charges nothing, so modeled time and Joules are unchanged.
class TracedRoot : public ecodb::exec::Operator {
 public:
  TracedRoot(ecodb::exec::OperatorPtr inner, Tracer* tracer, int64_t op,
             RootCounts* counts)
      : inner_(std::move(inner)), tracer_(tracer), op_(op), counts_(counts) {}

  const ecodb::catalog::Schema& output_schema() const override {
    return inner_->output_schema();
  }
  ecodb::Status Open(ecodb::exec::ExecContext* ctx) override;
  ecodb::Status Next(ecodb::exec::RecordBatch* out, bool* eos) override;
  void Close() override { inner_->Close(); }

 private:
  ecodb::exec::OperatorPtr inner_;
  Tracer* tracer_;
  int64_t op_;
  RootCounts* counts_;
};

}  // namespace ecobench

#endif  // ECOBENCH_TRACE_H_
