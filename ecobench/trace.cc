#include "trace.h"

#include <chrono>
#include <cstdio>

namespace ecobench {

double HostNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Tracer::Begin(const char* layer, const char* name, int64_t op) {
  Span span;
  span.layer = layer;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  const int64_t id = static_cast<int64_t>(spans_.size());
  open_.push_back(id);
  span.start_s = HostNow();
  spans_.push_back(span);
  return id;
}

void Tracer::End(int64_t id) {
  spans_[static_cast<size_t>(id)].end_s = HostNow();
  // Spans close in LIFO order: ScopedSpan is the only caller.
  open_.pop_back();
}

std::map<std::string, double> Tracer::SelfSecondsByLayer(int64_t op_lo,
                                                         int64_t op_hi) const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op < op_lo || s.op >= op_hi) continue;
    self[s.layer] += (s.end_s - s.start_s) - child_s[i];
  }
  return self;
}

std::map<int64_t, double> Tracer::TotalByOp(const char* name) const {
  std::map<int64_t, double> total;
  const std::string wanted(name);
  for (const Span& s : spans_) {
    if (wanted == s.name) total[s.op] += s.end_s - s.start_s;
  }
  return total;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"layer\":\"%s\",\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%lld,"
                 "\"op\":%lld}\n",
                 i, s.layer, s.name, (s.start_s - origin) * 1e6,
                 (s.end_s - origin) * 1e6, static_cast<long long>(s.parent),
                 static_cast<long long>(s.op));
  }
  return std::fclose(f) == 0;
}

ecodb::Status TracedRoot::Open(ecodb::exec::ExecContext* ctx) {
  ScopedSpan span(tracer_, "exec", "exec.open", op_);
  return inner_->Open(ctx);
}

ecodb::Status TracedRoot::Next(ecodb::exec::RecordBatch* out, bool* eos) {
  ScopedSpan span(tracer_, "exec", "exec.next", op_);
  ecodb::Status status = inner_->Next(out, eos);
  if (status.ok() && !*eos && out->num_rows() > 0) ++counts_->batches;
  return status;
}

}  // namespace ecobench
