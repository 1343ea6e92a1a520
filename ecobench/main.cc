// ecobench: the EcoDB benchmark program.
//
//   ecobench --workload {tpch_joins|facade_lookups|serving} [--seed N]
//            [--seconds S] [--trace 0|1] [--spans PATH]
//
// Runs one workload in this process and prints, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones (and the spans are written to --spans). The
// exit code is 0 when every correctness check passed, 1 when one failed and
// 2 on a usage error. The seed (default 1) draws the data, the op
// parameters and the arrival trace; the engine sees only those inputs.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "common.h"

namespace {

using ecobench::Options;
using ecobench::RunOutput;

int Usage(const char* why) {
  std::fprintf(stderr,
               "ecobench: %s\nusage: ecobench --workload "
               "{tpch_joins|facade_lookups|serving} [--seed N] [--seconds S] "
               "[--trace 0|1] [--spans PATH]\n",
               why);
  return 2;
}

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-fingerprint") {
      o->corrupt_fingerprint = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      o->trace = value == "1";
    } else if (flag == "--spans") {
      o->spans_path = value;
    } else {
      return false;
    }
  }
  return true;
}

/// Prints the result line: the metrics of the mode's table, in its order.
/// Returns false if a value is missing or not finite.
bool PrintResult(const RunOutput& out, bool trace) {
  const auto& table =
      trace ? ecobench::kPerLayerMetrics : ecobench::kEndToEndMetrics;
  bool complete = true;
  std::string metrics;
  for (const ecobench::MetricDef& m : table) {
    const auto it = out.values.find(m.name);
    double value = 0.0;
    if (it != out.values.end()) {
      value = it->second;
    } else if (!trace) {
      std::fprintf(stderr, "ecobench: metric %s was not measured\n", m.name);
      complete = false;
    }
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "ecobench: metric %s is not finite\n", m.name);
      complete = false;
      value = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, value, m.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.correct() && complete ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return complete;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) return Usage("bad arguments");

  // Every value a workload sets must belong to one of the two tables.
  std::set<std::string> known;
  for (const auto* table :
       {&ecobench::kEndToEndMetrics, &ecobench::kPerLayerMetrics}) {
    for (const ecobench::MetricDef& m : *table) known.insert(m.name);
  }

  ecobench::Tracer tracer(options.trace);
  RunOutput out;
  if (options.workload == "tpch_joins") {
    ecobench::RunQueryWorkload(ecobench::MakeTpchJoins().get(), options,
                               &tracer, &out);
  } else if (options.workload == "facade_lookups") {
    ecobench::RunQueryWorkload(ecobench::MakeFacadeLookups().get(), options,
                               &tracer, &out);
  } else if (options.workload == "serving") {
    ecobench::RunServing(options, &tracer, &out);
  } else {
    return Usage("unknown workload");
  }
  out.Set("completed_share",
          out.attempted > 0 ? static_cast<double>(out.attempted - out.failed) /
                                  static_cast<double>(out.attempted)
                            : 0.0);
  out.Set("peak_rss_mb", ecobench::PeakRssMb());
  for (const auto& [name, value] : out.values) {
    if (known.count(name) == 0) {
      std::fprintf(stderr, "ecobench: internal error: unlisted metric %s\n",
                   name.c_str());
      return 3;
    }
  }

  if (options.trace && !options.spans_path.empty() &&
      !tracer.WriteJsonl(options.spans_path)) {
    out.Error("cannot write spans to " + options.spans_path);
  }
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "ecobench: CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("workload %s, seed %llu (default %llu), %s, %zu spans\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(ecobench::kDefaultSeed),
              options.trace ? "traced" : "untraced", tracer.spans().size());
  const bool complete = PrintResult(out, options.trace);
  return out.correct() && complete && out.attempted > 0 ? 0 : 1;
}
