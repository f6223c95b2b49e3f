// ppbench: runs one benchmark workload against the program's public API and
// prints, as its last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   ppbench --workload NAME --seed N --seconds S --trace 0|1
//           [--key-bits B] [--max-inferences K] [--tamper none|output|count]
//           [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// records spans around every call into the program and prints the
// per-layer metrics. --key-bits, --max-inferences and --tamper serve the
// self-check (see run.py --self-check).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "trace.h"
#include "workloads.h"

namespace {

using ppbench::Options;
using ppbench::Report;

int Usage(const char* why) {
  std::fprintf(stderr,
               "ppbench: %s\nusage: ppbench --workload "
               "stream-mnist2-512|lanes-mnist2-1024|tcp-heart-2048 "
               "--seed N --seconds S --trace 0|1 [--key-bits B] "
               "[--max-inferences K] [--tamper none|output|count] "
               "[--trace-out FILE]\n",
               why);
  return 2;
}

void PrintJson(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", r.metrics[i].name.c_str(),
                r.metrics[i].value, r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  ppbench::StartHeapSampler();
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
      have_seconds = options.seconds > 0;
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = options.trace || std::strcmp(value, "0") == 0;
    } else if (arg == "--key-bits") {
      options.key_bits = std::atoi(value);
    } else if (arg == "--max-inferences") {
      options.max_inferences = std::atoi(value);
    } else if (arg == "--tamper") {
      const std::string t = value;
      if (t == "output") {
        options.tamper = ppbench::Tamper::kOutput;
      } else if (t == "count") {
        options.tamper = ppbench::Tamper::kCount;
      } else if (t != "none") {
        return Usage("unknown --tamper value");
      }
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  options.cores = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  if (options.cores < 1) options.cores = 1;
  if (options.trace) ppbench::SpanLog::Get().Enable();
  const double epoch = ppbench::NowSeconds();

  Report report;
  if (options.workload == "stream-mnist2-512") {
    ppbench::RunStreamMnist2(options, &report);
  } else if (options.workload == "lanes-mnist2-1024") {
    ppbench::RunLanesMnist2(options, &report);
  } else if (options.workload == "tcp-heart-2048") {
    ppbench::RunTcpHeart(options, &report);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  if (options.trace && !options.trace_out.empty() &&
      !ppbench::SpanLog::Get().WriteJson(options.trace_out, epoch)) {
    std::fprintf(stderr, "could not write spans to %s\n",
                 options.trace_out.c_str());
  }
  std::printf("host: %s\n", ppbench::HostStamp().c_str());
  std::printf("workload %s seed %llu trace %d: attempted %llu failed %llu "
              "correct %s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0,
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.correct ? "true" : "false");
  std::printf("float model drift: max %.3g (tolerance %.3g)\n",
              report.max_float_drift, report.float_tolerance);
  PrintJson(report);
  std::fflush(stdout);
  return 0;
}
