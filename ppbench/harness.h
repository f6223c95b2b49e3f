// Shared pieces of the benchmark harness: run options, the report printed
// as the run's last line, output checks, and process measurements.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/plan.h"
#include "tensor/tensor.h"

namespace ppbench {

/// A deliberate fault the self-check injects to prove the checks can fail.
enum class Tamper { kNone, kOutput, kCount };

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// 0 = the workload's key size.
  int key_bits = 0;
  /// >0 ends the timed window after this many inferences (self-check).
  int max_inferences = 0;
  Tamper tamper = Tamper::kNone;
  /// Where the traced run writes its spans ("" = not written).
  std::string trace_out;
  /// Harness threads, connections and planner cores: nproc.
  int cores = 1;
};

/// Everything a run reports. `failed` counts operations the program
/// failed; a failed check clears `correct`.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed output check (printed to stderr).
  void CheckFailed(const std::string& what);
  /// Records an operation the program failed (printed to stderr).
  void OperationFailed(const std::string& what);

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Largest |protocol - float model| seen, and the tolerance it met.
  double max_float_drift = 0;
  double float_tolerance = 0;
};

/// Seconds since this process started (a static initializer's clock read).
double SecondsSinceProcessStart();
/// User + system CPU seconds of the whole process.
double ProcessCpuSeconds();
/// Starts sampling the allocator's bytes in use every 5 ms (call first
/// thing in main). Peak RSS is not used: for the same binary and workload
/// it moved by several MiB between sessions hours apart.
void StartHeapSampler();
/// Peak heap bytes in use so far, in MiB.
double PeakHeapMb();
/// nproc, CPU model and flags of interest, compiler, build type.
std::string HostStamp();

/// Sorted-sample quantile (nearest rank); 0 for an empty set.
double Quantile(std::vector<double> v, double q);
/// Median of a small sample.
double Median(std::vector<double> v);

/// Holds one input's references and checks protocol outputs against them:
/// bit-exact with RunScaledPlainInference; argmax equal to the float
/// model's forward pass (no quantization, no crypto) and every output
/// within `FloatTolerance(plan)` of it; softmax outputs in [0, 1] summing
/// to 1.
struct Reference {
  ppstream::DoubleTensor scaled_plain;
  ppstream::DoubleTensor float_model;
};

/// Builds one input's references; fails the report on an error.
Reference BuildReference(const ppstream::InferencePlan& plan,
                         const ppstream::DoubleTensor& input, Report* report);

/// Float-vs-protocol bound: each value passes through rounds of fixed
/// point at F, so the end result may drift by a small multiple of 1/F.
double FloatTolerance(const ppstream::InferencePlan& plan);

/// Checks one protocol output against its reference. `tamper` (kOutput)
/// flips one output element first, which must make the check fail.
void CheckOutput(const ppstream::InferencePlan& plan, const Reference& ref,
                 ppstream::DoubleTensor output, Tamper tamper,
                 const std::string& what, Report* report);

/// Checks a measured per-request crypto count against the plan's price.
/// `tamper` (kCount) adds one to the measured count first.
void CheckCount(const std::string& what, uint64_t measured, uint64_t expected,
                Tamper tamper, Report* report);

}  // namespace ppbench
