#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/protocol.h"
#include "tensor/ops.h"

#ifndef PPBENCH_BUILD_TYPE
#define PPBENCH_BUILD_TYPE "unknown"
#endif

namespace ppbench {

using ppstream::DoubleTensor;
using ppstream::InferencePlan;

namespace {
const auto process_start = std::chrono::steady_clock::now();
}  // namespace

void Report::CheckFailed(const std::string& what) {
  if (correct) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

void Report::OperationFailed(const std::string& what) {
  ++failed;
  std::fprintf(stderr, "OPERATION FAILED: %s\n", what.c_str());
}

double SecondsSinceProcessStart() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       process_start)
      .count();
}

double ProcessCpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

namespace {

/// Polls the allocator's bytes in use (every arena, mmapped chunks
/// included) from a thread of its own and keeps the peak.
class HeapSampler {
 public:
  HeapSampler() : thread_([this] { Run(); }) {}
  ~HeapSampler() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;

  size_t PeakBytes() {
    Sample();
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  void Sample() {
    const struct mallinfo2 m = mallinfo2();
    const size_t in_use = m.uordblks + m.hblkhd;
    size_t peak = peak_.load(std::memory_order_relaxed);
    while (in_use > peak &&
           !peak_.compare_exchange_weak(peak, in_use,
                                        std::memory_order_relaxed)) {
    }
  }
  void Run() {
    while (!stop_.load(std::memory_order_relaxed)) {
      Sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<size_t> peak_{0};
  std::thread thread_;  // last: Run() reads the members above
};

HeapSampler& Sampler() {
  static HeapSampler sampler;
  return sampler;
}

}  // namespace

void StartHeapSampler() { Sampler(); }

double PeakHeapMb() {
  return static_cast<double>(Sampler().PeakBytes()) / (1024.0 * 1024.0);
}

std::string HostStamp() {
  // CPU model and flags come from the CPUID instruction, so the harness
  // reads no file outside its checkout.
  std::string model = "unknown", flags;
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000002, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      __get_cpuid(0x80000003, &regs[4], &regs[5], &regs[6], &regs[7]) &&
      __get_cpuid(0x80000004, &regs[8], &regs[9], &regs[10], &regs[11])) {
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    model = brand;
    model.erase(0, model.find_first_not_of(' '));
  }
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    const std::pair<const char*, int> leaf7_ebx[] = {
        {"avx2", 5}, {"bmi2", 8}, {"adx", 19}, {"avx512f", 16},
        {"avx512ifma", 21}};
    for (const auto& [name, bit] : leaf7_ebx) {
      if ((ebx >> bit) & 1u) {
        flags += (flags.empty() ? "" : ",") + std::string(name);
      }
    }
  }
#endif
  std::ostringstream out;
  out << "nproc=" << sysconf(_SC_NPROCESSORS_ONLN) << " cpu=\"" << model
      << "\" flags=" << (flags.empty() ? "none" : flags) << " compiler=\"";
#if defined(__clang__)
  out << "clang " << __clang_version__;
#elif defined(__GNUC__)
  out << "gcc " << __VERSION__;
#endif
  out << "\" build=" << PPBENCH_BUILD_TYPE;
  return out.str();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double FloatTolerance(const InferencePlan& plan) {
  // Every round re-quantizes its input at F (error <= 0.5/F per value) and
  // every weight was rounded at F. A round's output error is the sum of
  // those half-units over its fan-in, scaled by the weights and inputs,
  // which for the zoo models stays within a few dozen units of 1/F per
  // round; softmax then contracts it. 100/F per round is that allowance
  // with headroom, and still far below any class margin the check needs.
  return 100.0 * static_cast<double>(plan.NumRounds()) /
         static_cast<double>(plan.scale);
}

Reference BuildReference(const InferencePlan& plan, const DoubleTensor& input,
                         Report* report) {
  Reference ref;
  auto plain = ppstream::RunScaledPlainInference(plan, input);
  auto fl = plan.prepared_model.Forward(input);
  if (!plain.ok() || !fl.ok()) {
    report->CheckFailed("reference inference failed");
    return ref;
  }
  ref.scaled_plain = std::move(plain).value();
  ref.float_model = std::move(fl).value();
  return ref;
}

void CheckOutput(const InferencePlan& plan, const Reference& ref,
                 DoubleTensor output, Tamper tamper, const std::string& what,
                 Report* report) {
  if (tamper == Tamper::kOutput && output.NumElements() > 0) {
    output[0] = 1.0 - output[0];
  }
  if (output.shape() != ref.scaled_plain.shape()) {
    report->CheckFailed(what + ": output shape differs from the reference");
    return;
  }
  for (int64_t i = 0; i < output.NumElements(); ++i) {
    if (output[i] != ref.scaled_plain[i]) {
      report->CheckFailed(what + ": output differs from "
                                 "RunScaledPlainInference at element " +
                          std::to_string(i));
      return;
    }
  }
  if (ppstream::ArgMax(output) != ppstream::ArgMax(ref.float_model)) {
    report->CheckFailed(what + ": argmax differs from the float model");
  }
  const double tol = FloatTolerance(plan);
  double sum = 0;
  for (int64_t i = 0; i < output.NumElements(); ++i) {
    const double drift = std::fabs(output[i] - ref.float_model[i]);
    report->max_float_drift = std::max(report->max_float_drift, drift);
    report->float_tolerance = tol;
    if (drift > tol) {
      report->CheckFailed(what + ": output " + std::to_string(i) +
                          " is farther than " + std::to_string(tol) +
                          " from the float model");
    }
    if (!(output[i] >= 0.0 && output[i] <= 1.0)) {
      report->CheckFailed(what + ": softmax output outside [0, 1]");
    }
    sum += output[i];
  }
  if (std::fabs(sum - 1.0) > 1e-9) {
    report->CheckFailed(what + ": softmax outputs do not sum to 1");
  }
}

void CheckCount(const std::string& what, uint64_t measured, uint64_t expected,
                Tamper tamper, Report* report) {
  if (tamper == Tamper::kCount) ++measured;
  if (measured != expected) {
    report->CheckFailed(what + ": measured " + std::to_string(measured) +
                        " != plan price " + std::to_string(expected));
  }
}

}  // namespace ppbench
