// Spans recorded from the benchmark's own files, around the calls it makes
// into each layer of the program. Nothing inside the program is traced:
// the decorators below implement the program's provider interfaces and
// forward every call to the real provider.
//
// Spans stay in memory while the run lasts and are written out as one
// JSON array when it ends. A span's self time is its duration minus the
// part covered by its child spans on the same thread.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/protocol.h"

namespace ppbench {

/// Seconds on the steady clock (same epoch across threads).
double NowSeconds();

struct SpanRecord {
  std::string name;   // "<layer>.<call>", e.g. "core.dp.EncryptInput"
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // 0 = not tied to one request
  double start = 0;
  double end = 0;
  double child_seconds = 0;  // time covered by direct children
};

/// Process-wide span store; disabled (every Span a no-op) unless Enable()d.
class SpanLog {
 public:
  static SpanLog& Get();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Add(SpanRecord record);
  /// Sum of self times of spans named `name` that ended in (from, to].
  double SelfSeconds(const std::string& name, double from, double to) const;
  /// Writes every span as a JSON array (seconds relative to `epoch`).
  bool WriteJson(const std::string& path, double epoch) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: opens on construction, closes into SpanLog on destruction.
/// Nests with other Spans on the same thread.
class Span {
 public:
  Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
  Span* outer_ = nullptr;
};

/// Wire size of a ciphertext vector in the program's own encoding.
uint64_t CiphertextBytes(const std::vector<ppstream::Ciphertext>& v);

/// Decorates a ModelProviderApi: every call runs in a span
/// "core.mp.<Method>" and is forwarded unchanged. Also keeps, per
/// request, the interval from the first round's call to the return of
/// ReleaseRequestState (what a server-side request span must fit in).
class TracedModelProvider : public ppstream::ModelProviderApi {
 public:
  explicit TracedModelProvider(std::shared_ptr<ppstream::ModelProviderApi> mp)
      : mp_(std::move(mp)) {}

  const ppstream::InferencePlan& plan() const override { return mp_->plan(); }
  ppstream::Result<std::vector<ppstream::Ciphertext>> ProcessRound(
      uint64_t request_id, size_t round,
      const std::vector<ppstream::Ciphertext>& in) override;
  ppstream::Result<std::vector<ppstream::Ciphertext>> InverseObfuscate(
      uint64_t request_id, size_t round,
      std::vector<ppstream::Ciphertext> in) override;
  ppstream::Result<std::vector<ppstream::Ciphertext>> ApplyLinearStage(
      size_t round, const std::vector<ppstream::Ciphertext>& in,
      ppstream::ThreadPool* pool, bool input_partitioning) override;
  ppstream::Result<std::vector<ppstream::Ciphertext>> Obfuscate(
      uint64_t request_id, size_t round,
      std::vector<ppstream::Ciphertext> in) override;
  ppstream::Status ReleaseRequestState(uint64_t request_id) override;

  /// Seconds spent inside calls to the wrapped provider (always counted).
  double call_seconds() const;
  /// Sum over finished requests of (release return - first round call).
  double enclosing_seconds() const;

 private:
  void AddCall(double seconds);

  std::shared_ptr<ppstream::ModelProviderApi> mp_;
  mutable std::mutex mutex_;
  double call_seconds_ = 0;
  double enclosing_seconds_ = 0;
  std::map<uint64_t, double> first_call_;
};

/// Decorates a DataProviderApi: spans "core.dp.<Method>", plus an
/// always-on count of the ciphertext bytes crossing the party boundary
/// (everything the data provider sends to or receives from the model
/// provider).
class TracedDataProvider : public ppstream::DataProviderApi {
 public:
  explicit TracedDataProvider(std::shared_ptr<ppstream::DataProviderApi> dp)
      : dp_(std::move(dp)) {}

  const ppstream::PaillierPublicKey& public_key() const override {
    return dp_->public_key();
  }
  ppstream::Result<std::vector<ppstream::Ciphertext>> EncryptInput(
      const ppstream::DoubleTensor& input) override;
  ppstream::Result<std::vector<ppstream::Ciphertext>> EncryptInputParallel(
      const ppstream::DoubleTensor& input,
      ppstream::ThreadPool* pool) override;
  ppstream::Result<std::vector<ppstream::Ciphertext>> ProcessIntermediate(
      size_t round, const std::vector<ppstream::Ciphertext>& in,
      std::vector<double>* decrypted_view,
      ppstream::ThreadPool* pool) override;
  ppstream::Result<ppstream::DoubleTensor> ProcessFinal(
      const std::vector<ppstream::Ciphertext>& in,
      ppstream::ThreadPool* pool) override;

  uint64_t boundary_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  /// Seconds spent inside calls to the wrapped provider (always counted).
  double call_seconds() const;

 private:
  void AddCall(double seconds);

  std::shared_ptr<ppstream::DataProviderApi> dp_;
  std::atomic<uint64_t> bytes_{0};
  mutable std::mutex mutex_;
  double call_seconds_ = 0;
};

}  // namespace ppbench
