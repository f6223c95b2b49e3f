#include "trace.h"

#include <chrono>
#include <cstdio>

#include "stream/message.h"

namespace ppbench {

using ppstream::Ciphertext;
using ppstream::DoubleTensor;
using ppstream::Result;
using ppstream::Status;
using ppstream::ThreadPool;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

void SpanLog::Add(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(record));
}

double SpanLog::SelfSeconds(const std::string& name, double from,
                            double to) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0;
  for (const SpanRecord& s : spans_) {
    if (s.name == name && s.end > from && s.end <= to) {
      total += (s.end - s.start) - s.child_seconds;
    }
  }
  return total;
}

bool SpanLog::WriteJson(const std::string& path, double epoch) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"self_s\": %.9f}%s\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.start - epoch,
                 s.end - epoch, (s.end - s.start) - s.child_seconds,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

namespace {
thread_local Span* current_span = nullptr;
std::atomic<uint64_t> next_span_id{1};
}  // namespace

Span::Span(const char* name, uint64_t request) {
  if (!SpanLog::Get().enabled()) return;
  active_ = true;
  outer_ = current_span;
  record_.name = name;
  record_.id = next_span_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = outer_ != nullptr ? outer_->record_.id : 0;
  record_.request =
      request != 0 || outer_ == nullptr ? request : outer_->record_.request;
  record_.start = NowSeconds();
  current_span = this;
}

Span::~Span() {
  if (!active_) return;
  record_.end = NowSeconds();
  if (outer_ != nullptr) {
    outer_->record_.child_seconds += record_.end - record_.start;
  }
  current_span = outer_;
  SpanLog::Get().Add(std::move(record_));
}

uint64_t CiphertextBytes(const std::vector<Ciphertext>& v) {
  return ppstream::SerializeCiphertexts(v).size();
}

namespace {

/// Times one forwarded call and opens its span.
class CallTimer {
 public:
  CallTimer(const char* span_name, uint64_t request)
      : span_(span_name, request), start_(NowSeconds()) {}
  double Elapsed() const { return NowSeconds() - start_; }
  double start() const { return start_; }

 private:
  Span span_;
  double start_;
};

}  // namespace

// ---- TracedModelProvider

void TracedModelProvider::AddCall(double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  call_seconds_ += seconds;
}

double TracedModelProvider::call_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return call_seconds_;
}

double TracedModelProvider::enclosing_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return enclosing_seconds_;
}

Result<std::vector<Ciphertext>> TracedModelProvider::ProcessRound(
    uint64_t request_id, size_t round, const std::vector<Ciphertext>& in) {
  CallTimer t("core.mp.ProcessRound", request_id);
  if (round == 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    first_call_[request_id] = t.start();
  }
  auto out = mp_->ProcessRound(request_id, round, in);
  AddCall(t.Elapsed());
  return out;
}

Result<std::vector<Ciphertext>> TracedModelProvider::InverseObfuscate(
    uint64_t request_id, size_t round, std::vector<Ciphertext> in) {
  CallTimer t("core.mp.InverseObfuscate", request_id);
  auto out = mp_->InverseObfuscate(request_id, round, std::move(in));
  AddCall(t.Elapsed());
  return out;
}

Result<std::vector<Ciphertext>> TracedModelProvider::ApplyLinearStage(
    size_t round, const std::vector<Ciphertext>& in, ThreadPool* pool,
    bool input_partitioning) {
  CallTimer t("core.mp.ApplyLinearStage", 0);
  auto out = mp_->ApplyLinearStage(round, in, pool, input_partitioning);
  AddCall(t.Elapsed());
  return out;
}

Result<std::vector<Ciphertext>> TracedModelProvider::Obfuscate(
    uint64_t request_id, size_t round, std::vector<Ciphertext> in) {
  CallTimer t("core.mp.Obfuscate", request_id);
  auto out = mp_->Obfuscate(request_id, round, std::move(in));
  AddCall(t.Elapsed());
  return out;
}

Status TracedModelProvider::ReleaseRequestState(uint64_t request_id) {
  CallTimer t("core.mp.ReleaseRequestState", request_id);
  Status s = mp_->ReleaseRequestState(request_id);
  const double end = NowSeconds();
  std::lock_guard<std::mutex> lock(mutex_);
  call_seconds_ += end - t.start();
  auto it = first_call_.find(request_id);
  if (it != first_call_.end()) {
    enclosing_seconds_ += end - it->second;
    first_call_.erase(it);
  }
  return s;
}

// ---- TracedDataProvider

void TracedDataProvider::AddCall(double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  call_seconds_ += seconds;
}

double TracedDataProvider::call_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return call_seconds_;
}

Result<std::vector<Ciphertext>> TracedDataProvider::EncryptInput(
    const DoubleTensor& input) {
  CallTimer t("core.dp.EncryptInput", 0);
  auto out = dp_->EncryptInput(input);
  AddCall(t.Elapsed());
  if (out.ok()) bytes_.fetch_add(CiphertextBytes(*out));
  return out;
}

Result<std::vector<Ciphertext>> TracedDataProvider::EncryptInputParallel(
    const DoubleTensor& input, ThreadPool* pool) {
  CallTimer t("core.dp.EncryptInput", 0);
  auto out = dp_->EncryptInputParallel(input, pool);
  AddCall(t.Elapsed());
  if (out.ok()) bytes_.fetch_add(CiphertextBytes(*out));
  return out;
}

Result<std::vector<Ciphertext>> TracedDataProvider::ProcessIntermediate(
    size_t round, const std::vector<Ciphertext>& in,
    std::vector<double>* decrypted_view, ThreadPool* pool) {
  CallTimer t("core.dp.ProcessIntermediate", 0);
  auto out = dp_->ProcessIntermediate(round, in, decrypted_view, pool);
  AddCall(t.Elapsed());
  bytes_.fetch_add(CiphertextBytes(in) +
                   (out.ok() ? CiphertextBytes(*out) : 0));
  return out;
}

Result<DoubleTensor> TracedDataProvider::ProcessFinal(
    const std::vector<Ciphertext>& in, ThreadPool* pool) {
  CallTimer t("core.dp.ProcessFinal", 0);
  auto out = dp_->ProcessFinal(in, pool);
  AddCall(t.Elapsed());
  bytes_.fetch_add(CiphertextBytes(in));
  return out;
}

}  // namespace ppbench
