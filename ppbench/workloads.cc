#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/protocol.h"
#include "net/server.h"
#include "net/transport.h"
#include "nn/model_zoo.h"
#include "obs/metrics.h"
#include "planner/profiler.h"
#include "stream/engine.h"
#include "trace.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ppbench {

using namespace ppstream;

namespace {

// F: every zoo model is quantized at 10^4.
constexpr int64_t kScale = 10000;
// The trained model, its data and the keys are fixed; --seed picks the
// inputs (the order in which test samples are streamed) and the parties'
// randomness. Keys come from a fixed seed so that set-up does the same
// prime search in every run.
constexpr uint64_t kDataSeed = 3;
constexpr uint64_t kTrainSeed = 4;
constexpr uint64_t kKeySeed = 0x6B657973;

using Values = std::map<std::string, double>;

// ---- metric names (BENCHMARK.json lists the same names and units).

struct MetricSpec {
  std::string name;
  const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"inferences_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"cpu_ms_per_inference", "ms"},
    {"peak_heap_mb", "MiB"},
    {"party_bytes_per_inference", "bytes"},
};

// Engine stages of a 3-round plan (MNIST-2 and Heart both have 3).
constexpr const char* kStages[] = {
    "dp-encrypt",     "mp-linear-0", "dp-nonlinear-0", "mp-linear-1",
    "dp-nonlinear-1", "mp-linear-2", "dp-final"};

std::vector<MetricSpec> PerLayerSpecs() {
  std::vector<MetricSpec> specs = {
      {"bignum.montmul_n2_ns", "ns"},
      {"bignum.modexp_n2_us", "us"},
      {"crypto.encrypts_per_inference", "count"},
      {"crypto.decrypts_per_inference", "count"},
      {"crypto.scalar_muls_per_inference", "count"},
      {"crypto.hom_adds_per_inference", "count"},
      {"crypto.pool.produced_per_inference", "count"},
      {"crypto.pool.hit_ratio", "ratio"},
      {"core.dp.encrypt_ms_per_inference", "ms"},
      {"core.dp.decrypt_nonlinear_ms_per_inference", "ms"},
      {"core.mp.linear_ms_per_inference", "ms"},
      {"core.mp.obfuscate_ms_per_inference", "ms"},
      {"core.lanes.thread_pool_speedup", "ratio"},
  };
  for (const char* stage : kStages) {
    specs.push_back({std::string("stream.busy_share.") + stage, "ratio"});
  }
  const MetricSpec rest[] = {
      {"stream.queue_wait_ms_per_inference", "ms"},
      {"planner.compile_ms", "ms"},
      {"planner.profile_ms", "ms"},
      {"planner.ilp_solve_ms", "ms"},
      {"planner.predicted_interval_ms", "ms"},
      {"net.rpc_ms_per_inference", "ms"},
      {"net.server_ms_per_inference", "ms"},
      {"net.frames_per_inference", "count"},
      {"net.handshake_ms", "ms"},
      {"obs.metrics_scrape_ms", "ms"},
      {"obs.metrics_bytes", "bytes"},
      {"obs.cost_reconciled_ratio", "ratio"},
      {"trace.inferences_per_s", "1/s"},
  };
  specs.insert(specs.end(), std::begin(rest), std::end(rest));
  return specs;
}

/// Emits the end-to-end metrics (untraced run) or every per-layer metric
/// (traced run). A per-layer metric that does not apply to the workload
/// reads 0; an end-to-end metric must have been measured.
void Emit(const Options& options, const Values& values, Report* report) {
  if (!options.trace) {
    for (const MetricSpec& s : kEndToEnd) {
      auto it = values.find(s.name);
      if (it == values.end()) {
        report->CheckFailed("metric not measured: " + s.name);
        continue;
      }
      report->Add(s.name, it->second, s.unit);
    }
    return;
  }
  for (const MetricSpec& s : PerLayerSpecs()) {
    auto it = values.find(s.name);
    report->Add(s.name, it == values.end() ? 0.0 : it->second, s.unit);
  }
}

// ---- inputs

struct Inputs {
  Model model;
  std::vector<DoubleTensor> pool;    // test samples, in the seed's order
  std::vector<DoubleTensor> probes;  // training samples for profiling
  double seconds = 0;                // spent generating (not set-up)
};

Inputs MakeInputs(ZooModelId id, double size_scale, uint64_t seed) {
  const double start = NowSeconds();
  DatasetSplit data = MakeZooDataset(id, size_scale, kDataSeed);
  auto model = MakeTrainedZooModel(id, data.train, kTrainSeed);
  PPS_CHECK_OK(model.status());
  Inputs in;
  in.model = std::move(model).value();
  in.pool = data.test.samples;
  Rng rng(seed);
  rng.Shuffle(in.pool);
  in.probes = {data.train.samples.front()};
  in.seconds = NowSeconds() - start;
  return in;
}

/// Lazily built references for the pool entries a run used.
class References {
 public:
  References(const InferencePlan& plan, const Inputs& in, Report* report)
      : plan_(plan), in_(in), report_(report) {}

  const Reference& Get(size_t index) {
    auto it = refs_.find(index);
    if (it == refs_.end()) {
      it = refs_.emplace(index, BuildReference(plan_, in_.pool[index], report_))
               .first;
    }
    return it->second;
  }

 private:
  const InferencePlan& plan_;
  const Inputs& in_;
  Report* report_;
  std::map<size_t, Reference> refs_;
};

PaillierKeyPair MakeKeys(int bits) {
  Rng rng(kKeySeed + static_cast<uint64_t>(bits));
  auto keys = Paillier::GenerateKeyPair(bits, rng);
  PPS_CHECK_OK(keys.status());
  return std::move(keys).value();
}

std::shared_ptr<InferencePlan> Compile(const Model& model, int key_bits,
                                       bool packing, Values* values) {
  const double start = NowSeconds();
  CompileOptions options;
  if (packing) {
    options.packing = planner::PackingSpec{};
    options.packing->key_bits = key_bits;
  }
  std::shared_ptr<InferencePlan> plan;
  {
    Span span("planner.CompilePlan");
    auto compiled = CompilePlan(model, kScale, options);
    PPS_CHECK_OK(compiled.status());
    plan = std::make_shared<InferencePlan>(std::move(compiled).value());
  }
  (*values)["planner.compile_ms"] = 1e3 * (NowSeconds() - start);
  return plan;
}

// ---- registry counters

struct Counts {
  uint64_t encrypts = 0, decrypts = 0, scalar_muls = 0, hom_adds = 0;
  uint64_t pool_hits = 0, pool_misses = 0, pool_produced = 0;
  uint64_t reconciled = 0, contended = 0;

  static Counts Read() {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
    Counts c;
    c.encrypts = r.GetCounter("crypto.encrypts")->Value();
    c.decrypts = r.GetCounter("crypto.decrypts")->Value();
    c.scalar_muls = r.GetCounter("crypto.scalar_muls")->Value();
    c.hom_adds = r.GetCounter("crypto.pack.hom_adds")->Value();
    c.pool_hits = r.GetCounter("crypto.pool.hits")->Value();
    c.pool_misses = r.GetCounter("crypto.pool.misses")->Value();
    c.pool_produced = r.GetCounter("crypto.pool.produced")->Value();
    c.reconciled = r.GetCounter("cost.reconciled")->Value();
    c.contended = r.GetCounter("cost.contended_skips")->Value();
    return c;
  }
  Counts operator-(const Counts& o) const {
    Counts d;
    d.encrypts = encrypts - o.encrypts;
    d.decrypts = decrypts - o.decrypts;
    d.scalar_muls = scalar_muls - o.scalar_muls;
    d.hom_adds = hom_adds - o.hom_adds;
    d.pool_hits = pool_hits - o.pool_hits;
    d.pool_misses = pool_misses - o.pool_misses;
    d.pool_produced = pool_produced - o.pool_produced;
    d.reconciled = reconciled - o.reconciled;
    d.contended = contended - o.contended;
    return d;
  }
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Per-inference crypto counts over a whole run (`total`, exact) and pool
/// behaviour over the timed window (`window`).
void AddCryptoMetrics(const Counts& total, double total_inferences,
                      const Counts& window, double window_inferences,
                      Values* v) {
  (*v)["crypto.encrypts_per_inference"] = Ratio(total.encrypts, total_inferences);
  (*v)["crypto.decrypts_per_inference"] = Ratio(total.decrypts, total_inferences);
  (*v)["crypto.scalar_muls_per_inference"] =
      Ratio(total.scalar_muls, total_inferences);
  (*v)["crypto.hom_adds_per_inference"] = Ratio(total.hom_adds, total_inferences);
  (*v)["crypto.pool.produced_per_inference"] =
      Ratio(window.pool_produced, window_inferences);
  (*v)["crypto.pool.hit_ratio"] =
      Ratio(window.pool_hits, window.pool_hits + window.pool_misses);
}

/// One MontMul mod n^2 and one r^n mod n^2 at the workload's key, each the
/// median of several timed repetitions.
void AddBignumMetrics(const PaillierPublicKey& pk, Values* v) {
  const MontgomeryContext& ctx = pk.ctx_n2();
  const BigInt base = pk.n() + BigInt(12345);  // < n^2
  MontgomeryContext::MontValue acc = ctx.ToMontgomery(base);
  const MontgomeryContext::MontValue mul = ctx.ToMontgomery(pk.n() - BigInt(3));
  constexpr int kMuls = 4000;
  std::vector<double> mul_ns, exp_us;
  for (int rep = 0; rep < 7; ++rep) {
    Span span("bignum.MontgomeryContext.MulMont");
    const double start = NowSeconds();
    for (int i = 0; i < kMuls; ++i) ctx.MulMont(acc, mul, &acc);
    mul_ns.push_back(1e9 * (NowSeconds() - start) / kMuls);
  }
  BigInt r = base;
  for (int rep = 0; rep < 5; ++rep) {
    Span span("bignum.MontgomeryContext.ModExp");
    const double start = NowSeconds();
    r = ctx.ModExp(r, pk.n());
    exp_us.push_back(1e6 * (NowSeconds() - start));
  }
  PPS_CHECK(!ctx.FromMontgomery(acc).IsZero() && !r.IsZero());
  (*v)["bignum.montmul_n2_ns"] = Median(mul_ns);
  (*v)["bignum.modexp_n2_us"] = Median(exp_us);
}

/// Prints where set-up time went, phase by phase.
class SetupPhases {
 public:
  void Mark(const char* phase) {
    const double now = NowSeconds();
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s %.3f", phase, now - last_);
    line_ += buf;
    last_ = now;
  }
  void Print() const { std::printf("setup phases (s):%s\n", line_.c_str()); }

 private:
  double last_ = NowSeconds();
  std::string line_;
};

/// Self time of the named spans that ended in (from, to], in ms per
/// inference.
double SpanMsPerInference(std::initializer_list<const char*> names,
                          double from, double to, double inferences) {
  double seconds = 0;
  for (const char* name : names) {
    seconds += SpanLog::Get().SelfSeconds(name, from, to);
  }
  return 1e3 * seconds / inferences;
}

}  // namespace

// ===================================================================
// stream-mnist2-512
// ===================================================================

void RunStreamMnist2(const Options& options, Report* report) {
  // 512-bit keys: at 1024 bits a window holds only ~7 inferences and runs
  // spread by a fifth of their median (see README.md).
  const int bits = options.key_bits > 0 ? options.key_bits : 512;
  const Inputs in = MakeInputs(ZooModelId::kMnist2, 0.005, options.seed);
  Values v;
  SetupPhases phases;

  const PaillierKeyPair keys = MakeKeys(bits);
  phases.Mark("keygen");
  std::shared_ptr<InferencePlan> plan =
      Compile(in.model, bits, /*packing=*/true, &v);
  PPS_CHECK_OK(plan->CheckFitsKey(keys.public_key.n()));
  phases.Mark("compile");

  auto mp = std::make_shared<ModelProvider>(plan, keys.public_key,
                                            options.seed * 2 + 1);
  DataProvider::Options dp_options;
  dp_options.prefill = true;
  auto dp = std::make_shared<DataProvider>(plan, keys, options.seed * 2 + 2,
                                           dp_options);
  phases.Mark("providers+prefill");

  // The paper's placement path: profile, Eq. 4-8 instance, ILP, for nproc
  // cores split between one model server and one data server. The probe
  // draws on the prefilled pool, so profiling spends the prefill.
  double start = NowSeconds();
  PlanProfile profile;
  {
    Span span("planner.ProfilePlan");
    auto p = ProfilePlan(*mp, *dp, in.probes);
    PPS_CHECK_OK(p.status());
    profile = std::move(p).value();
  }
  v["planner.profile_ms"] = 1e3 * (NowSeconds() - start);
  const AllocationProblem problem = BuildAllocationProblem(
      profile, /*model_servers=*/1, /*data_servers=*/1,
      std::max(1, options.cores / 2));
  start = NowSeconds();
  Allocation allocation;
  {
    Span span("planner.IlpAllocator.Solve");
    auto a = IlpAllocator::Solve(problem);
    PPS_CHECK_OK(a.status());
    allocation = std::move(a).value();
  }
  v["planner.ilp_solve_ms"] = 1e3 * (NowSeconds() - start);
  double predicted = 0;
  for (size_t i = 0; i < profile.stage_seconds.size(); ++i) {
    predicted = std::max(predicted, profile.stage_seconds[i] /
                                        allocation.threads_of_layer[i]);
  }
  v["planner.predicted_interval_ms"] = 1e3 * predicted;
  phases.Mark("profile+ilp");

  auto traced_mp = std::make_shared<TracedModelProvider>(mp);
  auto traced_dp = std::make_shared<TracedDataProvider>(dp);
  EngineConfig config;
  config.stage_threads = StageThreadsFromAllocation(allocation);
  PpStreamEngine engine(traced_mp, traced_dp, config);
  PPS_CHECK_OK(engine.Start());
  const size_t num_stages = engine.pipeline().NumStages();
  auto busy = [&] {
    std::vector<StageMetrics> m;
    for (size_t s = 0; s < num_stages; ++s) {
      m.push_back(engine.pipeline().stage(s).metrics());
    }
    return m;
  };

  // Closed loop: nproc requests in flight from one data provider.
  // Profiling spent the prefill, so set-up ends at the first submit. The
  // window opens at the first completion, once the pipeline is full, and
  // runs for --seconds.
  phases.Mark("engine-start");
  phases.Print();
  v["setup_s"] = SecondsSinceProcessStart() - in.seconds;
  const Counts run_start = Counts::Read();
  const size_t in_flight = static_cast<size_t>(options.cores);
  std::map<uint64_t, double> submitted_at;
  std::vector<std::pair<uint64_t, DoubleTensor>> results;
  uint64_t next_id = 1;
  size_t outstanding = 0;
  auto submit = [&] {
    const uint64_t id = next_id++;
    submitted_at[id] = NowSeconds();
    const Status s = engine.Submit(id, in.pool[(id - 1) % in.pool.size()]);
    PPS_CHECK_OK(s);
    ++outstanding;
  };
  for (size_t i = 0; i < in_flight; ++i) submit();

  bool open = false, closed = false;
  size_t window_n = 0;
  double t0 = 0, t1 = 0, deadline = 0, cpu0 = 0, cpu1 = 0;
  std::vector<StageMetrics> busy0, busy1;
  Counts window0, window1;
  std::vector<double> latencies;
  while (outstanding > 0) {
    auto r = engine.NextResult();
    const double now = NowSeconds();
    --outstanding;
    ++report->attempted;
    double latency = 0;
    if (!r.ok()) {
      report->OperationFailed("stream inference: " + r.status().ToString());
    } else {
      latency = now - submitted_at[r->request_id];
      results.emplace_back(r->request_id, std::move(r->output));
    }
    if (!open) {
      open = true;
      t0 = t1 = now;
      deadline = t0 + options.seconds;
      cpu0 = ProcessCpuSeconds();
      busy0 = busy();
      window0 = Counts::Read();
    } else if (!closed && (options.max_inferences > 0
                               ? window_n < size_t(options.max_inferences)
                               : now <= deadline)) {
      ++window_n;
      t1 = now;
      cpu1 = ProcessCpuSeconds();
      busy1 = busy();
      window1 = Counts::Read();
      latencies.push_back(latency);
    } else {
      closed = true;
    }
    const bool more = options.max_inferences > 0
                          ? window_n + outstanding <
                                size_t(options.max_inferences)
                          : now < deadline;
    if (!closed && more) submit();
  }
  engine.Shutdown();
  const Counts run_total = Counts::Read() - run_start;
  const double wall = t1 - t0;

  // ---- checks
  References refs(*plan, in, report);
  for (size_t i = 0; i < results.size(); ++i) {
    const uint64_t id = results[i].first;
    CheckOutput(*plan, refs.Get((id - 1) % in.pool.size()), results[i].second,
                i == 0 ? options.tamper : Tamper::kNone,
                "stream request " + std::to_string(id), report);
  }
  const uint64_t n = results.size();
  const obs::RequestCostBudget price = ExpectedRequestCost(*plan);
  CheckCount("crypto.scalar_muls over " + std::to_string(n) + " inferences",
             run_total.scalar_muls, n * price.scalar_muls, options.tamper,
             report);
  CheckCount("crypto.encrypts over " + std::to_string(n) + " inferences",
             run_total.encrypts, n * price.encrypts, Tamper::kNone, report);
  if (window_n == 0 || wall <= 0) {
    report->CheckFailed("no inference completed inside the timed window");
    return;
  }

  // ---- metrics
  const double rate = window_n / wall;
  v["inferences_per_s"] = rate;
  v["trace.inferences_per_s"] = rate;
  v["latency_p50_ms"] = 1e3 * Median(latencies);
  v["cpu_ms_per_inference"] = 1e3 * (cpu1 - cpu0) / window_n;
  v["peak_heap_mb"] = PeakHeapMb();
  v["party_bytes_per_inference"] =
      Ratio(traced_dp->boundary_bytes(), static_cast<double>(n));
  AddCryptoMetrics(run_total, n, window1 - window0, window_n, &v);
  auto per_inf_ms = [&](std::initializer_list<const char*> names) {
    return SpanMsPerInference(names, t0, t1, window_n);
  };
  v["core.dp.encrypt_ms_per_inference"] = per_inf_ms({"core.dp.EncryptInput"});
  v["core.dp.decrypt_nonlinear_ms_per_inference"] =
      per_inf_ms({"core.dp.ProcessIntermediate", "core.dp.ProcessFinal"});
  v["core.mp.linear_ms_per_inference"] =
      per_inf_ms({"core.mp.ApplyLinearStage"});
  v["core.mp.obfuscate_ms_per_inference"] =
      per_inf_ms({"core.mp.Obfuscate", "core.mp.InverseObfuscate"});
  double service = 0;
  for (size_t s = 0; s < num_stages; ++s) {
    const std::string& name = engine.pipeline().stage(s).name();
    const double b = busy1[s].busy_seconds - busy0[s].busy_seconds;
    const double msgs = static_cast<double>(busy1[s].messages_processed -
                                            busy0[s].messages_processed);
    v["stream.busy_share." + name] = b / wall;
    service += Ratio(b, msgs);
    std::printf("stage %-16s threads %zu busy_share %.3f service %.1f ms "
                "(profiled %.1f ms)\n",
                name.c_str(), engine.pipeline().stage(s).num_threads(),
                b / wall, 1e3 * Ratio(b, msgs),
                s < profile.stage_seconds.size()
                    ? 1e3 * profile.stage_seconds[s]
                    : 0.0);
  }
  double mean_latency = 0;
  for (double l : latencies) mean_latency += l / latencies.size();
  v["stream.queue_wait_ms_per_inference"] = 1e3 * (mean_latency - service);
  if (options.trace) AddBignumMetrics(keys.public_key, &v);
  std::printf("window: %zu inferences in %.3f s, %llu in the run\n", window_n,
              wall, static_cast<unsigned long long>(n));
  Emit(options, v, report);
}

// ===================================================================
// lanes-mnist2-1024
// ===================================================================

namespace {

/// RunPackedBatchInference's per-round calls, made by the harness so each
/// layer's share shows in spans and the party-boundary bytes are counted.
Result<std::vector<DoubleTensor>> DriveBatch(
    ModelProvider& mp, DataProvider& dp, uint64_t id,
    const std::vector<DoubleTensor>& inputs, ThreadPool* pool,
    uint64_t* bytes) {
  Span root("request.packed_batch", id);
  const int64_t lanes = static_cast<int64_t>(inputs.size());
  const size_t rounds = mp.plan().NumRounds();
  std::vector<Ciphertext> wire;
  {
    Span span("core.dp.EncryptInputPackedBatch", id);
    PPS_ASSIGN_OR_RETURN(wire, dp.EncryptInputPackedBatch(inputs, pool));
  }
  *bytes += CiphertextBytes(wire);
  for (size_t r = 0; r < rounds; ++r) {
    {
      Span span("core.mp.ProcessRoundPackedBatch", id);
      PPS_ASSIGN_OR_RETURN(
          wire, mp.ProcessRoundPackedBatch(id, r, wire, lanes, pool));
    }
    *bytes += CiphertextBytes(wire);
    if (r + 1 < rounds) {
      Span span("core.dp.ProcessIntermediatePackedBatch", id);
      PPS_ASSIGN_OR_RETURN(
          wire, dp.ProcessIntermediatePackedBatch(r, wire, lanes, pool));
      *bytes += CiphertextBytes(wire);
    }
  }
  {
    Span span("core.mp.ReleaseRequestState", id);
    PPS_RETURN_IF_ERROR(mp.ReleaseRequestState(id));
  }
  Span span("core.dp.ProcessFinalPackedBatch", id);
  return dp.ProcessFinalPackedBatch(wire, lanes, pool);
}

}  // namespace

void RunLanesMnist2(const Options& options, Report* report) {
  const int bits = options.key_bits > 0 ? options.key_bits : 1024;
  const Inputs in = MakeInputs(ZooModelId::kMnist2, 0.005, options.seed);
  Values v;
  SetupPhases phases;

  const PaillierKeyPair keys = MakeKeys(bits);
  phases.Mark("keygen");
  std::shared_ptr<InferencePlan> plan =
      Compile(in.model, bits, /*packing=*/true, &v);
  PPS_CHECK_OK(plan->CheckFitsKey(keys.public_key.n()));
  phases.Mark("compile");
  const int64_t lanes = plan->PackedBatchLanes();
  PPS_CHECK(lanes >= 1) << "plan has no packed round at " << bits << " bits";

  ModelProvider mp(plan, keys.public_key, options.seed * 2 + 1);
  DataProvider::Options dp_options;
  dp_options.prefill = true;
  DataProvider dp(plan, keys, options.seed * 2 + 2, dp_options);
  const uint64_t prefill = dp.PoolStatsForTesting().produced;
  ThreadPool pool(static_cast<size_t>(options.cores));
  phases.Mark("providers+prefill");
  const obs::RequestCostBudget price = ExpectedPackedBatchCost(*plan, lanes);

  size_t next_input = 0;
  uint64_t next_id = 1;
  struct Batch {
    std::vector<size_t> indices;
    std::vector<DoubleTensor> outputs;
  };
  std::vector<Batch> batches;
  auto make_batch = [&] {
    Batch b;
    std::vector<DoubleTensor> inputs;
    for (int64_t l = 0; l < lanes; ++l) {
      b.indices.push_back(next_input % in.pool.size());
      inputs.push_back(in.pool[next_input++ % in.pool.size()]);
    }
    return std::make_pair(std::move(b), std::move(inputs));
  };
  // Runs one batch, checks its crypto counts against the plan's price and
  // keeps its outputs for the output checks.
  uint64_t driven_bytes = 0, driven_inferences = 0;
  auto run_batch = [&](bool drive, ThreadPool* p) {
    auto [b, inputs] = make_batch();
    const uint64_t id = next_id++;
    const Counts before = Counts::Read();
    uint64_t bytes = 0;
    auto out = drive ? DriveBatch(mp, dp, id, inputs, p, &bytes)
                     : RunPackedBatchInference(mp, dp, id, inputs, p);
    const Counts used = Counts::Read() - before;
    report->attempted += static_cast<uint64_t>(lanes);
    if (!out.ok()) {
      report->failed += static_cast<uint64_t>(lanes) - 1;
      report->OperationFailed("packed batch: " + out.status().ToString());
      return;
    }
    if (drive) {
      driven_bytes += bytes;
      driven_inferences += static_cast<uint64_t>(lanes);
    }
    CheckCount("crypto.scalar_muls of batch " + std::to_string(id),
               used.scalar_muls, price.scalar_muls,
               id == 1 ? options.tamper : Tamper::kNone, report);
    CheckCount("crypto.encrypts of batch " + std::to_string(id), used.encrypts,
               price.encrypts, Tamper::kNone, report);
    b.outputs = std::move(out).value();
    batches.push_back(std::move(b));
  };

  // Warm-up: batches run call by call by the harness (which also counts
  // the party-boundary bytes) until the prefill is spent.
  const Counts run_start = Counts::Read();
  auto takes = [&] {
    const Counts c = Counts::Read() - run_start;
    return c.pool_hits + c.pool_misses;
  };
  do {
    run_batch(/*drive=*/true, &pool);
  } while (takes() < prefill);

  phases.Mark("warm-up");
  phases.Print();
  const double t0 = NowSeconds();
  v["setup_s"] = SecondsSinceProcessStart() - in.seconds;
  const double cpu0 = ProcessCpuSeconds();
  const Counts window0 = Counts::Read();
  const size_t warm_batches = batches.size();
  std::vector<double> latencies;
  double t1 = t0;
  while (options.max_inferences > 0
             ? latencies.size() * lanes < size_t(options.max_inferences)
             : t1 < t0 + options.seconds) {
    const double start = NowSeconds();
    run_batch(/*drive=*/options.trace, &pool);
    t1 = NowSeconds();
    latencies.push_back(t1 - start);
  }
  const double cpu1 = ProcessCpuSeconds();
  const Counts window = Counts::Read() - window0;
  const Counts run_total = Counts::Read() - run_start;
  const double run_n = static_cast<double>(batches.size() * lanes);
  const double window_n = static_cast<double>(latencies.size() * lanes);

  if (options.trace) {
    // One more batch without the thread pool: how much the pool buys.
    const double start = NowSeconds();
    run_batch(/*drive=*/false, nullptr);
    v["core.lanes.thread_pool_speedup"] =
        (NowSeconds() - start) / Median(latencies);
  }

  // ---- checks: every lane against its own scalar reference.
  References refs(*plan, in, report);
  for (size_t b = 0; b < batches.size(); ++b) {
    for (size_t l = 0; l < batches[b].outputs.size(); ++l) {
      CheckOutput(*plan, refs.Get(batches[b].indices[l]),
                  batches[b].outputs[l],
                  b == 0 && l == 0 ? options.tamper : Tamper::kNone,
                  "batch " + std::to_string(b + 1) + " lane " +
                      std::to_string(l),
                  report);
    }
  }

  // ---- metrics
  const double wall = t1 - t0;
  v["inferences_per_s"] = window_n / wall;
  v["trace.inferences_per_s"] = window_n / wall;
  v["latency_p50_ms"] = 1e3 * Median(latencies);
  v["cpu_ms_per_inference"] = 1e3 * (cpu1 - cpu0) / window_n;
  v["peak_heap_mb"] = PeakHeapMb();
  v["party_bytes_per_inference"] = Ratio(driven_bytes, driven_inferences);
  AddCryptoMetrics(run_total, run_n, window, window_n, &v);
  auto per_inf_ms = [&](std::initializer_list<const char*> names) {
    return SpanMsPerInference(names, t0, t1, window_n);
  };
  v["core.dp.encrypt_ms_per_inference"] =
      per_inf_ms({"core.dp.EncryptInputPackedBatch"});
  v["core.dp.decrypt_nonlinear_ms_per_inference"] = per_inf_ms(
      {"core.dp.ProcessIntermediatePackedBatch",
       "core.dp.ProcessFinalPackedBatch"});
  // ProcessRoundPackedBatch does inverse obfuscation, the linear stage and
  // obfuscation in one public call; the obfuscation share is not separable
  // from outside and is reported inside the linear time.
  v["core.mp.linear_ms_per_inference"] =
      per_inf_ms({"core.mp.ProcessRoundPackedBatch"});
  if (options.trace) AddBignumMetrics(keys.public_key, &v);
  std::printf("lanes %lld, warm-up %zu batches, window %zu batches in %.3f s\n",
              static_cast<long long>(lanes), warm_batches, latencies.size(),
              wall);
  Emit(options, v, report);
}

// ===================================================================
// tcp-heart-2048
// ===================================================================

namespace {

/// One-shot HTTP/1.0 GET against the admin endpoint; the whole response.
std::string AdminGet(uint16_t port, const std::string& target) {
  auto sock = TcpSocket::Connect("127.0.0.1", port, 5.0);
  PPS_CHECK_OK(sock.status());
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  PPS_CHECK_OK(sock->SendAll(reinterpret_cast<const uint8_t*>(request.data()),
                             request.size(), 5.0));
  std::string response;
  uint8_t buf[4096];
  for (;;) {
    auto n = sock->RecvSome(buf, sizeof(buf), 5.0);
    if (!n.ok() || *n == 0) break;
    response.append(reinterpret_cast<const char*>(buf), *n);
  }
  return response;
}

struct SessionResult {
  double handshake_seconds = 0;
  std::vector<double> latencies;
  std::vector<std::pair<size_t, DoubleTensor>> outputs;  // pool index
  size_t window_n = 0;
  double last_done = 0;
  double rpc_seconds = 0;        // client time inside MP calls (window)
  double enclosing_seconds = 0;  // first MP call -> release return (window)
  uint64_t frames = 0, bytes = 0;
  size_t attempted = 0, failed = 0;
  std::vector<std::string> coverage_failures;
  double min_coverage = 1;  // traced: lowest share of latency in calls
};

/// Start line for the timed window: every session has spent its prefill.
class StartGate {
 public:
  explicit StartGate(size_t sessions) : waiting_for_(sessions) {}
  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mutex_);
    --waiting_for_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  void WaitAllArrived() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return waiting_for_ == 0; });
  }
  void Open(double deadline) {
    std::lock_guard<std::mutex> lock(mutex_);
    deadline_ = deadline;
    open_ = true;
    cv_.notify_all();
  }
  double deadline() {
    std::lock_guard<std::mutex> lock(mutex_);
    return deadline_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t waiting_for_;
  bool open_ = false;
  double deadline_ = 0;
};

}  // namespace

void RunTcpHeart(const Options& options, Report* report) {
  const int bits = options.key_bits > 0 ? options.key_bits : 2048;
  const Inputs in = MakeInputs(ZooModelId::kHeart, 1.0, options.seed);
  Values v;
  const size_t sessions = static_cast<size_t>(options.cores);
  SetupPhases phases;

  const PaillierKeyPair keys = MakeKeys(bits);
  phases.Mark("keygen");
  std::shared_ptr<InferencePlan> plan =
      Compile(in.model, bits, /*packing=*/false, &v);
  PPS_CHECK_OK(plan->CheckFitsKey(keys.public_key.n()));
  phases.Mark("compile");

  ModelProviderServerOptions server_options;
  server_options.admin_port = 0;
  server_options.max_concurrent_connections = sessions;
  server_options.session.max_sessions = 2 * sessions;
  server_options.obf_seed = options.seed * 2 + 1;
  ModelProviderTcpServer server(plan, server_options);
  PPS_CHECK_OK(server.Listen(0));
  const uint16_t port = server.port();
  const uint16_t admin_port = server.admin_port();
  PPS_CHECK(admin_port != 0) << "admin endpoint did not start";
  Status serve_status;
  std::thread server_thread([&] { serve_status = server.Serve(); });
  phases.Mark("listen");

  StartGate gate(sessions);
  const size_t per_session_max =
      options.max_inferences > 0
          ? (static_cast<size_t>(options.max_inferences) + sessions - 1) /
                sessions
          : 0;
  std::vector<SessionResult> results(sessions);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < sessions; ++c) {
    clients.emplace_back([&, c] {
      SessionResult& res = results[c];
      const double h0 = NowSeconds();
      std::unique_ptr<TcpTransport> transport;
      {
        Span span("net.TcpTransport.Connect");
        auto t = TcpTransport::Connect("127.0.0.1", port, keys.public_key);
        PPS_CHECK_OK(t.status());
        transport = std::move(t).value();
      }
      res.handshake_seconds = NowSeconds() - h0;
      DataProvider::Options dp_options;
      dp_options.prefill = true;
      auto dp = std::make_shared<DataProvider>(
          transport->view_plan(), keys, options.seed * 100 + c, dp_options);
      const uint64_t prefill = dp->PoolStatsForTesting().produced;
      TracedModelProvider mp(transport->model_provider());
      TracedDataProvider traced_dp(dp);
      size_t next = c;  // sessions interleave over the input pool
      auto infer = [&](uint64_t id, bool timed) {
        const size_t index = next % in.pool.size();
        next += sessions;
        const double mp0 = mp.call_seconds(), dp0 = traced_dp.call_seconds();
        const double start = NowSeconds();
        Result<DoubleTensor> out = [&] {
          Span span("request.RunProtocolInference", id);
          return RunProtocolInference(mp, traced_dp, id, in.pool[index]);
        }();
        const double latency = NowSeconds() - start;
        ++res.attempted;
        if (!out.ok()) {
          ++res.failed;
          std::fprintf(stderr, "OPERATION FAILED: tcp inference: %s\n",
                       out.status().ToString().c_str());
          return;
        }
        res.outputs.emplace_back(index, std::move(out).value());
        if (!timed) return;
        res.latencies.push_back(latency);
        const double calls =
            (mp.call_seconds() - mp0) + (traced_dp.call_seconds() - dp0);
        res.min_coverage = std::min(res.min_coverage, calls / latency);
        if (options.trace && (calls > latency || calls < 0.95 * latency)) {
          res.coverage_failures.push_back(
              "request " + std::to_string(id) + ": decorated calls cover " +
              std::to_string(calls / latency) + " of its wall latency");
        }
      };
      uint64_t id = 1000000 * (c + 1);
      while (dp->PoolStatsForTesting().hits +
                 dp->PoolStatsForTesting().misses <
             prefill) {
        infer(++id, /*timed=*/false);
      }
      gate.ArriveAndWait();
      const TransportStats s0 = transport->stats();
      const double rpc0 = mp.call_seconds();
      const double enc0 = mp.enclosing_seconds();
      const double deadline = gate.deadline();
      while (per_session_max > 0 ? res.window_n < per_session_max
                                 : NowSeconds() < deadline) {
        infer(++id, /*timed=*/true);
        ++res.window_n;
        res.last_done = NowSeconds();
      }
      const TransportStats s1 = transport->stats();
      res.rpc_seconds = mp.call_seconds() - rpc0;
      res.enclosing_seconds = mp.enclosing_seconds() - enc0;
      res.frames = (s1.frames_sent - s0.frames_sent) +
                   (s1.frames_received - s0.frames_received);
      res.bytes = (s1.bytes_sent - s0.bytes_sent) +
                  (s1.bytes_received - s0.bytes_received);
      transport->Close();
    });
  }

  gate.WaitAllArrived();
  phases.Mark("sessions+prefill+warm-up");
  phases.Print();
  obs::Histogram* server_seconds =
      obs::MetricsRegistry::Global().GetHistogram("serving.request_seconds");
  const double t0 = NowSeconds();
  v["setup_s"] = SecondsSinceProcessStart() - in.seconds;
  const double cpu0 = ProcessCpuSeconds();
  const Counts window0 = Counts::Read();
  const double server0 = server_seconds->Sum();
  const uint64_t server_n0 = server_seconds->Count();
  gate.Open(t0 + options.seconds);

  // One /metrics scrape mid-window.
  if (options.max_inferences == 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options.seconds / 2));
  }
  const double scrape0 = NowSeconds();
  std::string response;
  {
    Span span("obs.AdminServer.metrics");
    response = AdminGet(admin_port, "/metrics");
  }
  v["obs.metrics_scrape_ms"] = 1e3 * (NowSeconds() - scrape0);
  const size_t split = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.0 200", 0) != 0 || split == std::string::npos) {
    report->CheckFailed("/metrics scrape failed: " + response.substr(0, 64));
  } else {
    const std::string body = response.substr(split + 4);
    v["obs.metrics_bytes"] = static_cast<double>(body.size());
    const Status prom = obs::CheckPrometheusText(body);
    if (!prom.ok()) {
      report->CheckFailed("/metrics body is not valid Prometheus text: " +
                          prom.ToString());
    }
  }

  for (std::thread& t : clients) t.join();
  const double cpu1 = ProcessCpuSeconds();
  const Counts window = Counts::Read() - window0;
  const double server_total = server_seconds->Sum() - server0;
  const uint64_t server_n = server_seconds->Count() - server_n0;
  server.BeginDrain(/*grace_seconds=*/1.0);
  server_thread.join();
  PPS_CHECK_OK(serve_status);

  // ---- checks
  size_t window_n = 0;
  double rate = 0, rpc = 0, enclosing = 0, handshake = 0, min_coverage = 1;
  uint64_t frames = 0, bytes = 0;
  std::vector<double> latencies;
  References refs(*plan, in, report);
  for (size_t c = 0; c < sessions; ++c) {
    const SessionResult& res = results[c];
    report->attempted += res.attempted;
    for (size_t f = 0; f < res.failed; ++f) {
      report->OperationFailed("tcp inference (session " + std::to_string(c) +
                              ")");
    }
    for (size_t i = 0; i < res.outputs.size(); ++i) {
      CheckOutput(*plan, refs.Get(res.outputs[i].first),
                  res.outputs[i].second,
                  c == 0 && i == 0 ? options.tamper : Tamper::kNone,
                  "session " + std::to_string(c) + " inference " +
                      std::to_string(i),
                  report);
    }
    for (const std::string& f : res.coverage_failures) report->CheckFailed(f);
    min_coverage = std::min(min_coverage, res.min_coverage);
    window_n += res.window_n;
    if (res.window_n > 0) rate += res.window_n / (res.last_done - t0);
    rpc += res.rpc_seconds;
    enclosing += res.enclosing_seconds;
    handshake += res.handshake_seconds / sessions;
    frames += res.frames;
    bytes += res.bytes;
    latencies.insert(latencies.end(), res.latencies.begin(),
                     res.latencies.end());
  }
  if (window_n == 0) {
    report->CheckFailed("no inference completed inside the timed window");
    return;
  }
  const obs::RequestCostBudget price = ExpectedRequestCost(*plan);
  CheckCount("crypto.scalar_muls over " + std::to_string(window_n) +
                 " windowed inferences",
             window.scalar_muls, window_n * price.scalar_muls, options.tamper,
             report);
  CheckCount("crypto.encrypts over " + std::to_string(window_n) +
                 " windowed inferences",
             window.encrypts, window_n * price.encrypts, Tamper::kNone, report);
  CheckCount("serving.request_seconds samples", server_n, window_n,
             Tamper::kNone, report);
  if (server_total > enclosing) {
    report->CheckFailed("server-side request time " +
                        std::to_string(server_total) +
                        " s exceeds the client-side interval " +
                        std::to_string(enclosing) + " s");
  }

  // ---- metrics
  const double n = static_cast<double>(window_n);
  v["inferences_per_s"] = rate;
  v["trace.inferences_per_s"] = rate;
  v["latency_p50_ms"] = 1e3 * Median(latencies);
  v["cpu_ms_per_inference"] = 1e3 * (cpu1 - cpu0) / n;
  v["peak_heap_mb"] = PeakHeapMb();
  v["party_bytes_per_inference"] = bytes / n;
  AddCryptoMetrics(window, n, window, n, &v);
  const double t1 = NowSeconds();
  auto per_inf_ms = [&](std::initializer_list<const char*> names) {
    return SpanMsPerInference(names, t0, t1, n);
  };
  v["core.dp.encrypt_ms_per_inference"] = per_inf_ms({"core.dp.EncryptInput"});
  v["core.dp.decrypt_nonlinear_ms_per_inference"] =
      per_inf_ms({"core.dp.ProcessIntermediate", "core.dp.ProcessFinal"});
  v["net.rpc_ms_per_inference"] = 1e3 * rpc / n;
  v["net.server_ms_per_inference"] = 1e3 * server_total / n;
  v["net.frames_per_inference"] = frames / n;
  v["net.handshake_ms"] = 1e3 * handshake;
  v["obs.cost_reconciled_ratio"] =
      Ratio(window.reconciled, window.reconciled + window.contended);
  if (options.trace) AddBignumMetrics(keys.public_key, &v);
  std::printf("window: %zu inferences over %zu sessions, p50 %.1f ms",
              window_n, sessions, 1e3 * Median(latencies));
  if (latencies.size() >= 100) {
    std::printf(", p90 %.1f ms", 1e3 * Quantile(latencies, 0.90));
  }
  if (options.trace) {
    std::printf(", decorated calls cover >= %.4f of each latency",
                min_coverage);
  }
  std::printf("\n");
  Emit(options, v, report);
}

}  // namespace ppbench
