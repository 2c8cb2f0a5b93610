// The three workloads. Each drives the library only through its public
// entry points (TrainingService, TrainDistributed, MakeAggregatorFactory,
// Session/Communicator) and times the layers from outside.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "comm/session.h"
#include "core/trainer.h"
#include "core/training_service.h"
#include "models/model_zoo.h"
#include "obs/tracer.h"
#include "par/thread_pool.h"
#include "sim/pipeline.h"
#include "tensor/rng.h"
#include "timed_aggregator.h"

namespace perfbench {

using namespace acps;

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

namespace {

// Kernel-pool threads: one per rank, so the ranks' own threads fill the
// cores. This is par::WorkerThreadBudget(0, 4) on a 4-core host, pinned so
// that the figures do not follow the host's core count.
constexpr int kPoolThreads = 1;

// Rank-0 collective time (ms) inside each traced step window that no other
// job's Aggregate window overlaps. Collectives are issued only inside
// Aggregate, so such a window holds this job's spans alone. Returns
// (step, ms) pairs.
std::vector<std::pair<size_t, double>> CommMsPerStep(
    const StepLog& log, const std::vector<obs::SpanEvent>& spans,
    const std::vector<std::pair<int64_t, int64_t>>& foreign) {
  std::vector<std::pair<size_t, double>> out;
  for (size_t k = 0; k < log.steps(); ++k) {
    if (!log.traced[k]) continue;
    const int64_t b = log.enter_us[k], e = log.exit_us[k];
    const bool shared = std::any_of(
        foreign.begin(), foreign.end(),
        [&](const auto& w) { return w.first < e && w.second > b; });
    if (shared) continue;
    int64_t us = 0;
    auto it = std::lower_bound(
        spans.begin(), spans.end(), b,
        [](const obs::SpanEvent& s, int64_t t) { return s.begin_us < t; });
    for (; it != spans.end() && it->begin_us < e; ++it)
      if (it->end_us <= e) us += it->end_us - it->begin_us;
    out.emplace_back(k, static_cast<double>(us) / 1000.0);
  }
  return out;
}

// Rank-0 collective spans (barriers excluded), sorted by start.
std::vector<obs::SpanEvent> CollectiveSpans(const obs::Tracer& tracer) {
  std::vector<obs::SpanEvent> spans;
  for (auto& s : tracer.Snapshot()) {
    if (s.worker == 0 && s.category == obs::kCatComm && s.name != "barrier")
      spans.push_back(std::move(s));
  }
  std::sort(spans.begin(), spans.end(),
            [](const auto& a, const auto& b) { return a.begin_us < b.begin_us; });
  return spans;
}

// Per-method layer figures gathered across all of that method's logs.
struct MethodLayers {
  std::vector<double> fwdbwd_ms, agg_ms, comm_ms;  // traced, attributable steps
  std::vector<double> step_traced_ms, step_plain_ms;
  std::vector<double> wire_bytes, collectives;      // per rank per step
  int64_t lowrank = 0;
};

void AddCounts(const StepLog& log, int world, MethodLayers& m) {
  for (size_t k = 0; k < log.steps(); ++k) {
    uint64_t bytes = 0, coll = 0;
    for (int r = 0; r < world; ++r) {
      bytes += log.bytes[static_cast<size_t>(r)][k];
      coll += log.collectives[static_cast<size_t>(r)][k];
    }
    m.wire_bytes.push_back(static_cast<double>(bytes) / world);
    m.collectives.push_back(static_cast<double>(coll) / world);
  }
}

// Mean of per-rank-step counts (deterministic per method), 0 when empty.
double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// The per-layer metrics both kinds of workload report from their own runs.
void ReportMethodLayers(const std::map<std::string, MethodLayers>& layers,
                        Result& result) {
  double overhead = 0.0;
  for (const auto& spec : Methods()) {
    const std::string key = MethodKey(spec);
    const MethodLayers& m = layers.at(spec);
    const double agg = Median(m.agg_ms), comm = Median(m.comm_ms);
    result.Add("breakdown.fwdbwd_ms." + key, Median(m.fwdbwd_ms), "ms");
    result.Add("breakdown.compress_ms." + key, agg - comm, "ms");
    result.Add("breakdown.comm_ms." + key, comm, "ms");
    const double collectives = Mean(m.collectives);
    // Bucketed collectives: all but Power-SGD's two per compressed matrix.
    result.Add("fusion.buckets_per_step." + key,
               collectives - (key == "powersgd" ? 2.0 * m.lowrank : 0.0),
               "count");
    result.Add("comm.wire_mb_per_step." + key, Mean(m.wire_bytes) / 1e6, "MB");
    result.Add("comm.collectives_per_step." + key, collectives, "count");
    overhead += Median(m.step_traced_ms) - Median(m.step_plain_ms);
  }
  result.Add("trace.overhead_ms",
             overhead / static_cast<double>(Methods().size()), "ms");
}

sim::Method SimMethod(const std::string& spec) {
  const std::string key = MethodKey(spec);
  if (key == "ssgd") return sim::Method::kSSGD;
  if (key == "powersgd") return sim::Method::kPowerSGD;
  if (key == "acpsgd") return sim::Method::kACPSGD;
  if (key == "topk") return sim::Method::kTopkSGD;
  return sim::Method::kSignSGD;
}

// Measured breakdown beside the simulator's for the same model, method and
// world size. The simulator is calibrated for GPUs on 10GbE: compare
// orderings, not absolute times.
void PrintSimComparison(const models::ModelSpec& model, int world, int batch,
                        const std::map<std::string, MethodLayers>& layers) {
  std::printf(
      "breakdown %s p=%d (ms/step): measured fwdbwd compress comm | "
      "sim::SimulateIterationAvg (GPU, 10GbE, aggregate after BP) fwdbwd "
      "compress comm_exposed total\n",
      model.name.c_str(), world);
  for (const auto& spec : Methods()) {
    const MethodLayers& m = layers.at(spec);
    sim::SimConfig cfg;
    cfg.method = SimMethod(spec);
    cfg.sysopt = sim::SysOptLevel::kNaive;
    cfg.world_size = world;
    cfg.batch_size = batch;
    cfg.rank = 4;
    cfg.topk_ratio = 0.001;
    const sim::Breakdown b = sim::SimulateIterationAvg(model, cfg);
    const double agg = Median(m.agg_ms), comm = Median(m.comm_ms);
    std::printf("  %-11s %9.3f %9.3f %9.3f | %9.3f %9.3f %9.3f %9.3f\n",
                spec.c_str(), Median(m.fwdbwd_ms), agg - comm, comm,
                b.fwdbwd_s * 1e3, b.compress_s * 1e3, b.comm_exposed_s * 1e3,
                b.total_ms());
  }
}

void PrintTails(const std::map<std::string, std::vector<double>>& steps) {
  std::printf("tail (not bounded):");
  for (const auto& spec : Methods()) {
    const auto& v = steps.at(spec);
    std::printf(" step_ms_p90.%s=%.3f", MethodKey(spec).c_str(),
                Quantile(v, 0.9));
  }
  std::printf(" ms\n");
}

}  // namespace

// ---------------------------------------------------------------------------
// aggregate-resnet50-p4: repeated Aggregate calls on ResNet-50's parameter
// shapes at world 4, one step of each method per round.

void RunAggregateResnet50(const Options& opt, Result& result) {
  constexpr int kWorld = 4;
  constexpr int64_t kRank = 4;
  par::SetNumThreads(kPoolThreads);

  const models::ModelSpec model = models::ResNet50();
  std::vector<ParamShape> shapes;
  std::vector<int64_t> offsets;
  int64_t total = 0;
  for (const auto& l : model.layers) {
    ParamShape s{l.numel(), l.matrix_rows, l.matrix_cols};
    if (s.rows * s.cols != s.numel) s.rows = s.cols = 0;
    shapes.push_back(s);
    offsets.push_back(total);
    total += s.numel;
  }
  std::vector<size_t> lowrank;  // indices of the matrices low-rank compresses
  for (size_t i = 0; i < shapes.size(); ++i)
    if (LowRank(shapes[i], kRank)) lowrank.push_back(i);
  const int64_t topk_limit = TopkNonzeroLimit("topk:0.001", total, kWorld);

  obs::Tracer tracer;
  core::ServiceConfig scfg;
  scfg.max_concurrent_jobs = 1;
  scfg.max_total_ranks = kWorld;
  if (opt.trace) scfg.tracer = &tracer;
  core::TrainingService service(scfg);

  const auto& methods = Methods();
  const size_t num_methods = methods.size();
  std::vector<std::unique_ptr<StepLog>> logs;
  for (size_t m = 0; m < num_methods; ++m)
    logs.push_back(std::make_unique<StepLog>(kWorld));

  std::vector<std::vector<float>> orig(kWorld);  // drawn once per rank
  std::vector<std::vector<dnn::Param>> params(kWorld);
  std::vector<std::string> errors(kWorld);
  std::atomic<int64_t> nonzeros{0};
  std::atomic<bool> stop{false};
  Clock::time_point timed_start{}, body_start{};
  double timed_s = 0.0;
  int rounds = 0;

  core::JobSpec spec;
  spec.name = "aggregate-resnet50";
  spec.world_size = kWorld;
  const Clock::time_point submit = Clock::now();
  const core::JobRecord record = service.RunJob(spec, [&](comm::Session& session) {
    body_start = Clock::now();
    session.Run([&](comm::Communicator& comm) {
      const int rank = comm.rank();
      const auto ur = static_cast<size_t>(rank);
      std::vector<float>& flat = orig[ur];
      flat.resize(static_cast<size_t>(total));
      Rng rng = Rng(Mix(opt.seed)).split(static_cast<uint64_t>(rank));
      for (float& x : flat) x = rng.normal();

      std::vector<dnn::Param>& ps = params[ur];
      ps.resize(shapes.size());
      std::vector<dnn::Param*> ptrs;
      for (size_t i = 0; i < shapes.size(); ++i) {
        dnn::Param& p = ps[i];
        p.name = model.layers[i].name;
        p.matrix_rows = shapes[i].rows;
        p.matrix_cols = shapes[i].cols;
        p.grad = shapes[i].rows > 0 ? Tensor({shapes[i].rows, shapes[i].cols})
                                    : Tensor({shapes[i].numel});
        ptrs.push_back(&p);
      }
      std::vector<std::unique_ptr<core::GradientAggregator>> aggs;
      for (size_t m = 0; m < num_methods; ++m)
        aggs.push_back(Timed(core::MakeAggregatorFactory(methods[m]),
                             logs[m].get())(rank, kWorld));

      const auto restore = [&] {
        for (size_t i = 0; i < shapes.size(); ++i) {
          std::memcpy(ps[i].grad.data().data(), flat.data() + offsets[i],
                      static_cast<size_t>(shapes[i].numel) * sizeof(float));
        }
      };
      // Checks on this rank's share of the parameters; every rank's output
      // is compared against rank 0's, so the shares cover the whole step.
      const auto check = [&](size_t m, uint64_t step_no) {
        const std::string key = MethodKey(methods[m]);
        std::string err;
        int64_t nz = 0;
        for (size_t i = ur; i < shapes.size() && err.empty(); i += kWorld) {
          const auto out0 = params[0][i].grad.data();
          for (size_t r = 1; r < kWorld && err.empty(); ++r)
            err = CheckIdentical(out0, params[r][i].grad.data());
          if (err.empty() && key == "ssgd") {
            std::vector<std::span<const float>> inputs;
            for (size_t r = 0; r < kWorld; ++r)
              inputs.emplace_back(orig[r].data() + offsets[i],
                                  static_cast<size_t>(shapes[i].numel));
            err = CheckMean(out0, inputs);
          }
          if (key == "topk") nz += CountNonzeros(out0);
        }
        if (err.empty() && (key == "powersgd" || key == "acpsgd")) {
          for (size_t j = 0; j < 2 && err.empty(); ++j) {
            const size_t i =
                lowrank[(step_no * 2 * kWorld + ur * 2 + j) % lowrank.size()];
            err = CheckRankAtMost(ps[i].grad.data(), shapes[i].rows,
                                  shapes[i].cols, kRank, Mix(step_no + i));
          }
        }
        errors[ur] = err;
        nonzeros += nz;
      };
      const auto sweep = [&](bool timed) {
        for (size_t m = 0; m < num_methods; ++m) {
          restore();
          comm.barrier();
          const Clock::time_point t0 = Clock::now();
          aggs[m]->Aggregate(ptrs, comm);
          comm.barrier();
          if (rank == 0 && timed) timed_s += Seconds(Clock::now() - t0);
          const uint64_t step_no = logs[m]->bytes[ur].size();
          check(m, step_no);
          comm.barrier();
          if (rank != 0) continue;
          std::string err;
          for (const auto& e : errors)
            if (err.empty()) err = e;
          if (err.empty() && MethodKey(methods[m]) == "topk")
            err = CheckNonzerosAtMost(nonzeros.exchange(0), topk_limit);
          if (err.empty()) {
            uint64_t bytes = 0;
            for (const auto& b : logs[m]->bytes) bytes += b.back();
            err = CheckWireBytes(methods[m], bytes,
                                 ExpectedWireBytes(methods[m], shapes, kWorld,
                                                   step_no));
          }
          result.Check(err);
        }
      };

      // One untimed round first: first-touch allocations and the methods'
      // persistent state (EF residuals, low-rank factors) belong to set-up.
      sweep(false);
      if (rank == 0) timed_start = Clock::now();
      for (int round = 0;; ++round) {
        if (rank == 0 && opt.trace) {
          // Alternate rounds: traced ones give the spans, plain ones the
          // reference for the tracing overhead.
          if (round % 2 == 1) tracer.Enable(); else tracer.Disable();
        }
        comm.barrier();
        sweep(true);
        if (rank == 0) {
          rounds = round + 1;
          stop = Seconds(Clock::now() - timed_start) >= opt.seconds &&
                 (!opt.trace || rounds >= 2);
        }
        comm.barrier();
        if (stop) break;
      }
      if (rank == 0) tracer.Disable();
    });
  });
  if (record.state != core::JobState::kSucceeded) {
    result.Check("aggregation job failed: " + record.error);
    return;
  }

  // Timed steps are all but each method's first (set-up) step.
  std::map<std::string, std::vector<double>> step_ms;
  for (size_t m = 0; m < num_methods; ++m) {
    auto& v = step_ms[methods[m]];
    for (size_t k = 1; k < logs[m]->steps(); ++k)
      v.push_back(logs[m]->AggregateMs(k));
  }

  if (!opt.trace) {
    result.Add("setup_s", Seconds(timed_start - ProcessStart()), "s");
    result.Add("steps_per_s",
               static_cast<double>(rounds) * num_methods / timed_s, "1/s");
    for (const auto& s : methods)
      result.Add("step_ms." + MethodKey(s), Median(step_ms[s]), "ms");
    // No accuracy target here: the figure is the wall-clock of one round,
    // one step of each of the five methods (the Table III sum).
    result.Add("time_to_target_s", timed_s / rounds, "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    PrintTails(step_ms);
    return;
  }

  const std::vector<obs::SpanEvent> spans = CollectiveSpans(tracer);
  std::map<std::string, MethodLayers> layers;
  for (size_t m = 0; m < num_methods; ++m) {
    MethodLayers& ml = layers[methods[m]];
    const StepLog& log = *logs[m];
    ml.lowrank = LowRankCount(methods[m], shapes);
    AddCounts(log, kWorld, ml);
    for (const auto& [k, comm_ms] : CommMsPerStep(log, spans, {})) {
      if (k == 0) continue;
      ml.agg_ms.push_back(log.AggregateMs(k));
      ml.comm_ms.push_back(comm_ms);
    }
    // No forward or backward pass in this workload.
    ml.fwdbwd_ms.push_back(0.0);
    for (size_t k = 1; k < log.steps(); ++k)
      (log.traced[k] ? ml.step_traced_ms : ml.step_plain_ms)
          .push_back(log.AggregateMs(k));
  }
  ReportMethodLayers(layers, result);
  result.Add("trainer.epoch_gap_ms", 0.0, "ms");
  for (const auto& s : methods)
    result.Add("trainer.epochs_to_target." + MethodKey(s), 0.0, "count");
  result.Add("service.admit_ms", Millis(body_start - submit), "ms");
  PrintSimComparison(model, kWorld, model.default_batch_size, layers);
}

// ---------------------------------------------------------------------------
// train-resmini-p4 / -p2 / service-2x2-resmini: five TrainingService jobs
// per round, one per method, on res-mini.

namespace {

// The training task. The synthetic task (class prototypes and samples) and
// the model initialization are fixed; the run's seed draws each round's
// data order. The initialization is fixed because top-k:0.001 (ten
// coordinates per worker on res-mini's ~10K parameters) stays near chance
// from some initializations on every data order (CHANGES.md, FOUND), and a
// job that fails on some seeds only cannot be part of the workload. Tuned
// so that no method reaches the target in its first epoch and every method
// reaches it before the last. Every training workload uses a global batch
// of 128: 4 x 32 at world 4, 2 x 64 at world 2.
constexpr int kClasses = 10;
constexpr double kTargetAcc = 0.6;
constexpr double kLossMargin = 1.0;  // final loss < ln(classes) - margin
constexpr int64_t kGlobalBatch = 128;

core::TrainConfig TrainingConfig(uint64_t seed, int round, int world) {
  core::TrainConfig cfg;
  cfg.model = "res-mini";
  cfg.data.num_classes = kClasses;
  cfg.data.noise = 1.2f;
  cfg.train_samples = 2048;
  cfg.test_samples = 512;
  cfg.epochs = 8;
  cfg.batch_per_worker = static_cast<int>(kGlobalBatch / world);
  cfg.lr = dnn::LrSchedule{0.01f, /*warmup_epochs=*/3, /*decay_epochs=*/{},
                           0.1f};
  cfg.model_seed = Mix(11000);
  cfg.shuffle_seed = Mix(seed * 1000 + static_cast<uint64_t>(round) + 500);
  return cfg;
}

struct TrainJob {
  TrainJob(std::string spec_in, int world, int round_in)
      : spec(std::move(spec_in)), round(round_in), log(world, /*sample_every=*/4) {}
  std::string spec;
  int round;
  StepLog log;
  core::TrainResult train;
  core::JobHandle handle = 0;
  Clock::time_point submit{}, body_start{}, body_end{};
  bool ok = false;
};

// ResNet-style parameter list of res-mini for the simulator: the shapes as
// trained, forward FLOPs from each layer's spatial size (8x8 input, two
// 2x pools).
models::ModelSpec ResMiniModelSpec(const StepLog& log, int64_t hw) {
  models::ModelSpec spec;
  spec.name = "res-mini";
  for (size_t i = 0; i < log.shapes.size(); ++i) {
    const std::string& name = log.names[i];
    models::LayerSpec l;
    l.name = name;
    l.shape = {log.shapes[i].numel};
    l.matrix_rows = log.shapes[i].rows;
    l.matrix_cols = log.shapes[i].cols;
    l.compressible = l.matrix_rows > 1 && l.matrix_cols > 1;
    const bool conv = name.rfind("stem", 0) == 0 || name.rfind("block", 0) == 0;
    const int64_t positions = name.rfind("block2", 0) == 0 ? hw * hw / 4
                              : conv                        ? hw * hw
                                                            : 1;
    l.fwd_flops_per_sample = 2.0 * double(log.shapes[i].numel) * double(positions);
    l.op_class = !l.compressible ? models::OpClass::kElementwise
                 : conv          ? models::OpClass::kConv
                                 : models::OpClass::kGemm;
    spec.layers.push_back(l);
  }
  return spec;
}

// Correctness of one finished job: its training outcome, and every step's
// wire bytes plus, on sampled steps, the aggregated gradients.
void CheckJob(const TrainJob& job, int world, Result& result) {
  const std::string key = MethodKey(job.spec);
  const auto& h = job.train.history;
  result.Check(h.empty() ? "training check (" + job.spec + "): no epochs"
                         : CheckTrained(job.spec, h.back().train_loss,
                                        h.back().test_acc, kClasses,
                                        kLossMargin, kTargetAcc));
  const StepLog& log = job.log;
  int64_t total = 0;
  for (const auto& s : log.shapes) total += s.numel;
  for (size_t k = 0; k < log.steps(); ++k) {
    uint64_t bytes = 0;
    for (const auto& b : log.bytes) bytes += b[k];
    std::string err = CheckWireBytes(
        job.spec, bytes, ExpectedWireBytes(job.spec, log.shapes, world, k + 1));
    const size_t s = k / static_cast<size_t>(log.sample_every);
    if (err.empty() && k % static_cast<size_t>(log.sample_every) == 0) {
      const std::vector<float>& out0 = log.out[0][s];
      for (int r = 1; r < world && err.empty(); ++r)
        err = CheckIdentical(out0, log.out[static_cast<size_t>(r)][s]);
      if (err.empty() && key == "ssgd") {
        std::vector<std::span<const float>> inputs;
        for (const auto& in : log.in) inputs.emplace_back(in[s]);
        err = CheckMean(out0, inputs);
      }
      if (err.empty() && key == "topk") {
        err = CheckNonzerosAtMost(CountNonzeros(out0),
                                  TopkNonzeroLimit(job.spec, total, world));
      }
      if (key == "powersgd" || key == "acpsgd") {
        int64_t off = 0;
        for (size_t i = 0; i < log.shapes.size() && err.empty(); ++i) {
          const ParamShape& p = log.shapes[i];
          if (LowRank(p, 4)) {
            err = CheckRankAtMost(
                std::span<const float>(out0).subspan(static_cast<size_t>(off),
                                                     static_cast<size_t>(p.numel)),
                p.rows, p.cols, 4, Mix(k + i));
          }
          off += p.numel;
        }
      }
    }
    result.Check(err);
  }
}

}  // namespace

void RunTrainResmini(const Options& opt, Result& result, int world,
                     int concurrent_jobs) {
  const bool concurrent = concurrent_jobs > 1;
  par::SetNumThreads(kPoolThreads);

  // Declared before the service, whose destructor joins the job runners
  // that write into them.
  obs::Tracer tracer;
  std::vector<std::unique_ptr<TrainJob>> jobs;
  core::ServiceConfig scfg;
  scfg.max_concurrent_jobs = concurrent_jobs;
  scfg.max_total_ranks = 4;
  if (opt.trace) scfg.tracer = &tracer;
  core::TrainingService service(scfg);

  const int64_t steps_per_epoch =
      TrainingConfig(opt.seed, 0, world).train_samples / kGlobalBatch;
  // Per round: time to target, and steps of all jobs / round wall-clock.
  // Medians over rounds keep one round hit by a host stall from setting the
  // run's figure.
  std::vector<double> ttt_per_round, steps_per_s_per_round;
  Clock::time_point first_step{};

  const auto wait = [&](TrainJob& job) {
    const core::JobRecord rec = service.Wait(job.handle);
    job.ok = rec.state == core::JobState::kSucceeded && job.log.steps() > 0;
    if (!job.ok) {
      result.Check("training job " + job.spec + " failed: " + rec.error);
      return;
    }
    CheckJob(job, world, result);
    // The gradient copies are only for the checks; dropping them keeps the
    // benchmark's own memory out of peak_rss_mb as rounds accumulate.
    job.log.in.assign(static_cast<size_t>(world), {});
    job.log.out.assign(static_cast<size_t>(world), {});
  };

  // A short job first, part of set-up: thread start-up, first-touch
  // allocations and a cold CPU would otherwise land on the first timed job.
  {
    core::TrainConfig warm = TrainingConfig(opt.seed, 0, world);
    warm.train_samples = 4 * kGlobalBatch;
    warm.epochs = 2;
    core::JobSpec js;
    js.name = "warmup";
    js.world_size = world;
    (void)service.Train(js, warm);
  }

  for (int round = 0;; ++round) {
    if (opt.trace) {
      if (round % 2 == 1) tracer.Enable(); else tracer.Disable();
    }
    const size_t first = jobs.size();
    for (const auto& spec : Methods()) {
      jobs.push_back(std::make_unique<TrainJob>(spec, world, round));
      TrainJob* job = jobs.back().get();
      const core::TrainConfig cfg = TrainingConfig(opt.seed, round, world);
      core::JobSpec js;
      js.name = MethodKey(spec);
      js.world_size = world;
      js.session.compressor_spec = spec;
      job->submit = Clock::now();
      job->handle = service.Submit(js, [job, cfg](comm::Session& session) {
        job->body_start = Clock::now();
        job->train = core::TrainDistributed(
            session, cfg,
            Timed(core::MakeAggregatorFactory(session.options().compressor_spec,
                                              session.options().fusion_bytes),
                  &job->log));
        job->body_end = Clock::now();
      });
      if (!concurrent) wait(*job);
    }
    if (concurrent)
      for (size_t j = first; j < jobs.size(); ++j) wait(*jobs[j]);

    Clock::time_point start = Clock::time_point::max(), end{};
    double ttt = 0.0;
    size_t steps = 0;
    for (size_t j = first; j < jobs.size(); ++j) {
      const TrainJob& job = *jobs[j];
      if (!job.ok) continue;
      start = std::min(start, job.log.enter.front());
      end = std::max(end, job.body_end);
      steps += job.log.steps();
      // End of the first epoch that reached the target: the next epoch's
      // first Aggregate entry, or the job's end after the last epoch.
      const auto& h = job.train.history;
      for (size_t e = 0; e < h.size(); ++e) {
        if (h[e].test_acc < kTargetAcc) continue;
        const size_t next = (e + 1) * static_cast<size_t>(steps_per_epoch);
        const Clock::time_point done =
            next < job.log.steps() ? job.log.enter[next] : job.body_end;
        ttt += Seconds(done - job.log.enter.front());
        break;
      }
    }
    if (start == Clock::time_point::max()) return;  // every job failed
    if (round == 0) first_step = start;
    steps_per_s_per_round.push_back(static_cast<double>(steps) /
                                    Seconds(end - start));
    ttt_per_round.push_back(ttt);
    if (Seconds(Clock::now() - first_step) >= opt.seconds &&
        (!opt.trace || round >= 1))
      break;
  }
  tracer.Disable();

  // Rank-0 step = one Aggregate entry to the next, within an epoch.
  std::map<std::string, std::vector<double>> step_ms;
  std::map<std::string, MethodLayers> layers;
  std::vector<double> epoch_gap_ms, admit_ms;
  std::map<std::string, std::vector<double>> epochs_to_target;
  const std::vector<obs::SpanEvent> spans =
      opt.trace ? CollectiveSpans(tracer) : std::vector<obs::SpanEvent>{};
  for (const auto& job_ptr : jobs) {
    const TrainJob& job = *job_ptr;
    if (!job.ok) continue;
    const StepLog& log = job.log;
    admit_ms.push_back(Millis(job.body_start - job.submit));
    MethodLayers& ml = layers[job.spec];
    ml.lowrank = LowRankCount(job.spec, log.shapes);
    AddCounts(log, world, ml);

    std::vector<double> fwdbwd;
    for (size_t k = 1; k < log.steps(); ++k) {
      if (k % static_cast<size_t>(steps_per_epoch) == 0) continue;
      const double step = Millis(log.enter[k] - log.enter[k - 1]);
      step_ms[job.spec].push_back(step);
      fwdbwd.push_back(Millis(log.enter[k] - log.exit[k - 1]));
      (log.traced[k] ? ml.step_traced_ms : ml.step_plain_ms).push_back(step);
    }
    const double fwdbwd_median = Median(fwdbwd);
    for (size_t k = static_cast<size_t>(steps_per_epoch); k < log.steps();
         k += static_cast<size_t>(steps_per_epoch))
      epoch_gap_ms.push_back(Millis(log.enter[k] - log.exit[k - 1]) -
                             fwdbwd_median);
    const auto& h = job.train.history;
    for (size_t e = 0; e < h.size(); ++e) {
      if (h[e].test_acc >= kTargetAcc) {
        epochs_to_target[job.spec].push_back(static_cast<double>(e + 1));
        break;
      }
    }
    if (!opt.trace) continue;
    std::vector<std::pair<int64_t, int64_t>> foreign;
    for (const auto& other : jobs) {
      if (other.get() == &job || other->round != job.round || !other->ok) continue;
      for (size_t k = 0; k < other->log.steps(); ++k)
        foreign.emplace_back(other->log.enter_us[k], other->log.exit_us[k]);
    }
    for (const auto& [k, comm_ms] : CommMsPerStep(log, spans, foreign)) {
      ml.agg_ms.push_back(log.AggregateMs(k));
      ml.comm_ms.push_back(comm_ms);
      if (k > 0 && k % static_cast<size_t>(steps_per_epoch) != 0)
        ml.fwdbwd_ms.push_back(Millis(log.enter[k] - log.exit[k - 1]));
    }
  }

  if (!opt.trace) {
    result.Add("setup_s", Seconds(first_step - ProcessStart()), "s");
    result.Add("steps_per_s", Median(steps_per_s_per_round), "1/s");
    for (const auto& s : Methods())
      result.Add("step_ms." + MethodKey(s), Median(step_ms[s]), "ms");
    result.Add("time_to_target_s", Median(ttt_per_round), "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    PrintTails(step_ms);
    return;
  }
  ReportMethodLayers(layers, result);
  result.Add("trainer.epoch_gap_ms", Median(epoch_gap_ms), "ms");
  for (const auto& s : Methods())
    result.Add("trainer.epochs_to_target." + MethodKey(s),
               Median(epochs_to_target[s]), "count");
  result.Add("service.admit_ms", Median(admit_ms), "ms");
  PrintSimComparison(ResMiniModelSpec(jobs.front()->log, 8), world,
                     static_cast<int>(kGlobalBatch / world), layers);
}

}  // namespace perfbench
