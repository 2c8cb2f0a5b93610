// Per-layer probes for the traced run: each layer's public entry points
// are called directly on the shapes the workloads use, and timed from
// outside with medians over repetitions.
#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "comm/communicator.h"
#include "comm/session.h"
#include "compress/acpsgd.h"
#include "compress/powersgd.h"
#include "compress/registry.h"
#include "dnn/dataset.h"
#include "dnn/loss.h"
#include "dnn/mini_models.h"
#include "dnn/network.h"
#include "dnn/optimizer.h"
#include "linalg/orthogonalize.h"
#include "models/model_zoo.h"
#include "par/thread_pool.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"

namespace perfbench {

using namespace acps;

namespace {

// Median wall-clock (ms) of `reps` calls of fn, after `warmup` untimed ones.
double TimeMs(int reps, int warmup, const std::function<void()>& fn) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(Millis(Clock::now() - t0));
  }
  return Median(ms);
}

double Gbps(double bytes, double ms) { return bytes / (ms * 1e6); }

void ProbeDnn(uint64_t seed, Result& result) {
  dnn::SyntheticSpec data;
  data.noise = 1.2f;
  dnn::MiniModelSpec ms;
  dnn::Network net = dnn::MiniByName("res-mini", ms);
  net.Init(seed);
  const dnn::Dataset train = dnn::MakeSynthetic(data, 32, 1);
  const dnn::Dataset test = dnn::MakeSynthetic(data, 512, 2);
  Tensor x, test_x;
  std::vector<int> y, test_y;
  train.Slice(0, 32, x, y);
  test.Slice(0, test.size(), test_x, test_y);
  dnn::SgdOptimizer opt(net.params(), dnn::LrSchedule{0.01f, 3, {}, 0.1f},
                        0.9f);

  std::vector<double> fwd, bwd, sgd;
  for (int i = 0; i < 60; ++i) {
    net.ZeroGrads();
    const Clock::time_point t0 = Clock::now();
    const Tensor logits = net.Forward(x);
    const Clock::time_point t1 = Clock::now();
    const dnn::LossResult loss = dnn::SoftmaxCrossEntropy(logits, y);
    (void)net.Backward(loss.grad_logits);
    const Clock::time_point t2 = Clock::now();
    opt.Step(0.5);
    const Clock::time_point t3 = Clock::now();
    if (i < 10) continue;  // warm-up
    fwd.push_back(Millis(t1 - t0));
    bwd.push_back(Millis(t2 - t1));
    sgd.push_back(Millis(t3 - t2));
  }
  result.Add("dnn.forward_ms", Median(fwd), "ms");
  result.Add("dnn.backward_ms", Median(bwd), "ms");
  result.Add("dnn.sgd_step_ms", Median(sgd), "ms");
  result.Add("dnn.eval_ms", TimeMs(15, 2, [&] {
               const Tensor logits = net.Forward(test_x);
               (void)dnn::Accuracy(logits, test_y);
             }),
             "ms");
}

// ResNet-50's low-rank matrices, as views into one gradient buffer.
struct Matrices {
  std::vector<ParamShape> shapes;
  std::vector<int64_t> offsets;
};

Matrices ResNet50Matrices() {
  Matrices m;
  int64_t off = 0;
  for (const auto& l : models::ResNet50().layers) {
    const ParamShape s{l.numel(), l.matrix_rows, l.matrix_cols};
    if (s.rows * s.cols == s.numel && LowRank(s, 4)) {
      m.shapes.push_back(s);
      m.offsets.push_back(off);
    }
    off += s.numel;
  }
  return m;
}

void ProbeCompress(const std::vector<float>& grad, const Matrices& mats,
                   Result& result) {
  const double bytes = static_cast<double>(grad.size() * sizeof(float));
  std::vector<float> decoded(grad.size());
  for (const std::string& spec : compress::KnownCompressors()) {
    auto c = compress::MakeCompressor(spec);
    std::vector<std::byte> blob(c->EncodedBytes(grad.size()));
    const double enc = TimeMs(3, 1, [&] { c->EncodeInto(grad, blob); });
    const double dec = TimeMs(3, 1, [&] { c->Decode(blob, decoded); });
    // Metric names allow no ':'; "topk:0.001" reports as "topk_0.001".
    std::string name = spec;
    std::replace(name.begin(), name.end(), ':', '_');
    result.Add("compress.encode_gbps." + name, Gbps(bytes, enc), "GB/s");
    result.Add("compress.decode_gbps." + name, Gbps(bytes, dec), "GB/s");
  }

  std::vector<Tensor> ms, outs;
  for (size_t i = 0; i < mats.shapes.size(); ++i) {
    const ParamShape& s = mats.shapes[i];
    ms.push_back(Tensor::FromSpan(
        {s.rows, s.cols},
        std::span<const float>(grad).subspan(static_cast<size_t>(mats.offsets[i]),
                                             static_cast<size_t>(s.numel))));
    outs.push_back(Tensor({s.rows, s.cols}));
  }
  // ACP-SGD: one local step (compute + EF) and one finish (reconstruction)
  // per matrix; the first step allocates state and is not counted.
  compress::AcpSgdConfig acfg;
  acfg.rank = 4;
  compress::AcpSgd acp(acfg);
  std::vector<double> local_ms, finish_ms;
  for (int step = 0; step < 5; ++step) {
    double local = 0.0, finish = 0.0;
    for (size_t i = 0; i < ms.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      (void)acp.LocalStep(static_cast<int64_t>(i), ms[i]);
      const Clock::time_point t1 = Clock::now();
      acp.Finish(static_cast<int64_t>(i), outs[i]);
      local += Millis(t1 - t0);
      finish += Millis(Clock::now() - t1);
    }
    if (step == 0) continue;
    local_ms.push_back(local);
    finish_ms.push_back(finish);
  }
  result.Add("compress.acpsgd_local_ms", Median(local_ms), "ms");
  result.Add("compress.acpsgd_finish_ms", Median(finish_ms), "ms");

  // Power-SGD's full blocking step with a single-process (identity) mean.
  compress::PowerSgdConfig pcfg;
  pcfg.rank = 4;
  compress::PowerSgd psgd(pcfg);
  const compress::AllReduceMeanFn identity = [](std::span<float>) {};
  std::vector<double> step_ms;
  for (int step = 0; step < 4; ++step) {
    double t = 0.0;
    for (size_t i = 0; i < ms.size(); ++i) {
      outs[i].copy_from(ms[i]);
      const Clock::time_point t0 = Clock::now();
      psgd.Step(static_cast<int64_t>(i), outs[i], identity);
      t += Millis(Clock::now() - t0);
    }
    if (step > 0) step_ms.push_back(t);
  }
  result.Add("compress.powersgd_step_ms", Median(step_ms), "ms");
}

void ProbeLinalgTensor(const std::vector<float>& grad, const Matrices& mats,
                       uint64_t seed, Result& result) {
  Rng rng(Mix(seed + 7));
  std::vector<Tensor> p, p0, q;
  for (const ParamShape& s : mats.shapes) {
    const int64_t r = std::min<int64_t>({4, s.rows, s.cols});
    Tensor a({s.rows, r}), b({s.cols, r});
    for (float& x : a.data()) x = rng.normal();
    for (float& x : b.data()) x = rng.normal();
    p0.push_back(a.clone());
    p.push_back(std::move(a));
    q.push_back(std::move(b));
  }
  std::vector<double> ortho;
  for (int rep = 0; rep < 6; ++rep) {
    double t = 0.0;
    for (size_t i = 0; i < p.size(); ++i) {
      p[i].copy_from(p0[i]);
      const Clock::time_point t0 = Clock::now();
      Orthogonalize(p[i]);
      t += Millis(Clock::now() - t0);
    }
    if (rep > 0) ortho.push_back(t);
  }
  result.Add("linalg.orthogonalize_ms", Median(ortho), "ms");

  // P = M * Q over every matrix, M viewed in place in the gradient buffer.
  result.Add("tensor.gemm_lowrank_ms", TimeMs(5, 1, [&] {
               for (size_t i = 0; i < mats.shapes.size(); ++i) {
                 const ParamShape& s = mats.shapes[i];
                 const int64_t r = q[i].cols();
                 Gemm(std::span<const float>(grad).subspan(
                          static_cast<size_t>(mats.offsets[i]),
                          static_cast<size_t>(s.numel)),
                      q[i].data(), p[i].data(), s.rows, s.cols, r);
               }
             }),
             "ms");

  // The error-feedback add: y += x over a full gradient (read x, read and
  // write y).
  std::vector<float> y(grad.size(), 0.0f);
  const double ms = TimeMs(8, 1, [&] { Axpy(1.0f, grad, y); });
  result.Add("tensor.axpy_gbps",
             Gbps(3.0 * static_cast<double>(grad.size() * sizeof(float)), ms),
             "GB/s");
}

// Collective probes at p = 4, each timed inside one Session::Run on rank 0
// between barriers.
void ProbeComm(size_t grad_numel, Result& result) {
  constexpr int kWorld = 4;
  comm::Transport transport;
  comm::Session session(transport, "probe", kWorld);
  const size_t large = (25u << 20) / sizeof(float);  // 25 MiB
  const size_t small = (64u << 10) / sizeof(float);  // 64 KiB
  auto topk = compress::MakeCompressor("topk:0.001");
  auto sign = compress::MakeCompressor("sign");
  const size_t topk_blob = topk->EncodedBytes(grad_numel);
  const size_t sign_blob = sign->EncodedBytes(grad_numel);
  double allreduce_ms = 0, allgather_ms = 0, small_us = 0, barrier_us = 0;

  session.Run([&](comm::Communicator& comm) {
    std::vector<float> big(large, 0.0f), little(small, 0.0f);
    std::vector<std::byte> sblob(sign_blob), tblob(topk_blob);
    std::vector<std::byte> sgath(sign_blob * kWorld), tgath(topk_blob * kWorld);
    const auto timed = [&](int reps, const std::function<void()>& fn) {
      fn();  // warm-up
      comm.barrier();
      const Clock::time_point t0 = Clock::now();
      for (int i = 0; i < reps; ++i) fn();
      comm.barrier();
      return Millis(Clock::now() - t0) / reps;
    };
    const double a = timed(8, [&] { comm.all_reduce(big); });
    const double g = timed(8, [&] {
      comm.all_gather_bytes(sblob, sgath);
      comm.all_gather_bytes(tblob, tgath);
    });
    const double s = timed(300, [&] { comm.all_reduce(little); });
    const double b = timed(2000, [&] { comm.barrier(); });
    if (comm.rank() == 0) {
      allreduce_ms = a;
      allgather_ms = g;
      small_us = s * 1e3;
      barrier_us = b * 1e3;
    }
  });
  result.Add("comm.allreduce_gbps",
             Gbps(static_cast<double>(large * sizeof(float)), allreduce_ms),
             "GB/s");
  result.Add("comm.allgather_gbps",
             Gbps(static_cast<double>(kWorld * (sign_blob + topk_blob)),
                  allgather_ms),
             "GB/s");
  result.Add("comm.allreduce_small_us", small_us, "us");
  result.Add("comm.barrier_us", barrier_us, "us");
}

}  // namespace

void RunLayerProbes(const Options& opt, Result& result) {
  par::SetNumThreads(1);
  ProbeDnn(Mix(opt.seed), result);

  const Matrices mats = ResNet50Matrices();
  int64_t total = 0;
  for (const auto& l : models::ResNet50().layers) total += l.numel();
  std::vector<float> grad(static_cast<size_t>(total));
  Rng rng(Mix(opt.seed + 3));
  for (float& x : grad) x = rng.normal();

  ProbeCompress(grad, mats, result);
  ProbeLinalgTensor(grad, mats, opt.seed, result);
  ProbeComm(grad.size(), result);
}

}  // namespace perfbench
