// Microbenchmarks of the compression kernels (google-benchmark).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "compress/acpsgd.h"
#include "compress/powersgd.h"
#include "compress/sign.h"
#include "compress/topk.h"
#include "linalg/orthogonalize.h"
#include "linalg/qr.h"
#include "tensor/rng.h"

using namespace acps;

namespace {

std::vector<float> Grad(size_t n) {
  Rng rng(n);
  std::vector<float> g(n);
  for (auto& v : g) v = rng.normal();
  return g;
}

void BM_SignEncode(benchmark::State& state) {
  bench::OracleGate("sign");
  const auto g = Grad(static_cast<size_t>(state.range(0)));
  compress::SignCompressor c;
  for (auto _ : state) {
    auto blob = c.Encode(g);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SignEncode)->Arg(1 << 14)->Arg(1 << 18);

// The definitional exact selection (nth_element), the reference the
// sampled encode below avoids.
void BM_TopkSelectExact(benchmark::State& state) {
  bench::OracleGate("topk:0.001");
  const auto g = Grad(static_cast<size_t>(state.range(0)));
  compress::TopkCompressor c(0.001);
  const size_t k = c.KeptCount(g.size());
  for (auto _ : state) {
    auto idx = c.SelectExact(g, k);
    benchmark::DoNotOptimize(idx.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TopkSelectExact)->Arg(1 << 16);

void BM_TopkEncodeSampled(benchmark::State& state) {
  bench::OracleGate("topk:0.001");
  const auto g = Grad(static_cast<size_t>(state.range(0)));
  compress::TopkCompressor c(0.001);
  for (auto _ : state) {
    auto blob = c.Encode(g);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TopkEncodeSampled)->Arg(1 << 16);

void BM_ReducedQr(benchmark::State& state) {
  Rng rng(7);
  Tensor a({state.range(0), state.range(1)});
  rng.fill_normal(a);
  for (auto _ : state) {
    auto qr = ReducedQr(a);
    benchmark::DoNotOptimize(qr.q.data().data());
  }
}
BENCHMARK(BM_ReducedQr)->Args({512, 4})->Args({2048, 4})->Args({512, 32});

void BM_GramSchmidt(benchmark::State& state) {
  Rng rng(7);
  Tensor base({state.range(0), state.range(1)});
  rng.fill_normal(base);
  for (auto _ : state) {
    Tensor a = base.clone();
    OrthogonalizeGramSchmidt(a);
    benchmark::DoNotOptimize(a.data().data());
  }
}
BENCHMARK(BM_GramSchmidt)->Args({512, 4})->Args({512, 32});

void BM_PowerSgdStep(benchmark::State& state) {
  Rng rng(9);
  Tensor grad({state.range(0), state.range(1)});
  rng.fill_normal(grad);
  compress::PowerSgdConfig cfg;
  cfg.rank = 4;
  compress::PowerSgd psgd(cfg);
  const compress::AllReduceMeanFn id = [](std::span<float>) {};
  for (auto _ : state) {
    Tensor m = grad.clone();
    psgd.Step(0, m, id);
    benchmark::DoNotOptimize(m.data().data());
  }
}
BENCHMARK(BM_PowerSgdStep)->Args({256, 256})->Args({512, 128});

void BM_AcpSgdStep(benchmark::State& state) {
  Rng rng(9);
  Tensor grad({state.range(0), state.range(1)});
  rng.fill_normal(grad);
  compress::AcpSgdConfig cfg;
  cfg.rank = 4;
  compress::AcpSgd acp(cfg);
  const compress::AllReduceMeanFn id = [](std::span<float>) {};
  for (auto _ : state) {
    Tensor m = grad.clone();
    acp.Step(0, m, id);
    benchmark::DoNotOptimize(m.data().data());
  }
}
BENCHMARK(BM_AcpSgdStep)->Args({256, 256})->Args({512, 128});

}  // namespace
