// Kernel micro-benchmark + JSON baseline gate (DESIGN.md §6e).
//
// Measures the production acps::par kernels against their *Naive references
// at the paper's shapes (GEMM 4096x4096x32, the Power-SGD low-rank family
// r ∈ {1,2,4,8,32}, top-k at d = 25M) and emits median-of-N timings as JSON:
//
//   bench_kernels --out=BENCH_kernels.json          # full run (baseline)
//   bench_kernels --quick                           # CI subset, stdout
//   bench_kernels --quick --check=BENCH_kernels.json# gate vs committed file
//   bench_kernels --threads=N                       # fix the pool budget
//
// --check fails (exit 1) when any measured speedup-over-naive drops more
// than 25% below the committed baseline's, or when an acceptance kernel
// falls below its hard floor (gemm_4096x4096x32 and topk_25m >= 3x;
// gemm_tb_4096x4096x32 >= 10x — the packed-panel fast path). Speedup ratios
// — not raw ns — are compared, so the gate is stable across machines of
// different absolute speed. tools/bench_baseline.sh wraps the
// generate/check workflow.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "compress/topk.h"
#include "linalg/orthogonalize.h"
#include "linalg/qr.h"
#include "par/thread_pool.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace {

using acps::Rng;

struct CaseResult {
  double ns = 0;        // median production time
  double naive_ns = 0;  // median naive-reference time
  double speedup() const { return ns > 0 ? naive_ns / ns : 0.0; }
};

struct Case {
  std::string name;
  bool in_quick;                 // part of the CI --quick subset
  std::function<CaseResult(int reps)> run;
};

double MedianNs(int reps, const std::function<void()>& fn) {
  fn();  // warm-up (page-in, pool spin-up)
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.normal();
  return v;
}

Case GemmCase(const std::string& name, bool quick, int64_t n, int64_t k,
              int64_t m) {
  return {name, quick, [n, k, m](int reps) {
            const auto a = RandomVec(static_cast<size_t>(n * k), 1);
            const auto b = RandomVec(static_cast<size_t>(k * m), 2);
            std::vector<float> c(static_cast<size_t>(n * m), 0.0f);
            CaseResult r;
            r.ns = MedianNs(reps, [&] { acps::Gemm(a, b, c, n, k, m); });
            r.naive_ns =
                MedianNs(reps, [&] { acps::GemmNaive(a, b, c, n, k, m); });
            return r;
          }};
}

Case GemmTransBCase(const std::string& name, bool quick, int64_t n, int64_t k,
                    int64_t m) {
  return {name, quick, [n, k, m](int reps) {
            const auto a = RandomVec(static_cast<size_t>(n * k), 3);
            const auto b = RandomVec(static_cast<size_t>(m * k), 4);
            std::vector<float> c(static_cast<size_t>(n * m), 0.0f);
            CaseResult r;
            r.ns = MedianNs(reps, [&] { acps::GemmTransB(a, b, c, n, k, m); });
            r.naive_ns =
                MedianNs(reps, [&] { acps::GemmTransBNaive(a, b, c, n, k, m); });
            return r;
          }};
}

Case GemmTransACase(const std::string& name, bool quick, int64_t n, int64_t k,
                    int64_t m) {
  return {name, quick, [n, k, m](int reps) {
            const auto a = RandomVec(static_cast<size_t>(k * n), 3);
            const auto b = RandomVec(static_cast<size_t>(k * m), 4);
            std::vector<float> c(static_cast<size_t>(n * m), 0.0f);
            CaseResult r;
            r.ns = MedianNs(reps, [&] { acps::GemmTransA(a, b, c, n, k, m); });
            r.naive_ns =
                MedianNs(reps, [&] { acps::GemmTransANaive(a, b, c, n, k, m); });
            return r;
          }};
}

// Textbook serial references for the orthogonalization panels: plain
// column-at-a-time loops, no blocking, no pool — the definitional cost the
// packed GEMM chain under ReducedQr / OrthogonalizeGramSchmidt is measured
// against. Accumulation here is double to keep the reference numerically
// honest; it is a timing baseline only, never a parity target.
void NaiveGramSchmidt(std::vector<float>& a, int64_t n, int64_t r) {
  for (int64_t j = 0; j < r; ++j) {
    for (int64_t p = 0; p < j; ++p) {
      double dot = 0.0;
      for (int64_t i = 0; i < n; ++i) dot += a[i * r + p] * a[i * r + j];
      for (int64_t i = 0; i < n; ++i)
        a[i * r + j] -= static_cast<float>(dot) * a[i * r + p];
    }
    double norm = 0.0;
    for (int64_t i = 0; i < n; ++i) norm += a[i * r + j] * a[i * r + j];
    const float inv = norm > 0 ? 1.0f / std::sqrt(static_cast<float>(norm)) : 0.0f;
    for (int64_t i = 0; i < n; ++i) a[i * r + j] *= inv;
  }
}

// The Power-SGD orthogonalization panel: a 1024×32 tall-skinny factor, the
// exact shape the packed GEMM family feeds (PowerIteration's Q basis).
Case OrthoPanelCase(const std::string& name, bool quick, bool use_qr,
                    int64_t n, int64_t r) {
  return {name, quick, [use_qr, n, r](int reps) {
            const auto src = RandomVec(static_cast<size_t>(n * r), 12);
            CaseResult res;
            res.ns = MedianNs(reps, [&] {
              acps::Tensor q = acps::Tensor::FromSpan({n, r}, src);
              if (use_qr) {
                (void)acps::ReducedQr(q);
              } else {
                acps::OrthogonalizeGramSchmidt(q);
              }
            });
            res.naive_ns = MedianNs(reps, [&] {
              std::vector<float> a = src;
              NaiveGramSchmidt(a, n, r);
            });
            return res;
          }};
}

std::vector<Case> BuildCases() {
  std::vector<Case> cases;
  // The dense acceptance shape: a ResNet-50-sized bucket times a rank-32
  // basis (paper Fig. 3/8 compute breakdown).
  cases.push_back(GemmCase("gemm_4096x4096x32", /*quick=*/true, 4096, 4096, 32));
  // In --quick since the packed-panel layer landed: the CI perf-smoke leg
  // gates the interleaved j-panel fast path (hard >= 10x floor below).
  cases.push_back(
      GemmTransBCase("gemm_tb_4096x4096x32", /*quick=*/true, 4096, 4096, 32));
  cases.push_back(
      GemmTransACase("gemm_ta_4096x4096x32", /*quick=*/false, 4096, 4096, 32));
  // Dense square shape whose B panel overflows L2 — the packed saxpy path's
  // showcase (the direct path re-streams all of B per row tile here).
  cases.push_back(GemmCase("gemm_1024x1024x1024", /*quick=*/false, 1024, 1024,
                           1024));
  // Power-SGD / ACP-SGD low-rank factors P = M·Q at every paper rank.
  for (const int64_t r : {1, 2, 4, 8, 32}) {
    cases.push_back(GemmCase("gemm_lowrank_r" + std::to_string(r),
                             /*quick=*/r == 8, 1024, 1024, r));
  }
  // Power-SGD reconstruct Ĉ = P·Qᵀ at the low ranks (wide-m TransB).
  for (const int64_t r : {8, 32}) {
    cases.push_back(GemmTransBCase("gemm_tb_recon_r" + std::to_string(r),
                                   /*quick=*/false, 1024, r, 1024));
  }
  // Orthogonalization panels feeding the Power-SGD chain.
  cases.push_back(
      OrthoPanelCase("qr_1024x32", /*quick=*/false, /*use_qr=*/true, 1024, 32));
  cases.push_back(OrthoPanelCase("cgs_1024x32", /*quick=*/false,
                                 /*use_qr=*/false, 1024, 32));

  cases.push_back({"gemv_4096x1024", false, [](int reps) {
                     const int64_t n = 4096, m = 1024;
                     const auto a = RandomVec(static_cast<size_t>(n * m), 5);
                     const auto x = RandomVec(static_cast<size_t>(m), 6);
                     std::vector<float> y(static_cast<size_t>(n));
                     CaseResult r;
                     r.ns = MedianNs(reps, [&] { acps::Gemv(a, x, y, n, m); });
                     r.naive_ns =
                         MedianNs(reps, [&] { acps::GemvNaive(a, x, y, n, m); });
                     return r;
                   }});

  cases.push_back({"transpose_2048x2048", false, [](int reps) {
                     const acps::Tensor in = acps::Tensor::FromSpan(
                         {2048, 2048}, RandomVec(2048 * 2048, 7));
                     CaseResult r;
                     r.ns = MedianNs(reps, [&] { (void)acps::Transpose(in); });
                     r.naive_ns =
                         MedianNs(reps, [&] { (void)acps::TransposeNaive(in); });
                     return r;
                   }});

  // Fused error-feedback update shape: one d = 25M axpy.
  cases.push_back({"axpy_25m", true, [](int reps) {
                     const size_t d = 25'000'000;
                     const auto x = RandomVec(d, 8);
                     auto y = RandomVec(d, 9);
                     CaseResult r;
                     r.ns = MedianNs(reps, [&] { acps::Axpy(0.5f, x, y); });
                     r.naive_ns =
                         MedianNs(reps, [&] { acps::AxpyNaive(0.5f, x, y); });
                     return r;
                   }});

  // Sampled top-k threshold selection at the paper's largest model size.
  // Production = full EncodeInto (bit-pattern histogram + gather + pack);
  // naive = the definitional exact selection (nth_element over all d
  // candidates) ALONE — the scheme the paper's sampling approach exists to
  // avoid. SelectSampledBinarySearch sits between the two for A/B runs.
  cases.push_back({"topk_25m", true, [](int reps) {
                     const size_t d = 25'000'000;
                     const double ratio = 0.001;
                     const auto g = RandomVec(d, 10);
                     acps::compress::TopkCompressor topk(ratio);
                     std::vector<std::byte> blob(topk.EncodedBytes(d));
                     const size_t k = topk.KeptCount(d);
                     CaseResult r;
                     r.ns = MedianNs(reps, [&] { topk.EncodeInto(g, blob); });
                     r.naive_ns =
                         MedianNs(reps, [&] { (void)topk.SelectExact(g, k); });
                     return r;
                   }});
  return cases;
}

// --- JSON in/out ------------------------------------------------------------
// One case per line, so the baseline parses with a single sscanf pattern.

void WriteJson(std::FILE* f, const std::map<std::string, CaseResult>& results,
               int threads) {
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"acps-bench-kernels-v1\",\n");
  std::fprintf(f, "  \"threads\": %d,\n", threads);
  std::fprintf(f, "  \"cases\": {\n");
  size_t i = 0;
  for (const auto& [name, r] : results) {
    std::fprintf(f,
                 "    \"%s\": { \"ns\": %.0f, \"naive_ns\": %.0f, "
                 "\"speedup\": %.3f }%s\n",
                 name.c_str(), r.ns, r.naive_ns, r.speedup(),
                 ++i < results.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
}

bool ParseBaseline(const std::string& path,
                   std::map<std::string, CaseResult>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    char name[128];
    double ns = 0, naive_ns = 0, speedup = 0;
    if (std::sscanf(line.c_str(),
                    " \"%127[^\"]\": { \"ns\": %lf, \"naive_ns\": %lf, "
                    "\"speedup\": %lf",
                    name, &ns, &naive_ns, &speedup) == 4) {
      (*out)[name] = CaseResult{ns, naive_ns};
    }
  }
  return !out->empty();
}

// Acceptance floors: hard minimum speedup-over-naive per case, enforced by
// --check on top of the regression band. The packed-panel TransB path must
// hold >= 10x at the dense acceptance shape; the original >= 3x floors stay.
struct AcceptanceFloor {
  const char* name;
  double min_speedup;
};
constexpr AcceptanceFloor kAcceptanceFloors[] = {
    {"gemm_4096x4096x32", 3.0},
    {"topk_25m", 3.0},
    {"gemm_tb_4096x4096x32", 10.0},
};
// --check regression band: speedup may drift down at most 25% vs baseline.
constexpr double kRegressionBand = 0.75;

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path, check_path;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.starts_with("--out=")) {
      out_path = arg.substr(6);
    } else if (arg.starts_with("--check=")) {
      check_path = arg.substr(8);
    } else if (arg.starts_with("--threads=")) {
      threads = std::atoi(arg.c_str() + 10);
    } else {
      std::fprintf(stderr,
                   "usage: bench_kernels [--quick] [--out=FILE] "
                   "[--check=BASELINE] [--threads=N]\n");
      return 2;
    }
  }
  if (threads > 0) acps::par::SetNumThreads(threads);
  const int effective_threads = acps::par::NumThreads();
  const int reps = quick ? 3 : 5;

  std::map<std::string, CaseResult> results;
  for (const auto& c : BuildCases()) {
    if (quick && !c.in_quick) continue;
    std::fprintf(stderr, "bench_kernels: %-22s ...", c.name.c_str());
    const CaseResult r = c.run(reps);
    results[c.name] = r;
    std::fprintf(stderr, " %10.2f ms (naive %10.2f ms, %5.2fx)\n", r.ns / 1e6,
                 r.naive_ns / 1e6, r.speedup());
  }

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_kernels: cannot write %s\n",
                   out_path.c_str());
      return 2;
    }
    WriteJson(f, results, effective_threads);
    std::fclose(f);
    std::fprintf(stderr, "bench_kernels: wrote %s\n", out_path.c_str());
  } else if (check_path.empty()) {
    WriteJson(stdout, results, effective_threads);
  }

  if (check_path.empty()) return 0;

  // --- Gate against the committed baseline. --------------------------------
  std::map<std::string, CaseResult> baseline;
  if (!ParseBaseline(check_path, &baseline)) {
    std::fprintf(stderr, "bench_kernels: cannot parse baseline %s\n",
                 check_path.c_str());
    return 2;
  }
  int failures = 0;
  std::printf("%-22s %10s %10s %10s\n", "case", "speedup", "baseline", "gate");
  for (const auto& [name, r] : results) {
    const auto it = baseline.find(name);
    if (it == baseline.end()) {
      std::printf("%-22s %10.2f %10s %10s\n", name.c_str(), r.speedup(), "-",
                  "MISSING");
      std::fprintf(stderr,
                   "bench_kernels: '%s' absent from baseline — regenerate "
                   "with tools/bench_baseline.sh\n",
                   name.c_str());
      ++failures;
      continue;
    }
    const double base = it->second.speedup();
    bool ok = r.speedup() >= base * kRegressionBand;
    for (const auto& floor : kAcceptanceFloors) {
      if (name == floor.name && r.speedup() < floor.min_speedup) ok = false;
    }
    std::printf("%-22s %10.2f %10.2f %10s\n", name.c_str(), r.speedup(), base,
                ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "bench_kernels: %d case(s) regressed beyond the %.0f%% band "
                 "or under an acceptance floor\n",
                 failures, 100 * (1 - kRegressionBand));
    return 1;
  }
  std::printf("bench_kernels: baseline gate OK (%zu cases)\n", results.size());
  return 0;
}
