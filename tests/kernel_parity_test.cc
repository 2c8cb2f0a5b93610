// Bitwise parity and thread-count invariance of the acps::par compute
// kernels (DESIGN.md §6e):
//  * at 1 thread, every production kernel matches its *Naive reference
//    bit-for-bit (same accumulation policy, only the loop structure differs);
//  * at 2/4/8 threads, results are bitwise identical to 1 thread (static
//    partition + fixed reduction trees);
//  * compressor encodes (sign bit-packing, sampled top-k selection) produce
//    identical blobs for every thread budget.
// Runs under both `unit` and `modelcheck` ctest labels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "check/oracles.h"
#include "compress/sign.h"
#include "compress/topk.h"
#include "par/thread_pool.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace acps {
namespace {

// Bitwise equality (float == would hide -0.0f vs 0.0f and NaN mismatches).
::testing::AssertionResult BitsEqual(std::span<const float> a,
                                     std::span<const float> b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0)
      return ::testing::AssertionFailure()
             << "bit mismatch at [" << i << "]: " << a[i] << " vs " << b[i];
  }
  return ::testing::AssertionSuccess();
}

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.normal();
  return v;
}

struct ThreadGuard {
  ~ThreadGuard() { par::SetNumThreads(0); }
};

struct PackModeGuard {
  ~PackModeGuard() { SetGemmPackMode(GemmPackMode::kAuto); }
};

// Shapes chosen to cover full 8×32 tiles, ragged edges in both dimensions,
// and the tall-skinny factors of the Power-SGD family.
struct Shape3 {
  int64_t n, k, m;
};
const Shape3 kShapes[] = {
    {8, 16, 32}, {33, 17, 9}, {7, 3, 2}, {256, 8, 40}, {1000, 4, 4}};

TEST(KernelParity, GemmFamilyMatchesNaiveBitwise) {
  ThreadGuard guard;
  par::SetNumThreads(1);
  for (const auto& s : kShapes) {
    const auto a = RandomVec(static_cast<size_t>(s.n * s.k), 1);
    const auto b = RandomVec(static_cast<size_t>(s.k * s.m), 2);
    const auto c0 = RandomVec(static_cast<size_t>(s.n * s.m), 3);
    for (const float alpha : {1.0f, -0.5f}) {
      for (const float beta : {0.0f, 1.0f, 0.25f}) {
        std::vector<float> got = c0, want = c0;
        Gemm(a, b, got, s.n, s.k, s.m, alpha, beta);
        GemmNaive(a, b, want, s.n, s.k, s.m, alpha, beta);
        EXPECT_TRUE(BitsEqual(got, want))
            << "gemm " << s.n << "x" << s.k << "x" << s.m << " beta=" << beta;

        got = c0, want = c0;
        GemmTransA(a, b, got, s.n, s.k, s.m, alpha, beta);
        GemmTransANaive(a, b, want, s.n, s.k, s.m, alpha, beta);
        EXPECT_TRUE(BitsEqual(got, want)) << "gemm_ta " << s.n << "x" << s.k;

        got = c0, want = c0;
        GemmTransB(a, b, got, s.n, s.k, s.m, alpha, beta);
        GemmTransBNaive(a, b, want, s.n, s.k, s.m, alpha, beta);
        EXPECT_TRUE(BitsEqual(got, want)) << "gemm_tb " << s.n << "x" << s.k;
      }
    }
  }
}

// Packed-panel layer (DESIGN.md §6e): with the packed path forced on, every
// GEMM must still match its naive reference bit-for-bit at shapes that
// stress each packing boundary — dimensions that are not multiples of the
// macro-panel sizes (kKc=256 / kMc=96 / kNc=128 / kRc=768 rows), k=1, a
// single micro-tile, a panel exactly equal to the full matrix, and the
// TransB j-panel width (8) straddled on both sides.
TEST(KernelParity, PackedPathMatchesNaiveBitwise) {
  ThreadGuard guard;
  PackModeGuard pack_guard;
  par::SetNumThreads(1);
  const Shape3 boundary[] = {
      {1, 1, 1},       // degenerate single element
      {10, 1, 40},     // k = 1: the pc loop runs once with a 1-deep panel
      {6, 8, 32},      // exactly one kMr×kNj micro-tile
      {96, 256, 128},  // panel == full matrix (one kMc×kKc×kNc macro-panel)
      {97, 257, 129},  // one past every macro-panel size
      {769, 300, 65},  // crosses the kRc row-chunk boundary
      {13, 300, 1},    // m = 1: packed tiles fully padded in j
      {33, 100, 7},    // m < TransB j-panel width (remainder-only)
      {33, 100, 9},    // one past the TransB j-panel width
  };
  for (const auto& s : boundary) {
    const auto a = RandomVec(static_cast<size_t>(s.n * s.k), 51);
    const auto b = RandomVec(static_cast<size_t>(s.k * s.m), 52);
    const auto c0 = RandomVec(static_cast<size_t>(s.n * s.m), 53);
    for (const float alpha : {1.0f, -0.5f}) {
      for (const float beta : {0.0f, 1.0f, 0.25f}) {
        SetGemmPackMode(GemmPackMode::kAlways);
        std::vector<float> got = c0;
        Gemm(a, b, got, s.n, s.k, s.m, alpha, beta);
        std::vector<float> want = c0;
        GemmNaive(a, b, want, s.n, s.k, s.m, alpha, beta);
        EXPECT_TRUE(BitsEqual(got, want))
            << "packed gemm " << s.n << "x" << s.k << "x" << s.m
            << " alpha=" << alpha << " beta=" << beta;

        got = c0, want = c0;
        GemmTransA(a, b, got, s.n, s.k, s.m, alpha, beta);
        GemmTransANaive(a, b, want, s.n, s.k, s.m, alpha, beta);
        EXPECT_TRUE(BitsEqual(got, want))
            << "packed gemm_ta " << s.n << "x" << s.k << "x" << s.m
            << " alpha=" << alpha << " beta=" << beta;

        got = c0, want = c0;
        GemmTransB(a, b, got, s.n, s.k, s.m, alpha, beta);
        GemmTransBNaive(a, b, want, s.n, s.k, s.m, alpha, beta);
        EXPECT_TRUE(BitsEqual(got, want))
            << "packed gemm_tb " << s.n << "x" << s.k << "x" << s.m
            << " alpha=" << alpha << " beta=" << beta;

        // Forced-packed and forced-direct must agree bitwise too — the mode
        // knob moves data layout, never an accumulation chain.
        got = c0, want = c0;
        SetGemmPackMode(GemmPackMode::kAlways);
        Gemm(a, b, got, s.n, s.k, s.m, alpha, beta);
        SetGemmPackMode(GemmPackMode::kNever);
        Gemm(a, b, want, s.n, s.k, s.m, alpha, beta);
        EXPECT_TRUE(BitsEqual(got, want))
            << "pack-mode divergence " << s.n << "x" << s.k << "x" << s.m;
      }
    }
  }
}

TEST(KernelParity, PackedPathThreadCountInvariant) {
  ThreadGuard guard;
  PackModeGuard pack_guard;
  SetGemmPackMode(GemmPackMode::kAlways);
  // n spans several row chunks (kRc = 768) so 2/4/8 threads split packed
  // row ranges at chunk-interior boundaries.
  const int64_t n = 4096, k = 173, m = 64;
  const auto a = RandomVec(static_cast<size_t>(n * k), 61);
  const auto b = RandomVec(static_cast<size_t>(k * m), 62);
  const auto c0 = RandomVec(static_cast<size_t>(n * m), 63);

  const auto run = [&] {
    std::vector<float> out;
    std::vector<float> c = c0;
    Gemm(a, b, c, n, k, m, 1.0f, 0.5f);
    out.insert(out.end(), c.begin(), c.end());
    c = c0;
    GemmTransA(a, b, c, n, k, m, -0.5f, 0.25f);
    out.insert(out.end(), c.begin(), c.end());
    c = c0;
    GemmTransB(a, b, c, n, k, m, 2.0f, 0.0f);
    out.insert(out.end(), c.begin(), c.end());
    return out;
  };

  par::SetNumThreads(1);
  const auto baseline = run();
  for (const int threads : {2, 4, 8}) {
    par::SetNumThreads(threads);
    EXPECT_TRUE(BitsEqual(run(), baseline))
        << "packed path @ " << threads << " threads";
  }
}

TEST(KernelParity, GemmTransBBetaZeroOverwritesGarbage) {
  // The beta == 0 contract: old C contents must never feed the result, even
  // when they are NaN (the regression the old beta * (beta==0 ? 0 : c) guard
  // protected against — now policy across the whole family).
  ThreadGuard guard;
  par::SetNumThreads(1);
  const auto a = RandomVec(6, 11), b = RandomVec(6, 12);
  std::vector<float> c(4, std::numeric_limits<float>::quiet_NaN());
  GemmTransB(a, b, c, 2, 3, 2, 1.0f, 0.0f);
  for (float v : c) EXPECT_FALSE(std::isnan(v));
  std::vector<float> c2(4, std::numeric_limits<float>::quiet_NaN());
  Gemm(a, b, c2, 2, 3, 2, 1.0f, 0.0f);
  for (float v : c2) EXPECT_FALSE(std::isnan(v));
}

TEST(KernelParity, GemvAxpyTransposeMatchNaiveBitwise) {
  ThreadGuard guard;
  par::SetNumThreads(1);
  const int64_t n = 321, m = 143;
  const auto a = RandomVec(static_cast<size_t>(n * m), 21);
  const auto x = RandomVec(static_cast<size_t>(m), 22);
  std::vector<float> y1(static_cast<size_t>(n)), y2(static_cast<size_t>(n));
  Gemv(a, x, y1, n, m);
  GemvNaive(a, x, y2, n, m);
  EXPECT_TRUE(BitsEqual(y1, y2));

  auto z1 = RandomVec(static_cast<size_t>(n * m), 23);
  auto z2 = z1;
  Axpy(-1.75f, a, z1);
  AxpyNaive(-1.75f, a, z2);
  EXPECT_TRUE(BitsEqual(z1, z2));

  const Tensor mat = Tensor::FromSpan({n, m}, a);
  EXPECT_TRUE(BitsEqual(Transpose(mat).data(), TransposeNaive(mat).data()));
}

TEST(KernelParity, AllKernelsThreadCountInvariant) {
  // n spans several grain blocks so 2/4/8 threads genuinely partition work.
  ThreadGuard guard;
  const int64_t n = 4096, k = 173, m = 64;
  const auto a = RandomVec(static_cast<size_t>(n * k), 31);
  const auto b = RandomVec(static_cast<size_t>(k * m), 32);
  const auto c0 = RandomVec(static_cast<size_t>(n * m), 33);

  const auto run = [&] {
    std::vector<float> out;
    std::vector<float> c = c0;
    Gemm(a, b, c, n, k, m, 1.0f, 0.5f);
    out.insert(out.end(), c.begin(), c.end());
    c = c0;
    GemmTransB(a, b, c, n, k, m, 2.0f, 0.0f);
    out.insert(out.end(), c.begin(), c.end());
    Tensor t = Tensor::FromSpan({n * k}, a);
    const Tensor u = Tensor::FromSpan({n * k}, RandomVec(a.size(), 34));
    t.axpy_(0.5f, u);
    const float red[3] = {t.sum(), t.dot(u), t.norm2()};
    out.insert(out.end(), red, red + 3);
    return out;
  };

  par::SetNumThreads(1);
  const auto baseline = run();
  for (const int threads : {2, 4, 8}) {
    par::SetNumThreads(threads);
    EXPECT_TRUE(BitsEqual(run(), baseline)) << threads << " threads";
  }
}

TEST(KernelParity, CompressorBlobsThreadCountInvariant) {
  ThreadGuard guard;
  const auto g = RandomVec(200003, 41);

  const auto encode_both = [&] {
    compress::SignCompressor sign;
    compress::TopkCompressor topk(0.003);
    return std::make_pair(sign.Encode(g), topk.Encode(g));
  };

  par::SetNumThreads(1);
  const auto [sign1, topk1] = encode_both();
  for (const int threads : {2, 4, 8}) {
    par::SetNumThreads(threads);
    const auto [signN, topkN] = encode_both();
    EXPECT_EQ(sign1, signN) << "sign blob @ " << threads << " threads";
    EXPECT_EQ(topk1, topkN) << "topk blob @ " << threads << " threads";
  }
}

TEST(KernelParity, ThreadInvarianceOracle) {
  // The packaged oracle (also run by check_test / tools/check_collectives):
  // full kernel suite at 1/2/4/8 threads plus naive parity, one report.
  check::OracleOptions opt;
  const auto report = check::CheckKernelThreadInvariance(opt);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.checks_run, 0);
}

}  // namespace
}  // namespace acps
