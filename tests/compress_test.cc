// Tests for the one-shot compressors: Sign, Top-k, Random-k, QSGD,
// TernGrad, FP16, and the error-feedback store.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "compress/error_feedback.h"
#include "compress/fp16.h"
#include "compress/registry.h"
#include "compress/qsgd.h"
#include "compress/randomk.h"
#include "compress/sign.h"
#include "compress/terngrad.h"
#include "compress/topk.h"
#include "tensor/rng.h"

namespace acps::compress {
namespace {

std::vector<float> RandomGrad(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> g(n);
  for (auto& v : g) v = rng.normal();
  return g;
}

// ---------------------------------------------------------------- Sign ----

TEST(Sign, RoundTripSigns) {
  SignCompressor c;
  const std::vector<float> g{1.5f, -0.25f, 0.0f, -3.0f, 2.0f};
  const auto blob = c.Encode(g);
  std::vector<float> out(g.size());
  c.Decode(blob, out);
  const float scale = (1.5f + 0.25f + 0.0f + 3.0f + 2.0f) / 5.0f;
  EXPECT_NEAR(out[0], scale, 1e-5f);
  EXPECT_NEAR(out[1], -scale, 1e-5f);
  EXPECT_NEAR(out[2], scale, 1e-5f);  // sign(0) = +1
  EXPECT_NEAR(out[3], -scale, 1e-5f);
}

TEST(Sign, CompressionRatioApproaches32x) {
  SignCompressor c;
  const double ratio = c.CompressionRatio(1 << 20);
  EXPECT_GT(ratio, 30.0);
  EXPECT_LE(ratio, 32.0);
}

TEST(Sign, EncodedSizeExact) {
  SignCompressor c;
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 1000u}) {
    const auto blob = c.Encode(RandomGrad(n, n));
    EXPECT_EQ(blob.size(), c.EncodedBytes(n));
  }
}

// Span views over owned blobs, the form Compressor::Merge takes.
std::vector<std::span<const std::byte>> Views(
    const std::vector<std::vector<std::byte>>& blobs) {
  return {blobs.begin(), blobs.end()};
}

TEST(Sign, MergeIsMajorityVote) {
  SignCompressor c;
  // Three workers; element 0: (+,+,-) => +; element 1: (-,-,+) => -.
  std::vector<std::vector<std::byte>> blobs;
  blobs.push_back(c.Encode(std::vector<float>{1.0f, -1.0f}));
  blobs.push_back(c.Encode(std::vector<float>{1.0f, -1.0f}));
  blobs.push_back(c.Encode(std::vector<float>{-1.0f, 1.0f}));
  std::vector<float> out(2);
  c.Merge(Views(blobs), out);
  EXPECT_GT(out[0], 0.0f);
  EXPECT_LT(out[1], 0.0f);
}

TEST(Sign, MajorityVoteTieIsPositive) {
  SignCompressor c;
  std::vector<std::vector<std::byte>> blobs;
  blobs.push_back(c.Encode(std::vector<float>{1.0f}));
  blobs.push_back(c.Encode(std::vector<float>{-1.0f}));
  std::vector<float> out(1);
  c.Merge(Views(blobs), out);
  EXPECT_GT(out[0], 0.0f);
}

TEST(Sign, DecodeSizeMismatchThrows) {
  SignCompressor c;
  const auto blob = c.Encode(RandomGrad(8, 1));
  std::vector<float> out(9);
  EXPECT_THROW(c.Decode(blob, out), Error);
}

// ---------------------------------------------------------------- Topk ----

TEST(Topk, SelectsLargestMagnitudes) {
  TopkCompressor c(0.1);
  std::vector<float> g(100, 0.01f);
  // Plant 10 large entries at known spots.
  for (int i = 0; i < 10; ++i) g[static_cast<size_t>(i * 10)] = 5.0f + i;
  const auto blob = c.Encode(g);
  std::vector<float> out(g.size());
  c.Decode(blob, out);
  int found = 0;
  for (int i = 0; i < 10; ++i)
    if (out[static_cast<size_t>(i * 10)] > 1.0f) ++found;
  EXPECT_EQ(found, 10);
  // Everything else zero.
  for (size_t i = 0; i < g.size(); ++i) {
    if (i % 10 != 0) {
      EXPECT_EQ(out[i], 0.0f);
    }
  }
}

TEST(Topk, ExactlyKRecords) {
  TopkCompressor c(0.05);
  for (size_t n : {20u, 100u, 999u}) {
    const auto g = RandomGrad(n, n * 3);
    const auto blob = c.Encode(g);
    EXPECT_EQ(blob.size(), c.EncodedBytes(n)) << n;
  }
}

// The kept indices of an encode, sorted.
std::vector<uint32_t> KeptIndices(TopkCompressor& c, std::span<const float> g) {
  const auto blob = c.Encode(g);
  std::vector<float> out(g.size());
  c.Decode(blob, out);
  std::vector<uint32_t> idx;
  for (uint32_t i = 0; i < g.size(); ++i)
    if (out[i] != 0.0f) idx.push_back(i);
  return idx;
}

TEST(Topk, SelectionMatchesExactUpToTies) {
  TopkCompressor c(0.01);
  // Distinct magnitudes: the histogram selection keeps exactly the set of
  // the definitional nth_element reference.
  const auto g = RandomGrad(20000, 9);
  auto exact = c.SelectExact(g, c.KeptCount(g.size()));
  std::sort(exact.begin(), exact.end());
  EXPECT_EQ(KeptIndices(c, g), exact);

  // Heavy ties at the k-th magnitude: the sets may differ, the kept
  // magnitudes may not.
  std::vector<float> tied(2000);
  for (size_t i = 0; i < tied.size(); ++i)
    tied[i] = static_cast<float>(static_cast<int>((i * 7) % 19) - 9) * 0.25f;
  const auto magnitudes = [&](const std::vector<uint32_t>& idx) {
    std::vector<float> m;
    for (uint32_t i : idx) m.push_back(std::abs(tied[i]));
    std::sort(m.begin(), m.end());
    return m;
  };
  TopkCompressor wide(0.1);
  EXPECT_EQ(magnitudes(KeptIndices(wide, tied)),
            magnitudes(wide.SelectExact(tied, wide.KeptCount(tied.size()))));
}

TEST(Topk, HistogramSelectionIsTwoPass) {
  TopkCompressor c(0.001);
  (void)c.Encode(RandomGrad(50000, 5));
  // Histogram-assisted selection: the bit-pattern bucketing needs no
  // max/range pass, so selection is histogram pass + gather pass.
  EXPECT_EQ(c.last_threshold_passes(), 2);
}

TEST(Topk, BinarySearchSelectionIsMultiPass) {
  TopkCompressor c(0.001);
  const auto g = RandomGrad(50000, 5);
  const auto idx = c.SelectSampledBinarySearch(g, c.KeptCount(g.size()));
  EXPECT_EQ(idx.size(), c.KeptCount(g.size()));
  // The paper's premise: the pre-histogram scheme needs many counting passes
  // (one per binary-search probe). This is the bench_kernels baseline.
  EXPECT_GE(c.last_threshold_passes(), 5);
}

TEST(Topk, ThresholdPassesResetEachEncode) {
  // Regression: the pass counter is per-call state. An encode after the
  // multi-pass binary search must report its own 2 passes, not the stale
  // count — and a mixed-magnitude gradient (one huge outlier 20 decades
  // above the rest; under the old linear-scale histogram it crowded
  // everything else into the bottom bucket) must still select exactly k.
  TopkCompressor c(0.01);
  std::vector<float> g = RandomGrad(10000, 11);
  (void)c.SelectSampledBinarySearch(g, c.KeptCount(g.size()));
  ASSERT_GT(c.last_threshold_passes(), 2);
  g[123] = 1e20f;  // outlier, alone in a top bucket
  const auto blob = c.Encode(g);
  EXPECT_EQ(blob.size(), c.EncodedBytes(g.size()));
  EXPECT_EQ(c.last_threshold_passes(), 2);
  std::vector<float> out(g.size());
  c.Decode(blob, out);
  EXPECT_EQ(out[123], 1e20f);  // the outlier always survives selection
}

TEST(Topk, AccumulateAverages) {
  TopkCompressor c(0.5);
  const std::vector<float> g{4.0f, 0.0f, -8.0f, 0.0f};
  const auto blob = c.Encode(g);
  std::vector<float> out(4, 0.0f);
  TopkCompressor::AccumulateInto(blob, out, /*num_workers=*/2);
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_FLOAT_EQ(out[2], -4.0f);
}

TEST(Topk, MergeScatterAddsTheAverage) {
  TopkCompressor c(0.5);
  std::vector<std::vector<std::byte>> blobs;
  blobs.push_back(c.Encode(std::vector<float>{4.0f, 0.0f, -8.0f, 0.0f}));
  blobs.push_back(c.Encode(std::vector<float>{0.0f, 6.0f, 2.0f, 0.0f}));
  std::vector<float> out(4, 99.0f);  // Merge overwrites
  c.Merge(Views(blobs), out);
  EXPECT_EQ(out, (std::vector<float>{2.0f, 3.0f, -3.0f, 0.0f}));
}

TEST(Topk, KeptCountAtLeastOne) {
  TopkCompressor c(0.001);
  EXPECT_EQ(c.KeptCount(10), 1u);
  EXPECT_EQ(c.KeptCount(0), 0u);
  EXPECT_EQ(c.KeptCount(10000), 10u);
}

TEST(Topk, RejectsBadRatio) {
  EXPECT_THROW(TopkCompressor(0.0), Error);
  EXPECT_THROW(TopkCompressor(1.5), Error);
}

// -------------------------------------------------------------- Randomk ---

TEST(Randomk, RoundTripSparse) {
  RandomkCompressor c(0.2);
  const auto g = RandomGrad(50, 3);
  const auto blob = c.Encode(g);
  std::vector<float> out(g.size());
  c.Decode(blob, out);
  size_t nonzero = 0;
  for (size_t i = 0; i < g.size(); ++i) {
    if (out[i] != 0.0f) {
      EXPECT_FLOAT_EQ(out[i], g[i]);
      ++nonzero;
    }
  }
  EXPECT_EQ(nonzero, c.KeptCount(g.size()));
}

TEST(Randomk, SameSeedSameIndices) {
  RandomkCompressor a(0.1, 99), b(0.1, 99);
  const auto g = RandomGrad(200, 4);
  const auto ba = a.Encode(g);
  const auto bb = b.Encode(g);
  EXPECT_EQ(RandomkCompressor::IndicesOf(ba), RandomkCompressor::IndicesOf(bb));
}

TEST(Randomk, IndicesChangePerStep) {
  RandomkCompressor c(0.1, 5);
  const auto g = RandomGrad(200, 4);
  const auto i1 = RandomkCompressor::IndicesOf(c.Encode(g));
  const auto i2 = RandomkCompressor::IndicesOf(c.Encode(g));
  EXPECT_NE(i1, i2);
}

TEST(Randomk, IndicesDistinct) {
  RandomkCompressor c(0.5, 6);
  const auto idx = RandomkCompressor::IndicesOf(c.Encode(RandomGrad(40, 2)));
  auto sorted = idx;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(Randomk, AdditiveBlobs) {
  // The all-reduce-compatibility property: same (seed, step) blobs add
  // through their payloads.
  RandomkCompressor a(0.25, 123), b(0.25, 123);
  ASSERT_EQ(a.wire_shape(), WireShape::kAdditive);
  const auto g1 = RandomGrad(64, 7);
  const auto g2 = RandomGrad(64, 8);
  auto b1 = a.Encode(g1);
  auto b2 = b.Encode(g2);
  std::vector<float> o1(64), o2(64), out(64);
  a.Decode(b1, o1);
  a.Decode(b2, o2);
  const std::span<float> p1 = a.AdditivePayload(b1);
  const std::span<const float> p2 = b.AdditivePayload(b2);
  ASSERT_EQ(p1.size(), a.KeptCount(64));
  for (size_t j = 0; j < p1.size(); ++j) p1[j] += p2[j];
  a.Decode(b1, out);
  for (size_t i = 0; i < 64; ++i) EXPECT_EQ(out[i], o1[i] + o2[i]);
}

// The O(n)-pool partial Fisher–Yates walk the sparse sampler replaced, kept
// as its reference: same seed, same Rng draws, same index sequence.
std::vector<uint32_t> DenseFisherYates(uint64_t seed, size_t k, size_t n) {
  Rng rng(seed);
  std::vector<uint32_t> pool(n);
  for (size_t i = 0; i < n; ++i) pool[i] = static_cast<uint32_t>(i);
  for (size_t i = 0; i < k; ++i) {
    const size_t j = i + static_cast<size_t>(rng.next_below(n - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

TEST(Randomk, SparseSamplerMatchesDenseWalk) {
  for (const double ratio : {0.01, 0.3, 1.0}) {
    for (const size_t n : {1u, 2u, 17u, 1000u, 100003u}) {
      RandomkCompressor c(ratio, 0xABCull + n);
      for (int step = 0; step < 3; ++step) {
        const auto blob =
            c.Encode(RandomGrad(n, n + static_cast<size_t>(step)));
        const auto seed = wire::Read<uint64_t>(blob, 0);
        EXPECT_EQ(RandomkCompressor::IndicesOf(blob),
                  DenseFisherYates(seed, c.KeptCount(n), n))
            << "ratio " << ratio << " n " << n << " step " << step;
      }
    }
  }
}

TEST(Randomk, AdditivePayloadRejectsTruncatedBlob) {
  // The payload feeds an in-place all-reduce: a blob too short for its k
  // values must fail loudly instead of letting the reduction run past it.
  RandomkCompressor c(0.25, 1);
  auto blob = c.Encode(RandomGrad(64, 7));
  blob.pop_back();
  EXPECT_THROW((void)c.AdditivePayload(blob), Error);
}

// ----------------------------------------------------------------- QSGD ---

TEST(Qsgd, Unbiased) {
  QsgdCompressor c(4, 12345);
  const std::vector<float> g{0.3f, -0.7f, 0.1f, 0.9f};
  std::vector<double> mean(4, 0.0);
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    const auto blob = c.Encode(g);
    std::vector<float> out(4);
    c.Decode(blob, out);
    for (size_t i = 0; i < 4; ++i) mean[i] += out[i];
  }
  for (size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(mean[i] / trials, g[i], 0.03) << i;
}

TEST(Qsgd, MoreLevelsLessError) {
  const auto g = RandomGrad(1000, 13);
  auto err = [&](int levels) {
    QsgdCompressor c(levels, 7);
    const auto blob = c.Encode(g);
    std::vector<float> out(g.size());
    c.Decode(blob, out);
    double e = 0.0;
    for (size_t i = 0; i < g.size(); ++i)
      e += double(out[i] - g[i]) * (out[i] - g[i]);
    return e;
  };
  EXPECT_LT(err(64), err(2));
}

TEST(Qsgd, ZeroVector) {
  QsgdCompressor c(8);
  const std::vector<float> g(16, 0.0f);
  const auto blob = c.Encode(g);
  std::vector<float> out(16, 1.0f);
  c.Decode(blob, out);
  for (float v : out) EXPECT_EQ(v, 0.0f);
}

TEST(Qsgd, RejectsBadLevels) {
  EXPECT_THROW(QsgdCompressor(0), Error);
  EXPECT_THROW(QsgdCompressor(128), Error);
}

// ------------------------------------------------------------- TernGrad ---

TEST(TernGrad, ValuesAreTernary) {
  TernGradCompressor c(9);
  const auto g = RandomGrad(500, 21);
  float smax = 0.0f;
  for (float v : g) smax = std::max(smax, std::abs(v));
  const auto blob = c.Encode(g);
  std::vector<float> out(g.size());
  c.Decode(blob, out);
  for (float v : out) {
    EXPECT_TRUE(v == 0.0f || std::abs(std::abs(v) - smax) < 1e-5f);
  }
}

TEST(TernGrad, Unbiased) {
  TernGradCompressor c(31);
  const std::vector<float> g{0.5f, -0.2f, 1.0f};
  std::vector<double> mean(3, 0.0);
  const int trials = 6000;
  for (int t = 0; t < trials; ++t) {
    const auto blob = c.Encode(g);
    std::vector<float> out(3);
    c.Decode(blob, out);
    for (size_t i = 0; i < 3; ++i) mean[i] += out[i];
  }
  for (size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(mean[i] / trials, g[i], 0.04) << i;
}

TEST(TernGrad, TwoBitsPerElement) {
  TernGradCompressor c;
  EXPECT_GT(c.CompressionRatio(1 << 20), 15.0);
}

// ----------------------------------------------------------------- FP16 ---

TEST(Fp16, ExactForRepresentable) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2048.0f, -0.25f, 65504.0f}) {
    EXPECT_EQ(HalfToFloat(FloatToHalf(v)), v) << v;
  }
}

TEST(Fp16, BoundedRelativeError) {
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-100.0f, 100.0f);
    const float r = HalfToFloat(FloatToHalf(v));
    EXPECT_NEAR(r, v, std::abs(v) * 1e-3f + 1e-4f);
  }
}

TEST(Fp16, SpecialValues) {
  EXPECT_TRUE(std::isinf(HalfToFloat(FloatToHalf(1e30f))));   // overflow
  EXPECT_TRUE(std::isnan(HalfToFloat(FloatToHalf(NAN))));
  EXPECT_EQ(HalfToFloat(FloatToHalf(1e-20f)), 0.0f);          // underflow
  EXPECT_EQ(std::signbit(HalfToFloat(FloatToHalf(-0.0f))), true);
  // Subnormal half range round-trips approximately.
  const float sub = 3.0e-6f;
  EXPECT_NEAR(HalfToFloat(FloatToHalf(sub)), sub, sub * 0.05f);
}

TEST(Fp16, RoundTripVector) {
  Fp16Compressor c;
  const auto g = RandomGrad(333, 41);
  const auto blob = c.Encode(g);
  EXPECT_EQ(blob.size(), c.EncodedBytes(g.size()));
  std::vector<float> out(g.size());
  c.Decode(blob, out);
  for (size_t i = 0; i < g.size(); ++i)
    EXPECT_NEAR(out[i], g[i], std::abs(g[i]) * 1e-3f + 1e-4f);
  EXPECT_NEAR(c.CompressionRatio(1000), 2.0, 0.05);
}

// ------------------------------------------------------- ErrorFeedback ----

TEST(ErrorFeedback, StartsAtZeroAndAccumulates) {
  ErrorFeedback ef;
  Tensor grad({4}, {1, 2, 3, 4});
  ef.AddInto(0, grad);  // residual zero: unchanged
  EXPECT_FLOAT_EQ(grad.at(0), 1.0f);

  Tensor recon({4}, {0.5f, 2.0f, 3.0f, 3.0f});
  ef.Update(0, grad, recon);  // residual = grad - recon
  Tensor next({4}, {1, 1, 1, 1});
  ef.AddInto(0, next);
  EXPECT_FLOAT_EQ(next.at(0), 1.5f);
  EXPECT_FLOAT_EQ(next.at(3), 2.0f);
}

TEST(ErrorFeedback, PerTensorIsolation) {
  ErrorFeedback ef;
  Tensor a({2}, {1, 1});
  Tensor zero({2});
  ef.Update(1, a, zero);  // residual(1) = a
  Tensor b({2});
  ef.AddInto(2, b);  // residual(2) is fresh zeros
  EXPECT_EQ(b.at(0), 0.0f);
  EXPECT_EQ(ef.num_tensors(), 2u);
  EXPECT_EQ(ef.total_elements(), 4);
}

TEST(ErrorFeedback, ShapeChangeThrows) {
  ErrorFeedback ef;
  (void)ef.residual(0, {2, 2});
  EXPECT_THROW((void)ef.residual(0, {4}), Error);
}

// ---------------------------------------------------- EncodeInto parity ----

// The zero-copy EncodeInto path must be byte-identical to the allocating
// Encode() wrapper for every registered compressor. Stochastic compressors
// (randomk, qsgd, terngrad) advance internal state per encode, so the two
// paths run on two identically constructed instances.
TEST(EncodeInto, ByteIdenticalToEncodeForAllCompressors) {
  const auto grads = {RandomGrad(1, 11), RandomGrad(257, 12),
                      RandomGrad(4096, 13)};
  for (const std::string& spec : KnownCompressors()) {
    for (const auto& g : grads) {
      auto a = MakeCompressor(spec);
      auto b = MakeCompressor(spec);
      const std::vector<std::byte> via_encode = a->Encode(g);
      std::vector<std::byte> via_into(b->EncodedBytes(g.size()));
      b->EncodeInto(g, via_into);
      ASSERT_EQ(via_encode.size(), via_into.size()) << spec;
      EXPECT_TRUE(via_encode == via_into) << spec << " n=" << g.size();
      // Both blobs decode to the same vector.
      std::vector<float> da(g.size()), db(g.size());
      a->Decode(via_encode, da);
      b->Decode(via_into, db);
      EXPECT_TRUE(da == db) << spec;
    }
  }
}

TEST(EncodeInto, RejectsWronglySizedOutput) {
  SignCompressor c;
  const auto g = RandomGrad(64, 3);
  std::vector<std::byte> small(c.EncodedBytes(g.size()) - 1);
  EXPECT_THROW(c.EncodeInto(g, small), Error);
  std::vector<std::byte> big(c.EncodedBytes(g.size()) + 1);
  EXPECT_THROW(c.EncodeInto(g, big), Error);
}

// Compression ratios summary (Table I row: Sign 32x, Top-k 1000x).
TEST(CompressionRatios, MatchTableI) {
  SignCompressor sign;
  TopkCompressor topk(0.001);
  const size_t n = 25600000;  // ResNet-50 scale
  EXPECT_NEAR(sign.CompressionRatio(n), 32.0, 1.0);
  // Top-k with ratio 0.001 sends (idx,val) pairs: ~500x in bytes.
  EXPECT_GT(topk.CompressionRatio(n), 400.0);
}

}  // namespace
}  // namespace acps::compress
