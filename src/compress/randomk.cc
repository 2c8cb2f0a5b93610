#include "compress/randomk.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "tensor/rng.h"

namespace acps::compress {

namespace {
constexpr size_t kHeaderBytes = 3 * sizeof(uint64_t);  // seed, k, numel

// Samples k distinct indices in [0, n) via a partial Fisher–Yates walk,
// deterministic in `seed`. The walk over the identity pool is kept sparse:
// `moved` holds only the positions a swap has touched (O(k) entries, no
// O(n) pool), and the Rng draws are those of the textbook walk over a full
// pool, so the index sequence equals it.
std::vector<uint32_t> SampleIndices(uint64_t seed, size_t k, size_t n) {
  ACPS_CHECK(k <= n);
  Rng rng(seed);
  std::unordered_map<size_t, uint32_t> moved;
  moved.reserve(k);
  const auto at = [&moved](size_t pos) {
    const auto it = moved.find(pos);
    return it == moved.end() ? static_cast<uint32_t>(pos) : it->second;
  };
  std::vector<uint32_t> idx(k);
  for (size_t i = 0; i < k; ++i) {
    const size_t j = i + static_cast<size_t>(rng.next_below(n - i));
    // swap(pool[i], pool[j]); position i is never read again.
    idx[i] = at(j);
    moved[j] = at(i);
  }
  return idx;
}

}  // namespace

RandomkCompressor::RandomkCompressor(double ratio, uint64_t seed)
    : ratio_(ratio), seed_(seed) {
  ACPS_CHECK_MSG(ratio > 0.0 && ratio <= 1.0,
                 "random-k ratio must be in (0, 1], got " << ratio);
}

size_t RandomkCompressor::KeptCount(size_t numel) const {
  if (numel == 0) return 0;
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(ratio_ * double(numel))));
}

size_t RandomkCompressor::EncodedBytes(size_t numel) const {
  return kHeaderBytes + KeptCount(numel) * sizeof(float);
}

void RandomkCompressor::EncodeInto(std::span<const float> grad,
                                   std::span<std::byte> out) {
  const size_t n = grad.size();
  const size_t k = KeptCount(n);
  ACPS_CHECK_MSG(out.size() == EncodedBytes(n), "Randomk encode size mismatch");
  const uint64_t step_seed = seed_ ^ (0x9E3779B97F4A7C15ull * (step_ + 1));
  ++step_;

  wire::Write(out, 0, step_seed);
  wire::Write(out, sizeof(uint64_t), static_cast<uint64_t>(k));
  wire::Write(out, 2 * sizeof(uint64_t), static_cast<uint64_t>(n));
  if (n == 0) return;

  const auto idx = SampleIndices(step_seed, k, n);
  size_t off = kHeaderBytes;
  for (uint32_t i : idx) {
    wire::Write(out, off, grad[i]);
    off += sizeof(float);
  }
}

std::vector<uint32_t> RandomkCompressor::IndicesOf(
    std::span<const std::byte> blob) {
  const auto seed = wire::Read<uint64_t>(blob, 0);
  const auto k = wire::Read<uint64_t>(blob, sizeof(uint64_t));
  const auto n = wire::Read<uint64_t>(blob, 2 * sizeof(uint64_t));
  if (n == 0) return {};
  return SampleIndices(seed, k, n);
}

void RandomkCompressor::Decode(std::span<const std::byte> blob,
                               std::span<float> out) const {
  const auto k = wire::Read<uint64_t>(blob, sizeof(uint64_t));
  const auto n = wire::Read<uint64_t>(blob, 2 * sizeof(uint64_t));
  ACPS_CHECK_MSG(out.size() == n, "Randomk decode size mismatch");
  std::fill(out.begin(), out.end(), 0.0f);
  if (n == 0) return;
  const auto idx = IndicesOf(blob);
  for (size_t j = 0; j < k; ++j) {
    out[idx[j]] =
        wire::Read<float>(blob, kHeaderBytes + j * sizeof(float));
  }
}

std::span<float> RandomkCompressor::AdditivePayload(
    std::span<std::byte> blob) const {
  const auto k = wire::Read<uint64_t>(blob, sizeof(uint64_t));
  // The payload is handed straight to an in-place all-reduce; an
  // under-sized blob would let the reduction scribble past the buffer.
  ACPS_CHECK_MSG(blob.size() == kHeaderBytes + k * sizeof(float),
                 "Random-k blob of " << blob.size() << " B cannot hold k=" << k
                                     << " values after the " << kHeaderBytes
                                     << " B header");
  return {reinterpret_cast<float*>(blob.data() + kHeaderBytes),
          static_cast<size_t>(k)};
}

}  // namespace acps::compress
