// One-shot (stateless) gradient compressor interface.
//
// Covers the quantization / sparsification families from the paper's §II-B:
// Sign-SGD, Top-k, Random-k, plus the QSGD / TernGrad / FP16 extensions.
// Low-rank methods (Power-SGD, ACP-SGD) are stateful per-tensor algorithms
// and live in powersgd.h / acpsgd.h instead.
//
// Encode/Decode are lossy: Decode(Encode(g)) approximates g. Each
// compressor also owns its aggregation semantics (paper §III-C): its wire
// shape (additive payload on an all-reduce, or the packed blob on an
// all-gather), its merge over the gathered blobs, and whether error
// feedback applies. compress/aggregation.h runs that one pipeline for
// every compressor.
//
// The primitive encode operation is zero-copy: EncodeInto writes the blob
// into caller-owned storage of exactly EncodedBytes(|grad|) bytes, so hot
// loops (aggregators encoding every step) reuse one scratch buffer instead
// of allocating a fresh vector per tensor. Encode() is the allocating
// convenience wrapper on top.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/check.h"

namespace acps::compress {

// Averages `data` element-wise across all workers (all-reduce sum / p).
using AllReduceMeanFn = std::function<void(std::span<float>)>;

// How the blobs of a group travel and combine.
enum class WireShape : uint8_t {
  // Equal-shape blobs are additive: the AdditivePayload floats ride an
  // in-place all-reduce and a 1/alive scale, and Decode of the reduced blob
  // is the group mean.
  kAdditive,
  // Blobs are not additive: one all-gather of the packed blob, then Merge.
  kGathered,
};

// Blobs of the alive ranks, in ascending rank order.
using BlobList = std::span<const std::span<const std::byte>>;

class Compressor {
 public:
  virtual ~Compressor() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  // Encodes `grad` into `out`, which must be exactly
  // EncodedBytes(grad.size()) bytes (checked). Every byte of `out` is
  // written. Stateful encoders (step counters, RNG streams) advance exactly
  // as they would for Encode().
  virtual void EncodeInto(std::span<const float> grad,
                          std::span<std::byte> out) = 0;

  // Allocating convenience wrapper around EncodeInto.
  [[nodiscard]] std::vector<std::byte> Encode(std::span<const float> grad) {
    std::vector<std::byte> blob(EncodedBytes(grad.size()));
    EncodeInto(grad, blob);
    return blob;
  }

  // Decodes `blob` into `out` (must be the original element count),
  // overwriting all elements.
  virtual void Decode(std::span<const std::byte> blob,
                      std::span<float> out) const = 0;

  // Encoded size in bytes for a gradient of `numel` elements (exact for all
  // implementations in this library).
  [[nodiscard]] virtual size_t EncodedBytes(size_t numel) const = 0;

  [[nodiscard]] virtual WireShape wire_shape() const {
    return WireShape::kGathered;
  }

  // The float values of an additive blob, aliased in place (kAdditive
  // compressors only).
  [[nodiscard]] virtual std::span<float> AdditivePayload(
      std::span<std::byte> blob) const;

  // Combines gathered blobs (one per alive rank, rank order) into the group
  // estimate of the mean gradient. Default: decode each blob and average.
  virtual void Merge(BlobList blobs, std::span<float> out) const;

  // True when the reconstruction is biased (deterministic dropping or
  // rounding): error feedback applies and restores the dropped mass. The
  // stochastic-rounding quantizers are unbiased and run without it; with
  // EF, qsgd:16 diverges on vgg-mini.
  [[nodiscard]] virtual bool biased() const = 0;

  // Compression ratio = uncompressed bytes / encoded bytes.
  [[nodiscard]] double CompressionRatio(size_t numel) const {
    const size_t enc = EncodedBytes(numel);
    ACPS_CHECK(enc > 0);
    return static_cast<double>(numel * sizeof(float)) /
           static_cast<double>(enc);
  }
};

// Little-endian scalar (de)serialization helpers shared by the encoders.
namespace wire {

// Fixed-position write into a preallocated blob.
template <typename T>
void Write(std::span<std::byte> out, size_t offset, const T& value) {
  ACPS_CHECK_MSG(offset + sizeof(T) <= out.size(), "wire write out of range");
  std::memcpy(out.data() + offset, &value, sizeof(T));
}

template <typename T>
[[nodiscard]] T Read(std::span<const std::byte> blob, size_t offset) {
  ACPS_CHECK_MSG(offset + sizeof(T) <= blob.size(), "wire read out of range");
  T value;
  std::memcpy(&value, blob.data() + offset, sizeof(T));
  return value;
}

}  // namespace wire
}  // namespace acps::compress
