// Block-wise 1-bit compression (extension; the 1-bit SGD [14] / 1-bit Adam
// [5] lineage): like Sign-SGD but with one fp32 scale per fixed-size block
// instead of one global scale, capturing per-layer magnitude structure at
// a tiny wire cost. Encoded size: 1 bit/element + 4 bytes per block.
#pragma once

#include "compress/compressor.h"

namespace acps::compress {

class BlockwiseSignCompressor final : public Compressor {
 public:
  explicit BlockwiseSignCompressor(size_t block_size = 1024);

  [[nodiscard]] std::string name() const override { return "blockwise-sign"; }

  void EncodeInto(std::span<const float> grad,
                  std::span<std::byte> out) override;

  void Decode(std::span<const std::byte> blob,
              std::span<float> out) const override;

  [[nodiscard]] bool biased() const override { return true; }

  [[nodiscard]] size_t EncodedBytes(size_t numel) const override;

  [[nodiscard]] size_t block_size() const noexcept { return block_size_; }

 private:
  [[nodiscard]] size_t NumBlocks(size_t numel) const {
    return (numel + block_size_ - 1) / block_size_;
  }

  size_t block_size_;
};

}  // namespace acps::compress
