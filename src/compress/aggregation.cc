#include "compress/aggregation.h"

#include <algorithm>

#include "par/accum_policy.h"

namespace acps::compress {

std::span<float> Compressor::AdditivePayload(std::span<std::byte>) const {
  ACPS_FAIL_MSG(name() << " is not an additive compressor");
}

void Compressor::Merge(BlobList blobs, std::span<float> out) const {
  ACPS_CHECK_MSG(!blobs.empty(), "Merge needs at least one blob");
  // Decoded blobs fold in ascending rank order, the same order on every
  // rank.
  ACPS_ACCUM_POLICY(rank_order);
  std::fill(out.begin(), out.end(), 0.0f);
  std::vector<float> decoded(out.size());
  for (const std::span<const std::byte> blob : blobs) {
    Decode(blob, decoded);
    for (size_t i = 0; i < out.size(); ++i) out[i] += decoded[i];
  }
  const float inv = 1.0f / static_cast<float>(blobs.size());
  for (float& v : out) v *= inv;
}

CompressedAggregation::CompressedAggregation(
    std::unique_ptr<Compressor> compressor)
    : compressor_(std::move(compressor)) {
  ACPS_CHECK_MSG(compressor_ != nullptr,
                 "CompressedAggregation needs a compressor");
}

void CompressedAggregation::Aggregate(int64_t tensor_id, Tensor& grad,
                                      const GroupOps& ops) {
  Compressor& c = *compressor_;
  const bool ef = c.biased();
  if (ef) ef_.AddInto(tensor_id, grad);

  blob_.resize(c.EncodedBytes(static_cast<size_t>(grad.numel())));
  const std::span<std::byte> blob(blob_);
  c.EncodeInto(grad.data(), blob);
  // Own reconstruction BEFORE the wire: an additive all-reduce overwrites
  // the blob in place, and EF tracks what this rank's compressor kept, not
  // what the group agreed on.
  if (ef) {
    if (recon_.numel() != grad.numel()) recon_ = Tensor(Shape{grad.numel()});
    c.Decode(blob, recon_.data());
  }

  if (c.wire_shape() == WireShape::kAdditive) {
    ops.all_reduce_mean(c.AdditivePayload(blob));
    if (ef) ef_.Update(tensor_id, grad, recon_);
    c.Decode(blob, grad.data());
    return;
  }

  gathered_.resize(blob.size() * static_cast<size_t>(ops.world_size));
  const std::vector<int> alive = ops.all_gather(blob, gathered_);
  // Crashed ranks' blocks are zero-filled by the degraded all-gather; the
  // merge sees the alive ranks' blobs only.
  std::vector<std::span<const std::byte>> blobs;
  blobs.reserve(alive.size());
  for (const int r : alive)
    blobs.push_back(std::span<const std::byte>(gathered_).subspan(
        static_cast<size_t>(r) * blob.size(), blob.size()));
  if (ef) ef_.Update(tensor_id, grad, recon_);
  c.Merge(blobs, grad.data());
}

}  // namespace acps::compress
