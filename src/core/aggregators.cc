#include "core/aggregators.h"

#include <algorithm>

#include "comm/group_ops.h"
#include "compress/registry.h"
#include "fusion/fusion_buffer.h"
#include "par/parallel.h"
#include "tensor/matrix_ops.h"

namespace acps::core {
namespace {

// Params in gradient-ready (reverse) order.
std::vector<dnn::Param*> ReverseOrder(const std::vector<dnn::Param*>& params) {
  return {params.rbegin(), params.rend()};
}

// Flattens all gradients into one tensor (reverse order) — the "packed"
// layout Sign/Top-k use (§III-A).
Tensor PackGrads(const std::vector<dnn::Param*>& rev) {
  int64_t total = 0;
  for (auto* p : rev) total += p->grad.numel();
  Tensor flat({total});
  auto dst = flat.data();
  int64_t off = 0;
  for (auto* p : rev) {
    const auto src = p->grad.data();
    par::ParallelFor(par::kDefaultGrain, p->grad.numel(),
                     [&](int64_t begin, int64_t end) {
                       std::copy(src.begin() + begin, src.begin() + end,
                                 dst.begin() + off + begin);
                     });
    off += p->grad.numel();
  }
  return flat;
}

void UnpackGrads(const Tensor& flat, const std::vector<dnn::Param*>& rev) {
  const auto src = flat.data();
  int64_t off = 0;
  for (auto* p : rev) {
    auto dst = p->grad.data();
    par::ParallelFor(par::kDefaultGrain, p->grad.numel(),
                     [&](int64_t begin, int64_t end) {
                       std::copy(src.begin() + off + begin,
                                 src.begin() + off + end, dst.begin() + begin);
                     });
    off += p->grad.numel();
  }
  ACPS_CHECK(off == flat.numel());
}

// Bucketed mean all-reduce over a list of float spans (in order).
void BucketedAllReduceMean(const std::vector<std::span<float>>& spans,
                           int64_t buffer_bytes, comm::Communicator& comm) {
  std::vector<int64_t> bytes;
  bytes.reserve(spans.size());
  for (const auto& s : spans)
    bytes.push_back(static_cast<int64_t>(s.size() * sizeof(float)));
  const auto buckets = fusion::AssignBuckets(bytes, buffer_bytes);
  fusion::FusionBuffer buf;
  for (const auto& bucket : buckets) {
    buf.Reset();
    for (int i : bucket)
      (void)buf.AddSlot(static_cast<int64_t>(spans[static_cast<size_t>(i)].size()));
    for (size_t j = 0; j < bucket.size(); ++j)
      buf.Pack(static_cast<int>(j), spans[static_cast<size_t>(bucket[j])]);
    auto flat = buf.flat();
    comm.all_reduce(flat);
    // Mean over the ranks that actually contributed: sampled *after* the
    // all-reduce so a rank crash at its entry rescales this very bucket.
    Scal(1.0f / static_cast<float>(comm.alive_world_size()), flat);
    for (size_t j = 0; j < bucket.size(); ++j) {
      auto dst = spans[static_cast<size_t>(bucket[j])];
      buf.Unpack(static_cast<int>(j), dst);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------

void AllReduceAggregator::Aggregate(const std::vector<dnn::Param*>& params,
                                    comm::Communicator& comm) {
  const auto rev = ReverseOrder(params);
  std::vector<std::span<float>> spans;
  spans.reserve(rev.size());
  for (auto* p : rev) spans.push_back(p->grad.data());
  BucketedAllReduceMean(spans, buffer_bytes_, comm);
}

// ---------------------------------------------------------------------------

void CompressedAggregator::Aggregate(const std::vector<dnn::Param*>& params,
                                     comm::Communicator& comm) {
  const auto rev = ReverseOrder(params);
  Tensor flat = PackGrads(rev);
  pipeline_.Aggregate(/*tensor_id=*/0, flat, comm::GroupOpsOf(comm));
  UnpackGrads(flat, rev);
}

// ---------------------------------------------------------------------------

void PowerSgdAggregator::Aggregate(const std::vector<dnn::Param*>& params,
                                   comm::Communicator& comm) {
  const auto rev = ReverseOrder(params);
  const compress::AllReduceMeanFn mean = comm::GroupOpsOf(comm).all_reduce_mean;

  std::vector<std::span<float>> dense;
  for (size_t i = 0; i < rev.size(); ++i) {
    dnn::Param* p = rev[i];
    if (p->is_matrix() &&
        compress::LowRankWorthwhile({p->matrix_rows, p->matrix_cols},
                                    powersgd_.config().rank)) {
      // NOTE the structure the paper criticizes: each matrix runs
      // compute-P -> all-reduce -> orthogonalize -> compute-Q -> all-reduce
      // inline, blocking everything behind it. State is keyed by the
      // FORWARD param index (shared convention with GradReducer).
      powersgd_.Step(static_cast<int64_t>(rev.size() - 1 - i), p->grad, mean);
    } else {
      dense.push_back(p->grad.data());
    }
  }
  BucketedAllReduceMean(dense, buffer_bytes_, comm);
}

// ---------------------------------------------------------------------------

void AcpSgdAggregator::Aggregate(const std::vector<dnn::Param*>& params,
                                 comm::Communicator& comm) {
  const auto rev = ReverseOrder(params);

  // Phase 1 (per tensor, gradient-ready order): all local compute — the
  // non-blocking property means every factor is known before any collective
  // has to finish.
  std::vector<int> lowrank_ids;
  std::vector<std::span<float>> factors;
  std::vector<int64_t> factor_bytes;
  std::vector<std::span<float>> dense;
  int64_t factor_total = 0, grad_total = 0;
  for (size_t i = 0; i < rev.size(); ++i) {
    dnn::Param* p = rev[i];
    grad_total += p->grad.numel() * static_cast<int64_t>(sizeof(float));
    if (p->is_matrix() &&
        compress::LowRankWorthwhile({p->matrix_rows, p->matrix_cols},
                                    acp_.config().rank)) {
      // State keyed by the FORWARD param index (same convention as
      // GradReducer, so both runtimes are interchangeable).
      auto factor =
          acp_.LocalStep(static_cast<int64_t>(rev.size() - 1 - i), p->grad);
      lowrank_ids.push_back(static_cast<int>(i));
      factors.push_back(factor);
      factor_bytes.push_back(
          static_cast<int64_t>(factor.size() * sizeof(float)));
      factor_total += factor_bytes.back();
    } else {
      dense.push_back(p->grad.data());
    }
  }

  // Phase 2: one fused all-reduce per factor bucket, bucket budget scaled
  // by the compression rate (paper §IV-B).
  const int64_t factor_budget =
      fusion::ScaledBufferBytes(buffer_bytes_, factor_total, grad_total);
  const auto buckets = fusion::AssignBuckets(factor_bytes, factor_budget);
  fusion::FusionBuffer buf;
  for (const auto& bucket : buckets) {
    buf.Reset();
    for (int j : bucket)
      (void)buf.AddSlot(
          static_cast<int64_t>(factors[static_cast<size_t>(j)].size()));
    for (size_t s = 0; s < bucket.size(); ++s)
      buf.Pack(static_cast<int>(s), factors[static_cast<size_t>(bucket[s])]);
    auto flat = buf.flat();
    comm.all_reduce(flat);
    Scal(1.0f / static_cast<float>(comm.alive_world_size()), flat);
    for (size_t s = 0; s < bucket.size(); ++s)
      buf.Unpack(static_cast<int>(s), factors[static_cast<size_t>(bucket[s])]);
    // Phase 3: decompress the tensors of this bucket.
    for (int j : bucket) {
      const int rev_idx = lowrank_ids[static_cast<size_t>(j)];
      acp_.Finish(static_cast<int64_t>(rev.size() - 1 -
                                       static_cast<size_t>(rev_idx)),
                  rev[static_cast<size_t>(rev_idx)]->grad);
    }
  }

  // Dense (vector-shaped) params ride plain bucketed all-reduce.
  BucketedAllReduceMean(dense, buffer_bytes_, comm);
}

// ---------------------------------------------------------------------------

AggregatorFactory MakeAcpSgdFactory(int64_t rank, bool error_feedback,
                                    bool reuse) {
  return [rank, error_feedback, reuse](int, int) {
    compress::AcpSgdConfig cfg;
    cfg.rank = rank;
    cfg.error_feedback = error_feedback;
    cfg.reuse = reuse;
    return std::make_unique<AcpSgdAggregator>(cfg);
  };
}

AggregatorFactory MakeAggregatorFactory(const std::string& spec,
                                        int64_t buffer_bytes) {
  ACPS_CHECK_MSG(buffer_bytes >= 0,
                 "buffer_bytes must be >= 0 (0 = default), got "
                     << buffer_bytes);
  const int64_t bytes =
      buffer_bytes == 0 ? fusion::kDefaultBufferBytes : buffer_bytes;

  const compress::ParsedSpec parsed = compress::ParseSpec(spec);
  // The registry validated the parameter: integral and in range.
  const auto rank = static_cast<int64_t>(parsed.param);
  if (parsed.name == "ssgd") {
    return [bytes](int, int) {
      return std::make_unique<AllReduceAggregator>(bytes);
    };
  }
  if (parsed.name == "acpsgd") {
    return [rank, bytes](int, int) {
      compress::AcpSgdConfig cfg;
      cfg.rank = rank;
      return std::make_unique<AcpSgdAggregator>(cfg, bytes);
    };
  }
  if (parsed.name == "powersgd") {
    return [rank, bytes](int, int) {
      compress::PowerSgdConfig cfg;
      cfg.rank = rank;
      return std::make_unique<PowerSgdAggregator>(cfg, bytes);
    };
  }
  // Every other registry name is a one-shot compressor.
  return [spec](int, int) {
    return std::make_unique<CompressedAggregator>(
        compress::MakeCompressor(spec));
  };
}

}  // namespace acps::core
