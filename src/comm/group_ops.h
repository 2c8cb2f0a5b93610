// The communicator's collectives in the form the compressed-aggregation
// pipeline takes them (compress/aggregation.h): compress sits below comm,
// so callers hand the pipeline these functions instead of a Communicator.
#pragma once

#include "comm/communicator.h"
#include "compress/aggregation.h"
#include "tensor/matrix_ops.h"

namespace acps::comm {

// Sum all-reduce then the 1/alive scale (alive count sampled after the
// collective, so a crash at its entry rescales this very call), and the
// byte all-gather returning the alive view sampled at it.
[[nodiscard]] inline compress::GroupOps GroupOpsOf(Communicator& comm) {
  return {
      .all_reduce_mean =
          [&comm](std::span<float> v) {
            comm.all_reduce(v);
            Scal(1.0f / static_cast<float>(comm.alive_world_size()), v);
          },
      .all_gather =
          [&comm](std::span<const std::byte> send, std::span<std::byte> recv) {
            comm.all_gather_bytes(send, recv);
            return comm.alive_ranks();
          },
      .world_size = comm.world_size(),
  };
}

}  // namespace acps::comm
