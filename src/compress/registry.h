// The method registry: one table and one strict parser for every spec
// string the library accepts, "name" or "name:param".
//
//   ssgd                   dense all-reduce (no compressor)
//   powersgd[:rank]        low-rank, default 4     (integer >= 1)
//   acpsgd[:rank]          low-rank, default 4     (integer >= 1)
//   sign                   Sign-SGD, majority vote
//   blockwise-sign[:block] default 1024            (integer >= 1)
//   topk[:ratio]           default 0.001           (ratio in (0, 1])
//   topk-sampled[:ratio]   another spelling of topk
//   randomk[:ratio]        default 0.01            (ratio in (0, 1])
//   qsgd[:levels]          default 16              (integer in [1, 127])
//   terngrad, fp16
//
// Parameters are checked before any conversion: integer parameters must be
// integral, every parameter must lie in its range, and parameterless names
// take none. core::MakeAggregatorFactory reads the same table, so a name
// means the same method in the trainer, the service and the benches.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compress/compressor.h"

namespace acps::compress {

struct ParsedSpec {
  std::string name;  // the table name
  double param = 0;  // the validated parameter, or the default when absent
};

// Parses and validates `spec` against the table. Throws acps::Error for
// unknown names or invalid parameters.
[[nodiscard]] ParsedSpec ParseSpec(const std::string& spec);

// Builds the one-shot compressor `spec` names. Throws acps::Error for an
// invalid spec or a method that is not a one-shot compressor (ssgd,
// powersgd, acpsgd).
[[nodiscard]] std::unique_ptr<Compressor> MakeCompressor(
    const std::string& spec);

// Every one-shot compressor spec, with its default parameter.
[[nodiscard]] std::vector<std::string> KnownCompressors();

}  // namespace acps::compress
