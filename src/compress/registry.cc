#include "compress/registry.h"

#include <charconv>
#include <cmath>
#include <sstream>

#include "compress/blockwise_sign.h"
#include "compress/fp16.h"
#include "compress/qsgd.h"
#include "compress/randomk.h"
#include "compress/sign.h"
#include "compress/terngrad.h"
#include "compress/topk.h"

namespace acps::compress {
namespace {

enum class Param : uint8_t { kNone, kInteger, kRatio };

using Maker = std::unique_ptr<Compressor> (*)(double param);

template <typename C>
std::unique_ptr<Compressor> Make(double) {
  return std::make_unique<C>();
}

// The parameter is converted only after Parse validated its range.
template <typename C, typename Arg>
std::unique_ptr<Compressor> MakeWith(double param) {
  return std::make_unique<C>(static_cast<Arg>(param));
}

struct Entry {
  const char* name;
  Param param;
  double fallback;  // the default parameter
  double max;       // inclusive upper bound; integers start at 1, ratios > 0
  Maker make;       // nullptr: not a one-shot compressor
};

constexpr double kMaxInt = 2147483647.0;

const Entry kTable[] = {
    {"ssgd", Param::kNone, 0, 0, nullptr},
    {"powersgd", Param::kInteger, 4, kMaxInt, nullptr},
    {"acpsgd", Param::kInteger, 4, kMaxInt, nullptr},
    {"sign", Param::kNone, 0, 0, Make<SignCompressor>},
    {"blockwise-sign", Param::kInteger, 1024, kMaxInt,
     MakeWith<BlockwiseSignCompressor, size_t>},
    {"topk", Param::kRatio, 0.001, 1, MakeWith<TopkCompressor, double>},
    // The same method as "topk"; kept only because the benchmark names its
    // compress.{encode,decode}_gbps.<spec> metrics after KnownCompressors().
    {"topk-sampled", Param::kRatio, 0.001, 1, MakeWith<TopkCompressor, double>},
    {"randomk", Param::kRatio, 0.01, 1, MakeWith<RandomkCompressor, double>},
    {"qsgd", Param::kInteger, 16, 127, MakeWith<QsgdCompressor, int>},
    {"terngrad", Param::kNone, 0, 0, Make<TernGradCompressor>},
    {"fp16", Param::kNone, 0, 0, Make<Fp16Compressor>},
};

std::string Usage(const Entry& e) {
  std::ostringstream oss;
  oss << e.name;
  if (e.param == Param::kRatio) oss << "[:ratio in (0, " << e.max << "]]";
  if (e.param == Param::kInteger)
    oss << "[:integer in [1, " << static_cast<int64_t>(e.max) << "]]";
  return oss.str();
}

struct Parsed {
  const Entry* entry;
  double param;
};

Parsed Parse(const std::string& spec) {
  const size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  const Entry* entry = nullptr;
  for (const Entry& e : kTable)
    if (name == e.name) entry = &e;
  if (entry == nullptr) {
    std::ostringstream oss;
    oss << "unknown method spec '" << spec << "' (want";
    for (const Entry& e : kTable) oss << ' ' << Usage(e);
    oss << ')';
    throw Error(oss.str());
  }
  if (colon == std::string::npos) return {entry, entry->fallback};

  const std::string param = spec.substr(colon + 1);
  // from_chars takes no leading blanks, '+' or hex; inf/nan fail the range
  // test below. Every check runs on the double, before any conversion.
  double v = std::nan("");
  const char* end = param.data() + param.size();
  const bool parsed = std::from_chars(param.data(), end, v).ptr == end;
  const bool ok =
      parsed && !param.empty() &&
      (entry->param == Param::kRatio
           ? v > 0.0 && v <= entry->max
           : entry->param == Param::kInteger &&
                 v >= 1.0 && v <= entry->max && v == std::floor(v));
  ACPS_CHECK_MSG(ok, "bad parameter in method spec '" << spec << "': want "
                                                      << Usage(*entry));
  return {entry, v};
}

}  // namespace

ParsedSpec ParseSpec(const std::string& spec) {
  const Parsed p = Parse(spec);
  return {p.entry->name, p.param};
}

std::unique_ptr<Compressor> MakeCompressor(const std::string& spec) {
  const Parsed p = Parse(spec);
  ACPS_CHECK_MSG(p.entry->make != nullptr,
                 "'" << spec << "' is not a one-shot compressor");
  return p.entry->make(p.param);
}

std::vector<std::string> KnownCompressors() {
  std::vector<std::string> specs;
  for (const Entry& e : kTable) {
    if (e.make == nullptr) continue;
    std::ostringstream oss;
    oss << e.name;
    if (e.param != Param::kNone) oss << ':' << e.fallback;
    specs.push_back(oss.str());
  }
  return specs;
}

}  // namespace acps::compress
