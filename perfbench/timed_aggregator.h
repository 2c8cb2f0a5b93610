// The timing wrapper: a GradientAggregator that forwards to the aggregator
// a factory returns and records, from outside, what one step cost on this
// rank — wall-clock on rank 0, wire bytes and collectives on every rank —
// plus, on sampled steps, copies of the gradients before and after
// aggregation for the correctness checks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "core/aggregators.h"
#include "obs/tracer.h"

namespace perfbench {

// What one job (or one method of the aggregation sweep) recorded. Each rank
// writes only its own rows; rank 0 also writes the timing rows. Readers
// look at it after the ranks have been joined.
struct StepLog {
  explicit StepLog(int world, int sample_every = 0)
      : sample_every(sample_every), bytes(world), collectives(world),
        in(world), out(world) {}

  int sample_every;  // copy gradients on steps step % sample_every == 0
  std::vector<ParamShape> shapes;  // forward order, from rank 0's first call
  std::vector<std::string> names;  // parameter names, same order

  // Rank 0, one entry per Aggregate call.
  std::vector<Clock::time_point> enter, exit;
  std::vector<int64_t> enter_us, exit_us;  // tracer time base
  std::vector<char> traced;                // tracer was on for this step

  // [rank][step]
  std::vector<std::vector<uint64_t>> bytes, collectives;
  // [rank][sample] flattened gradients (forward parameter order)
  std::vector<std::vector<std::vector<float>>> in, out;

  [[nodiscard]] size_t steps() const { return enter.size(); }
  [[nodiscard]] double AggregateMs(size_t step) const {
    return Millis(exit[step] - enter[step]);
  }
};

inline std::vector<float> Flatten(const std::vector<acps::dnn::Param*>& params) {
  size_t total = 0;
  for (const auto* p : params) total += static_cast<size_t>(p->grad.numel());
  std::vector<float> flat;
  flat.reserve(total);
  for (const auto* p : params)
    flat.insert(flat.end(), p->grad.data().begin(), p->grad.data().end());
  return flat;
}

class TimedAggregator final : public acps::core::GradientAggregator {
 public:
  TimedAggregator(std::unique_ptr<acps::core::GradientAggregator> inner,
                  int rank, StepLog* log)
      : inner_(std::move(inner)), rank_(rank), log_(log) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void Aggregate(const std::vector<acps::dnn::Param*>& params,
                 acps::comm::Communicator& comm) override {
    const bool sample =
        log_->sample_every > 0 && step_ % log_->sample_every == 0;
    if (rank_ == 0 && step_ == 0) {
      for (const auto* p : params) {
        log_->shapes.push_back({p->grad.numel(), p->matrix_rows, p->matrix_cols});
        log_->names.push_back(p->name);
      }
    }
    if (sample) log_->in[static_cast<size_t>(rank_)].push_back(Flatten(params));

    acps::obs::Tracer* tracer = comm.tracer();
    const bool traced = tracer != nullptr && tracer->enabled();
    const acps::comm::TrafficStats before = comm.stats();
    const int64_t us0 = traced ? tracer->NowUs() : 0;
    const Clock::time_point t0 = Clock::now();
    inner_->Aggregate(params, comm);
    const Clock::time_point t1 = Clock::now();
    const int64_t us1 = traced ? tracer->NowUs() : 0;
    const acps::comm::TrafficStats& after = comm.stats();

    const auto r = static_cast<size_t>(rank_);
    log_->bytes[r].push_back(after.bytes_sent - before.bytes_sent);
    log_->collectives[r].push_back(after.collectives - before.collectives);
    if (rank_ == 0) {
      log_->enter.push_back(t0);
      log_->exit.push_back(t1);
      log_->enter_us.push_back(us0);
      log_->exit_us.push_back(us1);
      log_->traced.push_back(traced ? 1 : 0);
    }
    if (sample) log_->out[r].push_back(Flatten(params));
    ++step_;
  }

 private:
  std::unique_ptr<acps::core::GradientAggregator> inner_;
  int rank_;
  StepLog* log_;
  uint64_t step_ = 0;
};

// Wraps every aggregator `factory` builds so that it records into `log`.
inline acps::core::AggregatorFactory Timed(acps::core::AggregatorFactory factory,
                                           StepLog* log) {
  return [factory = std::move(factory), log](int rank, int world) {
    return std::make_unique<TimedAggregator>(factory(rank, world), rank, log);
  };
}

}  // namespace perfbench
