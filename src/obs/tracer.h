// Runtime span tracing for REAL runs (DESIGN.md "Observability").
//
// The analytical simulator has always been able to emit Fig 4-style
// timelines (sim::TraceEvent); this tracer produces the same evidence from
// actual Session runs: every worker records begin/end-stamped
// spans (collectives, compression, bucket issues, training steps) into one
// shared, thread-safe buffer, and the result exports to Chrome-trace JSON
// with one Perfetto row per worker (chrome_trace.h).
//
// Cost discipline: tracing is opt-in. Components hold a `Tracer*` that is
// nullptr by default; ScopedSpan's constructor is a single pointer test
// plus one relaxed atomic load when a tracer is attached, so instrumented
// hot paths (the ring collectives) are unaffected when tracing is off.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "par/lock_level.h"

namespace acps::obs {

// Span categories mirror the simulator's resource labels so the two trace
// sources read the same way in a viewer.
inline constexpr const char* kCatComm = "comm";
inline constexpr const char* kCatCompress = "compress";
inline constexpr const char* kCatGrad = "grad";
inline constexpr const char* kCatBucket = "bucket";
inline constexpr const char* kCatStep = "step";
inline constexpr const char* kCatFault = "fault";  // injection/retry/crash

// One completed span. Timestamps are microseconds on the tracer's own
// monotonic clock (origin = construction or the last Clear()), so spans
// from all workers of a run share a time base.
struct SpanEvent {
  std::string name;
  std::string category;
  int worker = 0;        // communicator rank (row in the exported timeline)
  int64_t begin_us = 0;
  int64_t end_us = 0;
  uint64_t bytes = 0;    // wire bytes moved, 0 if not applicable
  int64_t arg = -1;      // free-form detail (param / bucket index), -1 if none
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  // Disabled tracers record nothing; spans opened while disabled stay
  // dropped even if the tracer is enabled before they close.
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Microseconds since the tracer's origin (monotonic).
  [[nodiscard]] int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  // Thread-safe append (workers record concurrently).
  void Record(SpanEvent event) {
    std::lock_guard lock(trace_mu_);
    events_.push_back(std::move(event));
  }

  [[nodiscard]] std::vector<SpanEvent> Snapshot() const {
    std::lock_guard lock(trace_mu_);
    return events_;
  }

  [[nodiscard]] size_t size() const {
    std::lock_guard lock(trace_mu_);
    return events_.size();
  }

  // Drops all events and restarts the clock origin.
  void Clear() {
    std::lock_guard lock(trace_mu_);
    events_.clear();
    origin_ = std::chrono::steady_clock::now();
  }

  // Chrome-trace JSON of the current snapshot: one pid, one tid (row) per
  // worker, span bytes/arg attached as event args. Implemented in
  // chrome_trace.cc.
  [[nodiscard]] std::string ToChromeTracingJson() const;

  // Writes ToChromeTracingJson() to `path`; returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable ACPS_LOCK_LEVEL(90) trace_mu_;
  std::vector<SpanEvent> events_;
  std::chrono::steady_clock::time_point origin_;
};

// RAII span: stamps begin at construction, records at destruction. With a
// null or disabled tracer the constructor degenerates to one branch and the
// destructor to another — no strings are built, nothing is recorded.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* category,
             int worker, uint64_t bytes = 0, int64_t arg = -1)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ == nullptr) return;
    name_ = name;
    category_ = category;
    worker_ = worker;
    bytes_ = bytes;
    arg_ = arg;
    begin_us_ = tracer_->NowUs();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Adjusts the byte tag after construction (for spans whose payload size
  // is only known mid-flight, e.g. all_gather_v).
  void set_bytes(uint64_t bytes) { bytes_ = bytes; }

  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    tracer_->Record(SpanEvent{name_, category_, worker_, begin_us_,
                              tracer_->NowUs(), bytes_, arg_});
  }

 private:
  Tracer* tracer_;
  const char* name_ = "";
  const char* category_ = "";
  int worker_ = 0;
  uint64_t bytes_ = 0;
  int64_t arg_ = -1;
  int64_t begin_us_ = 0;
};

}  // namespace acps::obs
