// Per-job communication session (DESIGN.md §7).
//
// A Session is one tenant's namespace on a shared Transport: it owns the
// job's channel block (barrier, mailboxes, membership, contract checker),
// its envelope salt (chunks sealed under one session never validate under
// another), its obs metric namespace (`job/<id>/...`), its default
// collective configuration (SessionOptions), and — optionally — a
// tenant-scoped fault injector, so chaos plans aimed at this job cannot
// leak into any other tenant. N sessions run concurrently over one
// transport; each Session::Run spawns the job's worker threads.
//
// Lifetime: the Transport must outlive every Session opened on it, and a
// Session must outlive its Run calls. Sessions are not thread-safe objects
// themselves (one job driver drives one session), but any number of
// sessions may run concurrently.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/transport.h"

namespace acps::comm {

class Communicator;

// Session-level collective configuration — the knobs that used to be
// threaded through every call site move here, validated once at session
// construction (the TrainConfig::Validate pattern).
struct SessionOptions {
  // Default algorithm for all_reduce calls that pass
  // AllReduceAlgo::kSessionDefault (the parameter default).
  AllReduceAlgo algo = AllReduceAlgo::kRing;
  // Fusion-buffer budget for aggregators built for this session, in bytes.
  // 0 means "library default" (fusion::kDefaultBufferBytes, 25 MiB).
  int64_t fusion_bytes = 0;
  // Aggregation method for core::TrainingService jobs: any spec of the
  // registry (compress/registry.h), e.g. "ssgd", "acpsgd:4", "topk:0.001",
  // "qsgd:16". The compressor decides how its blobs aggregate (wire shape,
  // merge, error feedback). Structural validation (known name, parameter
  // range) happens when core::MakeAggregatorFactory parses the spec; here
  // only emptiness is rejected.
  std::string compressor_spec = "ssgd";

  // Elastic membership capacity: the maximum world size this session may
  // ever grow to. 0 (the default) means "fixed membership" — capacity
  // equals the constructor's world_size and the session behaves exactly as
  // before. When > world_size, ranks [world_size, max_world_size) start
  // latent and may be admitted at a membership commit
  // (Communicator::commit_view) if the fault injector's AdmissionSchedule
  // names them; crashed or departed ranks may likewise rejoin. Channel
  // buffers (mailboxes, gather blocks) are capacity-sized, so
  // Communicator::world_size() reports the capacity in elastic sessions.
  int max_world_size = 0;

  // Returns "" when valid, otherwise one descriptive message naming every
  // violated constraint. Called at Session construction.
  [[nodiscard]] std::string Validate() const;
};

class Session {
 public:
  // Opens a channel for `world_size` ranks on `transport`. Throws
  // acps::Error when options are invalid or the transport is at capacity.
  // `job_id` scopes envelopes, metrics and fault injection; "" is the
  // anonymous legacy session (unsalted envelopes, unprefixed metrics).
  Session(Transport& transport, std::string job_id, int world_size,
          SessionOptions options = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] int world_size() const noexcept { return world_size_; }
  // Channel capacity: equals world_size() for fixed-membership sessions,
  // SessionOptions::max_world_size for elastic ones.
  [[nodiscard]] int capacity() const noexcept { return capacity_; }
  [[nodiscard]] const std::string& job_id() const noexcept { return job_id_; }
  [[nodiscard]] const SessionOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] Transport& transport() noexcept { return *transport_; }
  // The salt sealed into this session's envelope checksums (isolation
  // tests assert distinct jobs get distinct salts).
  [[nodiscard]] uint64_t envelope_salt() const noexcept;
  // "job/<id>/" for named jobs, "" for the anonymous session.
  [[nodiscard]] const std::string& metric_prefix() const noexcept;

  // Toggles collective-contract fingerprint checking (contract.h) for this
  // session. Defaults to on in sanitizer builds and off otherwise;
  // ACPS_COLLECTIVE_CONTRACT overrides the build-type default.
  void set_contract_checking(bool on) noexcept;
  [[nodiscard]] bool contract_checking() const noexcept;

  // Installs a tenant-scoped fault injector (not owned; nullptr clears).
  // While set, every fault hook of this session routes here INSTEAD of the
  // process-global fault::InstalledFaultInjector, so faults aimed at this
  // job never touch other tenants. Must only be called between Runs.
  void set_fault_injector(fault::FaultInjector* injector) noexcept;
  [[nodiscard]] fault::FaultInjector* fault_injector() const noexcept;

  // Spawns one thread per capacity slot, each invoking fn(comm). Blocks
  // until all return. Exceptions thrown by any worker are rethrown (first
  // one wins) after all workers have been joined — except
  // fault::RankCrashed and fault::RankDeparted, which mark the rank down
  // (see crashed_ranks / departed_ranks) and let the survivors finish.
  //
  // Elastic sessions (max_world_size > world_size, or an injector whose
  // AdmissionSchedule is non-empty): a downed rank with a pending
  // admission parks until a commit_view re-admits it, then runs fn again
  // as a new generation (Communicator::join_generation() > 0) with its
  // collective sequence resumed in lockstep. ACPS_FAULT_REJOIN=0 disables
  // readmission entirely (legacy fail-stop-forever);
  // ACPS_FAULT_REJOIN_TIMEOUT_MS bounds the park (default: the collective
  // watchdog timeout).
  void Run(const std::function<void(Communicator&)>& fn);

  // Ranks that fail-stopped (injected crash) during the most recent Run,
  // in crash order. A rank that crashed, rejoined and crashed again
  // appears once per crash.
  [[nodiscard]] const std::vector<int>& crashed_ranks() const noexcept;

  // Ranks that departed gracefully at a membership commit during the most
  // recent Run, in commit order.
  [[nodiscard]] const std::vector<int>& departed_ranks() const noexcept;

  // Membership epoch committed by the most recent Run (0 when no
  // commit_view ran).
  [[nodiscard]] uint64_t membership_epoch() const noexcept;

  // Aggregate traffic across this session's workers from the most recent
  // Run. Never includes another tenant's bytes.
  [[nodiscard]] TrafficStats total_stats() const;

  // Records one step latency into the session's metric namespace
  // (`<prefix>step_ms` histogram on the transport's registry; no-op when no
  // registry is attached). The per-job p50/p99 step-latency export the
  // multi-tenant stress gate asserts on.
  void ObserveStepMs(double ms);

 private:
  Transport* transport_;
  std::string job_id_;
  int world_size_;
  int capacity_;
  SessionOptions options_;
  std::unique_ptr<detail::GroupState> state_;
  std::vector<TrafficStats> last_run_stats_;
};

}  // namespace acps::comm
