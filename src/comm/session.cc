#include "comm/session.h"

#include <cstdlib>
#include <thread>
#include <utility>

#include "check/sched_point.h"
#include "comm/communicator.h"
#include "fault/injector.h"
#include "obs/metrics_registry.h"

namespace acps::comm {

namespace {

// ACPS_FAULT_REJOIN: 0 disables elastic readmission (legacy fail-stop-
// forever semantics); unset or any other value leaves it on.
bool ResolveRejoinEnabled() {
  if (const char* env = std::getenv("ACPS_FAULT_REJOIN"))
    return env[0] != '\0' && env[0] != '0';
  return true;
}

// ACPS_FAULT_REJOIN_TIMEOUT_MS: how long a downed rank may park waiting
// for readmission; <= 0 waits without a deadline. Defaults to the
// collective watchdog timeout so a stuck rejoin surfaces on the same
// clock as a stuck collective.
int64_t ResolveRejoinTimeout(int64_t fallback) {
  if (const char* env = std::getenv("ACPS_FAULT_REJOIN_TIMEOUT_MS")) {
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0') return static_cast<int64_t>(v);
  }
  return fallback;
}

}  // namespace

std::string SessionOptions::Validate() const {
  std::string err;
  const auto add = [&err](const std::string& msg) {
    if (!err.empty()) err += "; ";
    err += msg;
  };
  if (algo == AllReduceAlgo::kSessionDefault)
    add("algo must be concrete (kRing or kNaive), not kSessionDefault");
  if (fusion_bytes < 0)
    add("fusion_bytes must be >= 0 (0 = library default), got " +
        std::to_string(fusion_bytes));
  if (fusion_bytes > 0 && fusion_bytes < 1024)
    add("fusion_bytes must be 0 or >= 1024, got " +
        std::to_string(fusion_bytes));
  if (compressor_spec.empty())
    add("compressor_spec must be non-empty (e.g. \"ssgd\")");
  if (max_world_size < 0)
    add("max_world_size must be >= 0 (0 = fixed membership), got " +
        std::to_string(max_world_size));
  return err;
}

Session::Session(Transport& transport, std::string job_id, int world_size,
                 SessionOptions options)
    : transport_(&transport), job_id_(std::move(job_id)),
      world_size_(world_size), options_(std::move(options)) {
  const std::string err = options_.Validate();
  ACPS_CHECK_MSG(err.empty(), "invalid SessionOptions for job '"
                                  << job_id_ << "': " << err);
  ACPS_CHECK_MSG(
      options_.max_world_size == 0 || options_.max_world_size >= world_size_,
      "max_world_size (" << options_.max_world_size
                         << ") must be 0 or >= world_size (" << world_size_
                         << ") for job '" << job_id_ << "'");
  capacity_ =
      options_.max_world_size == 0 ? world_size_ : options_.max_world_size;
  state_ = transport_->OpenChannel(job_id_, capacity_, options_.algo);
}

Session::~Session() {
  if (state_ != nullptr) transport_->CloseChannel(capacity_);
}

uint64_t Session::envelope_salt() const noexcept {
  return state_->envelope_salt;
}

const std::string& Session::metric_prefix() const noexcept {
  return state_->metric_prefix;
}

void Session::set_contract_checking(bool on) noexcept {
  state_->contract_enabled = on;
}

bool Session::contract_checking() const noexcept {
  return state_->contract_enabled;
}

void Session::set_fault_injector(fault::FaultInjector* injector) noexcept {
  state_->injector = injector;
}

fault::FaultInjector* Session::fault_injector() const noexcept {
  return state_->injector;
}

void Session::Run(const std::function<void(Communicator&)>& fn) {
  last_run_stats_.assign(static_cast<size_t>(capacity_), TrafficStats{});
  detail::GroupState* st = state_.get();
  // Observability attachment is sampled per Run so set_tracer/set_metrics
  // on the transport take effect for the next job step.
  st->tracer = transport_->tracer();
  st->metrics = transport_->metrics();
  // Reset barrier, error, membership, mailbox, and contract state: an
  // aborted or degraded previous Run may have left the sense-reversing
  // barrier mid-flip, ranks marked dead, and mailboxes holding old
  // envelopes. Channel buffers are capacity-sized; ranks beyond the
  // initial world start latent (down, never run) until a membership commit
  // admits them.
  st->aborted = false;
  st->arrived = 0;
  st->sense = false;
  st->first_error = nullptr;
  st->abort_reason.clear();
  st->contract.Reset(capacity_);
  st->mailbox.assign(static_cast<size_t>(capacity_), detail::Mailbox{});
  st->retry_flag.assign(static_cast<size_t>(capacity_), 0);
  st->alive.assign(static_cast<size_t>(capacity_), 0);
  for (int r = 0; r < world_size_; ++r) st->alive[static_cast<size_t>(r)] = 1;
  st->alive_count = world_size_;
  st->crashed.clear();
  st->departed.clear();
  st->departed_reported = 0;
  st->epoch = 0;
  st->commit_count = 0;
  st->commit_seq = 0;
  st->last_transition = detail::ViewTransition{};
  st->join_intents.clear();
  st->ever_ran.assign(static_cast<size_t>(capacity_), 0);
  for (int r = 0; r < world_size_; ++r)
    st->ever_ran[static_cast<size_t>(r)] = 1;
  for (int r = world_size_; r < capacity_; ++r) st->contract.SetLatent(r);
  st->working = world_size_;

  const bool rejoin_enabled = ResolveRejoinEnabled();
  const int64_t rejoin_timeout_ms =
      ResolveRejoinTimeout(st->barrier_timeout_ms);
  // All (re)admission intents are registered before any worker starts:
  // admission becomes a pure function of (commit index, membership state),
  // never of when a crashed thread happened to reach its wait loop.
  fault::FaultInjector* inj =
      st->injector != nullptr ? st->injector : fault::InstalledFaultInjector();
  if (rejoin_enabled && inj != nullptr) {
    for (const fault::AdmissionIntent& intent : inj->AdmissionSchedule()) {
      ACPS_CHECK_MSG(intent.rank >= 0 && intent.rank < capacity_,
                     "admission intent rank " << intent.rank
                                              << " out of capacity range [0, "
                                              << capacity_ << ")");
      ACPS_CHECK_MSG(intent.at_commit >= 1,
                     "admission intent commit index must be >= 1");
      st->RegisterAdmission(intent.rank, intent.at_commit);
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(capacity_));
  for (int r = 0; r < capacity_; ++r) {
    threads.emplace_back([this, st, r, &fn, rejoin_timeout_ms] {
      bool active = r < world_size_;
      int generation = 0;
      uint64_t resume_seq = 0;
      TrafficStats acc;
      for (;;) {
        if (!active) {
          // Down (latent, crashed, or departed): park only while some
          // unconsumed intent may still admit this rank.
          if (!st->HasPendingAdmission(r)) break;
          const detail::AdmissionStatus status =
              st->AwaitAdmission(r, rejoin_timeout_ms);
          if (status == detail::AdmissionStatus::kAborted) break;
          if (status == detail::AdmissionStatus::kAbandoned) {
            if (st->metrics != nullptr) {
              st->metrics->counter(st->metric_prefix + "fault.rejoin.abandoned")
                  .Add();
            }
            break;
          }
          // Admitted: join the admitting commit's closing barrier (it
          // cannot complete without this rank — alive_count already counts
          // it), then resume the group's collective sequence in lockstep.
          try {
            st->Barrier();
          } catch (...) {
            {
              std::lock_guard lock(st->err_mu);
              if (!st->first_error) st->first_error = std::current_exception();
            }
            st->Abort();
            break;
          }
          {
            std::lock_guard lock(st->group_mu);
            ++st->working;
            resume_seq = st->commit_seq;
          }
          // Readmitted and past the admitting commit's closing barrier:
          // tell any schedule controller this rank publishes again before
          // its first collective of the new generation.
          check::SchedPoint(check::PointKind::kRankUp, r);
          ++generation;
          active = true;
        }
        Communicator comm(st, r, capacity_, resume_seq, generation);
        bool may_return = false;
        try {
          fn(comm);
        } catch (const fault::RankCrashed&) {
          // Fail-stop: the rank already marked itself dead at its
          // collective entry; the survivors reconfigure and finish, and a
          // pending admission may bring this rank back at a later commit.
          may_return = true;
        } catch (const fault::RankDeparted&) {
          // Graceful leave at a view commit; like a crash, the rank may be
          // readmitted by a later intent.
          may_return = true;
        } catch (...) {
          {
            std::lock_guard lock(st->err_mu);
            if (!st->first_error) st->first_error = std::current_exception();
          }
          st->Abort();
        }
        acc.bytes_sent += comm.stats().bytes_sent;
        acc.messages_sent += comm.stats().messages_sent;
        acc.collectives += comm.stats().collectives;
        {
          // Leaving fn: when the last working thread drains, parked
          // joiners must wake and abandon (no future commit can admit
          // them).
          std::lock_guard lock(st->group_mu);
          --st->working;
          if (st->working == 0) st->cv.notify_all();
        }
        active = false;
        if (!may_return) break;
      }
      last_run_stats_[static_cast<size_t>(r)] = acc;
    });
  }
  for (auto& t : threads) t.join();
  if (st->first_error) std::rethrow_exception(st->first_error);
}

const std::vector<int>& Session::crashed_ranks() const noexcept {
  return state_->crashed;
}

const std::vector<int>& Session::departed_ranks() const noexcept {
  return state_->departed;
}

uint64_t Session::membership_epoch() const noexcept {
  // Read after Run has joined its workers, so no lock is needed.
  return state_->epoch;
}

TrafficStats Session::total_stats() const {
  TrafficStats total;
  for (const auto& s : last_run_stats_) {
    total.bytes_sent += s.bytes_sent;
    total.messages_sent += s.messages_sent;
    total.collectives += s.collectives;
  }
  return total;
}

void Session::ObserveStepMs(double ms) {
  obs::MetricsRegistry* metrics = transport_->metrics();
  if (metrics == nullptr) return;
  metrics->histogram(state_->metric_prefix + "step_ms").Observe(ms);
}

}  // namespace acps::comm
