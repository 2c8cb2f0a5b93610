#include "comm/communicator.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>

#include "check/sched_point.h"
#include "fault/clock.h"
#include "fault/injector.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"

namespace acps::comm {
namespace {

// Bounded retry budget for one exchange step. Exhausting it means the fault
// is not transient (a hostile injector, or the only publisher is dead):
// every rank then throws fault::DetectedError in lockstep.
constexpr int kMaxDeliveryAttempts = 8;

int Mod(int x, int p) { return ((x % p) + p) % p; }

// FNV-1a over the payload, seeded with the sequence number and the owning
// session's envelope salt: a stale message whose bytes happen to match still
// fails validation if its seq was forged, and a chunk sealed under another
// session never validates here. salt == 0 (the anonymous session)
// reproduces the pre-session checksum bit for bit.
uint32_t EnvelopeChecksum(std::span<const std::byte> bytes, uint64_t seq,
                          uint64_t salt) noexcept {
  uint32_t h = 2166136261u ^ static_cast<uint32_t>((seq ^ salt) * 2654435761ULL);
  for (const std::byte b : bytes) {
    h ^= static_cast<uint32_t>(b);
    h *= 16777619u;
  }
  return h;
}

void ReduceInto(std::span<float> dst, std::span<const float> src,
                ReduceOp op) {
  ACPS_CHECK(dst.size() == src.size());
  switch (op) {
    case ReduceOp::kSum:
      for (size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
      return;
    case ReduceOp::kMax:
      for (size_t i = 0; i < dst.size(); ++i) dst[i] = std::max(dst[i], src[i]);
      return;
  }
  ACPS_FAIL_MSG("unknown ReduceOp");
}

std::span<const std::byte> AsBytes(std::span<const float> v) {
  return {reinterpret_cast<const std::byte*>(v.data()),
          v.size() * sizeof(float)};
}

std::span<const float> AsFloats(std::span<const std::byte> v) {
  ACPS_CHECK(v.size() % sizeof(float) == 0);
  return {reinterpret_cast<const float*>(v.data()), v.size() / sizeof(float)};
}

// RAII wrapper around one collective call: registers the rank as "inside
// `fp`" for the watchdog, runs the contract rendezvous (no-op unless the
// session has contract checking enabled), and clears the watchdog status on
// exit. If the rendezvous throws (contract violation / abort) the status
// intentionally stays set — the group is dead and the stale entry only
// feeds post-mortem reports; the next Run resets the checker.
class ContractScope {
 public:
  ContractScope(detail::GroupState* st, int rank,
                const CollectiveFingerprint& fp)
      : st_(st), rank_(rank) {
    st_->contract.Enter(rank_, fp);
    st_->CheckedRendezvous(rank_, fp);
  }

  ContractScope(const ContractScope&) = delete;
  ContractScope& operator=(const ContractScope&) = delete;

  ~ContractScope() { st_->contract.Exit(rank_); }

 private:
  detail::GroupState* st_;
  int rank_;
};

}  // namespace

ChunkRange GetChunkRange(int64_t n, int p, int chunk) {
  ACPS_CHECK_MSG(p >= 1 && chunk >= 0 && chunk < p, "bad chunk index");
  const int64_t base = n / p;
  const int64_t rem = n % p;
  const int64_t extra = std::min<int64_t>(chunk, rem);
  const int64_t begin = base * chunk + extra;
  const int64_t size = base + (chunk < rem ? 1 : 0);
  return ChunkRange{begin, begin + size};
}

Communicator::Communicator(detail::GroupState* state, int rank, int world_size,
                           uint64_t resume_seq, int generation)
    : state_(state), rank_(rank), world_size_(world_size),
      tracer_(state->tracer), metrics_(state->metrics),
      collective_seq_(resume_seq), generation_(generation) {
  if (metrics_ != nullptr) {
    // Resolve the session-namespaced fault counters once; the prefix is ""
    // for the anonymous session, so the historical flat names
    // (`fault.crash.ranks`, ...) are preserved there.
    const std::string& pre = state_->metric_prefix;
    ctr_crash_ranks_ = &metrics_->counter(pre + "fault.crash.ranks");
    ctr_straggler_events_ = &metrics_->counter(pre + "fault.straggler.events");
    ctr_straggler_ticks_ = &metrics_->counter(pre + "fault.straggler.ticks");
    ctr_retry_attempts_ = &metrics_->counter(pre + "fault.retry.attempts");
    ctr_detected_ = &metrics_->counter(pre + "fault.detected");
    ctr_rejoin_admitted_ = &metrics_->counter(pre + "fault.rejoin.admitted");
    ctr_join_ranks_ = &metrics_->counter(pre + "fault.join.ranks");
    ctr_leave_ranks_ = &metrics_->counter(pre + "fault.leave.ranks");
  }
  RefreshView();
}

fault::FaultInjector* Communicator::ActiveInjector() const noexcept {
  fault::FaultInjector* inj = state_->injector;
  return inj != nullptr ? inj : fault::InstalledFaultInjector();
}

void Communicator::RefreshView() {
  std::lock_guard lock(state_->group_mu);
  view_.clear();
  view_alive_.assign(static_cast<size_t>(world_size_), 0);
  for (int r = 0; r < world_size_; ++r) {
    if (state_->alive[static_cast<size_t>(r)] != 0) {
      view_.push_back(r);
      view_alive_[static_cast<size_t>(r)] = 1;
    }
  }
  epoch_ = state_->epoch;
  // Noted under group_mu -> contract_mu, the same ascending order MarkDead
  // uses; visible in watchdog reports so epoch skew is diagnosable.
  state_->contract.NoteEpoch(rank_, epoch_);
}

int Communicator::ViewIndex() const {
  const auto it = std::lower_bound(view_.begin(), view_.end(), rank_);
  ACPS_CHECK_MSG(it != view_.end() && *it == rank_,
                 "rank not in alive view");
  return static_cast<int>(it - view_.begin());
}

uint64_t Communicator::StepSeq(int phase, int step) const {
  ACPS_CHECK(phase >= 0 && phase < 16 && step >= 0 && step < (1 << 16));
  return (collective_seq_ << 20) | (static_cast<uint64_t>(phase) << 16) |
         static_cast<uint64_t>(step);
}

void Communicator::EnterCollective() {
  // Collectives are rendezvous-synchronous, so every rank's counter stays in
  // lockstep and StepSeq values agree group-wide without communication.
  ++collective_seq_;
  fault::FaultInjector* inj = ActiveInjector();
  if (inj == nullptr) return;

  // Injected runs only: entry fault site, then a membership-stabilization
  // barrier so every survivor samples the same alive view for this
  // collective. Crash decisions always precede the barrier, and the barrier
  // cannot complete until every survivor arrives, so the view is identical
  // (and thus view-derived scales are deterministic) across ranks.
  const fault::EntryDecision decision =
      inj->OnCollectiveEntry(rank_, collective_seq_);
  if (decision.kind == fault::FaultKind::kCrash) {
    if (ctr_crash_ranks_ != nullptr) ctr_crash_ranks_->Add();
    if (tracer_ != nullptr && tracer_->enabled()) {
      const int64_t now = tracer_->NowUs();
      tracer_->Record(obs::SpanEvent{"fault_crash", obs::kCatFault, rank_, now,
                                     now, 0,
                                     static_cast<int64_t>(collective_seq_)});
    }
    // Fired before MarkDead so a schedule controller's alive-set reflects
    // the crash before any survivor clears the entry-stabilization barrier
    // (which MarkDead releases) and publishes into a shrunken window.
    check::SchedPoint(check::PointKind::kRankDown, rank_);
    state_->MarkDead(rank_);
    throw fault::RankCrashed{rank_, collective_seq_};
  }
  if (decision.kind == fault::FaultKind::kStraggler) {
    if (ctr_straggler_events_ != nullptr) {
      ctr_straggler_events_->Add();
      ctr_straggler_ticks_->Add(static_cast<uint64_t>(decision.ticks));
    }
    if (tracer_ != nullptr && tracer_->enabled()) {
      const int64_t now = tracer_->NowUs();
      tracer_->Record(obs::SpanEvent{"fault_straggler", obs::kCatFault, rank_,
                                     now, now, 0, decision.ticks});
    }
    // Straggler latency is virtual: charge ticks to the replayable clock and
    // yield a bounded number of times; the entry barrier below is what
    // actually absorbs the (virtual) delay, so results stay bitwise equal.
    fault::VirtualClock::Advance(decision.ticks);
    state_->contract.NoteStraggler(rank_, decision.ticks);
    fault::SpinYield(2);
  }
  state_->Barrier();
  RefreshView();
}

void Communicator::ReliableStep(uint64_t seq, bool publish,
                                std::span<const std::byte> payload,
                                check::PointKind kind, int fanout,
                                std::span<const int> read_from,
                                const ConsumeFn& consume) {
  ACPS_CHECK_MSG(read_from.size() <= 64,
                 "reliable step supports at most 64 sources");
  fault::FaultInjector* inj = ActiveInjector();
  const uint64_t salt = state_->envelope_salt;
  uint64_t consumed = 0;  // bit i: read_from[i] validated and consumed
  for (int attempt = 0;; ++attempt) {
    if (publish) {
      const fault::FaultKind fk =
          inj != nullptr ? inj->OnPublish(rank_, seq, attempt)
                         : fault::FaultKind::kNone;
      // Wire cost is charged even for dropped or retried publishes — the
      // bytes were put on the wire either way. Fault-free this is exactly
      // one message of |payload| bytes (times `fanout` for one-to-many
      // publishes), byte-identical to the pre-envelope transport.
      stats_.bytes_sent += payload.size() * static_cast<size_t>(fanout);
      stats_.messages_sent += static_cast<uint64_t>(fanout);
      if (fk != fault::FaultKind::kDrop) {
        auto& box = state_->mailbox[static_cast<size_t>(rank_)];
        const bool fresh = box.cur.seq != seq;
        // Schedule points fire only on the first attempt: retries replay
        // data movement, not the explored schedule, so the controller's
        // per-window publish accounting is unaffected by recovery.
        if (attempt == 0 && fresh && kind == check::PointKind::kHandoffSend)
          check::SchedPoint(check::PointKind::kHandoffSend, rank_);
        if (fresh) {
          box.prev = std::move(box.cur);
          box.cur = detail::Message{};
        }
        box.cur.bytes.assign(payload.begin(), payload.end());
        if (attempt == 0) {
          // The controller may mutate the payload here (fault-injection
          // mode); the checksum below is computed afterwards, sealing the
          // mutation in. Model-checker corruption is therefore *delivered*
          // (and caught by the check-layer oracles), while injector
          // corruption — applied after the seal — is *detected* and retried.
          check::SchedPoint(kind == check::PointKind::kHandoffSend
                                ? check::PointKind::kHandoffPublished
                                : check::PointKind::kRootPublish,
                            rank_,
                            std::span<std::byte>(box.cur.bytes.data(),
                                                 box.cur.bytes.size()));
        }
        box.cur.seq = seq;
        box.cur.checksum = EnvelopeChecksum(
            {box.cur.bytes.data(), box.cur.bytes.size()}, seq, salt);
        if (fk == fault::FaultKind::kDuplicate) {
          // Replay: the previous message overwrites this publish.
          box.cur = box.prev;
        } else if (fk == fault::FaultKind::kCorrupt) {
          // Wire corruption after the checksum seal: rotate each byte's
          // bits so validation fails deterministically.
          for (std::byte& b : box.cur.bytes) {
            const auto u = static_cast<uint8_t>(b);
            b = static_cast<std::byte>(
                static_cast<uint8_t>((u << 1) | (u >> 7)));
          }
        }
      }
    }
    state_->Barrier();

    bool ok = true;
    std::string why;
    int why_from = -1;
    for (size_t i = 0; i < read_from.size(); ++i) {
      if ((consumed & (uint64_t{1} << i)) != 0) continue;
      const int from = read_from[i];
      const fault::FaultKind fk =
          inj != nullptr ? inj->OnRead(rank_, seq, attempt)
                         : fault::FaultKind::kNone;
      const auto& box = state_->mailbox[static_cast<size_t>(from)];
      const detail::Message& m =
          fk == fault::FaultKind::kStaleRead ? box.prev : box.cur;
      const char* fail = nullptr;
      if (m.seq != seq)
        fail = "sequence mismatch (lost, replayed or stale chunk)";
      else if (EnvelopeChecksum({m.bytes.data(), m.bytes.size()}, m.seq,
                                salt) != m.checksum)
        fail = "checksum mismatch (corrupted chunk)";
      if (fail == nullptr) {
        consume(from, std::span<const std::byte>(m.bytes.data(),
                                                 m.bytes.size()));
        consumed |= uint64_t{1} << i;
      } else {
        ok = false;
        why = fail;
        why_from = from;
      }
    }
    state_->retry_flag[static_cast<size_t>(rank_)] = ok ? 0 : 1;
    state_->Barrier();

    // Flags are stable here: no rank can overwrite its flag before the next
    // first barrier, which needs every rank to finish this scan first. All
    // ranks therefore compute the same verdict and retry (or throw) in
    // lockstep — no rank is ever left waiting at a barrier.
    bool again = false;
    for (const int r : view_)
      again = again || state_->retry_flag[static_cast<size_t>(r)] != 0;
    if (!again) return;

    if (ctr_retry_attempts_ != nullptr) ctr_retry_attempts_->Add();
    if (tracer_ != nullptr && tracer_->enabled()) {
      const int64_t now = tracer_->NowUs();
      tracer_->Record(obs::SpanEvent{"fault_retry", obs::kCatFault, rank_, now,
                                     now, payload.size(), attempt});
    }
    if (attempt + 1 >= kMaxDeliveryAttempts) {
      if (ctr_detected_ != nullptr) ctr_detected_->Add();
      std::ostringstream os;
      os << "fault detected: chunk delivery failed after "
         << kMaxDeliveryAttempts << " attempts (rank " << rank_
         << ", collective #" << collective_seq_ << ", seq=0x" << std::hex
         << seq << std::dec << ")";
      if (why_from >= 0)
        os << ": " << why << " reading from rank " << why_from;
      else
        os << ": a peer reported undeliverable chunks";
      if (inj != nullptr) os << "; replay with " << inj->Describe();
      throw fault::DetectedError(os.str());
    }
    fault::ConsumeBackoff(attempt);
  }
}

void Communicator::barrier() {
  obs::ScopedSpan span(tracer_, "barrier", obs::kCatComm, rank_);
  EnterCollective();
  ContractScope contract(
      state_, rank_, CollectiveFingerprint{.kind = CollectiveKind::kBarrier,
                            .epoch = epoch_});
  state_->Barrier();
}

detail::ViewTransition Communicator::commit_view() {
  obs::ScopedSpan span(tracer_, "commit_view", obs::kCatComm, rank_);
  // Crashable entry, like every collective: a rank can die on its way into
  // the commit, and the commit then runs over the survivors.
  EnterCollective();

  // Stable commit index: every rank passed the previous commit's closing
  // barrier before any rank reached this collective's entry, so
  // commit_count cannot move between these reads across ranks.
  uint64_t commit_index;
  {
    std::lock_guard lock(state_->group_mu);
    commit_index = state_->commit_count + 1;
  }

  // Graceful departures fire before the opening barrier: MarkLeft removes
  // the leaver from the barrier membership, so the survivors' barrier
  // completes over the shrunken view (same ordering argument as MarkDead
  // at collective entry — the barrier cannot complete while the leaver is
  // still counted alive).
  fault::FaultInjector* inj = ActiveInjector();
  if (inj != nullptr && inj->LeavesAtCommit(rank_, commit_index)) {
    if (ctr_leave_ranks_ != nullptr) ctr_leave_ranks_->Add();
    if (tracer_ != nullptr && tracer_->enabled()) {
      const int64_t now = tracer_->NowUs();
      tracer_->Record(obs::SpanEvent{"fault_leave", obs::kCatFault, rank_, now,
                                     now, 0,
                                     static_cast<int64_t>(commit_index)});
    }
    // Same ordering rule as the crash branch: the controller learns of the
    // departure before MarkLeft lets the survivors' barrier complete.
    check::SchedPoint(check::PointKind::kRankDown, rank_);
    state_->MarkLeft(rank_);
    throw fault::RankDeparted{rank_, commit_index};
  }

  check::SchedPoint(check::PointKind::kViewCommit, rank_);
  ContractScope contract(
      state_, rank_, CollectiveFingerprint{.kind = CollectiveKind::kViewCommit,
                            .epoch = epoch_});

  // Opening barrier: membership is now stable for this commit (crashes only
  // fire at collective entries, leavers are already gone).
  state_->Barrier();

  // Every survivor calls the applier; the first to take the lock applies,
  // the rest read the identical committed record.
  const detail::ViewTransition t =
      state_->ApplyViewCommit(commit_index, collective_seq_);

  // The lowest-ranked survivor emits the membership metrics, outside
  // group_mu and exactly once per commit. The pre-commit view is used on
  // purpose: a newly admitted rank is not running commit_view and must not
  // be eligible to emit.
  if (ViewIndex() == 0 && metrics_ != nullptr) {
    const auto rejoins = static_cast<uint64_t>(t.rejoined.size());
    const auto fresh = static_cast<uint64_t>(t.joined.size()) - rejoins;
    if (rejoins > 0 && ctr_rejoin_admitted_ != nullptr)
      ctr_rejoin_admitted_->Add(rejoins);
    if (fresh > 0 && ctr_join_ranks_ != nullptr) ctr_join_ranks_->Add(fresh);
    metrics_->gauge(state_->metric_prefix + "comm.epoch")
        .Set(static_cast<double>(t.epoch));
  }

  // Closing barrier: newly admitted ranks join it (their one Barrier()
  // call after AwaitAdmission), so the whole group — survivors plus
  // joiners — leaves the commit aligned.
  state_->Barrier();
  RefreshView();
  return t;
}

detail::ViewTransition Communicator::last_transition() const {
  std::lock_guard lock(state_->group_mu);
  return state_->last_transition;
}

void Communicator::all_reduce(std::span<float> data, ReduceOp op,
                              AllReduceAlgo algo) {
  // The per-call default defers to the session's configured algorithm; the
  // resolved value feeds the contract fingerprint, so mixed-session
  // cross-checks (one session ring, one naive) stay well-defined.
  if (algo == AllReduceAlgo::kSessionDefault) algo = state_->default_algo;
  obs::ScopedSpan span(tracer_,
                       algo == AllReduceAlgo::kRing ? "all_reduce"
                                                    : "all_reduce_naive",
                       obs::kCatComm, rank_, data.size() * sizeof(float));
  EnterCollective();
  ContractScope contract(
      state_, rank_,
      CollectiveFingerprint{.kind = CollectiveKind::kAllReduce,
                            .bytes = data.size() * sizeof(float),
                            .op = static_cast<int>(op),
                            .algo = static_cast<int>(algo),
                            .epoch = epoch_});
  if (algo == AllReduceAlgo::kNaive) {
    AllReduceNaive(data, op);
    return;
  }
  ++stats_.collectives;
  const int pa = alive_world_size();
  if (pa == 1 || data.empty()) return;
  const int64_t n = static_cast<int64_t>(data.size());
  const int vi = ViewIndex();
  const int pred[] = {view_[static_cast<size_t>(Mod(vi - 1, pa))]};

  // --- Phase 0: ring reduce-scatter over the alive view. After pa-1 steps
  // the worker at view position i owns the fully reduced chunk i.
  for (int s = 0; s < pa - 1; ++s) {
    const ChunkRange sc = GetChunkRange(n, pa, Mod(vi - s - 1, pa));
    const ChunkRange rc = GetChunkRange(n, pa, Mod(vi - s - 2, pa));
    ReliableStep(
        StepSeq(0, s), /*publish=*/true,
        AsBytes(data.subspan(static_cast<size_t>(sc.begin),
                             static_cast<size_t>(sc.size()))),
        check::PointKind::kHandoffSend, /*fanout=*/1, pred,
        [&](int, std::span<const std::byte> bytes) {
          ReduceInto(data.subspan(static_cast<size_t>(rc.begin),
                                  static_cast<size_t>(rc.size())),
                     AsFloats(bytes), op);
        });
  }

  // --- Phase 1: ring all-gather of the reduced chunks.
  for (int s = 0; s < pa - 1; ++s) {
    const ChunkRange sc = GetChunkRange(n, pa, Mod(vi - s, pa));
    const ChunkRange rc = GetChunkRange(n, pa, Mod(vi - s - 1, pa));
    ReliableStep(
        StepSeq(1, s), /*publish=*/true,
        AsBytes(data.subspan(static_cast<size_t>(sc.begin),
                             static_cast<size_t>(sc.size()))),
        check::PointKind::kHandoffSend, /*fanout=*/1, pred,
        [&](int, std::span<const std::byte> bytes) {
          const auto incoming = AsFloats(bytes);
          ACPS_CHECK(static_cast<int64_t>(incoming.size()) == rc.size());
          std::copy(incoming.begin(), incoming.end(),
                    data.begin() + static_cast<size_t>(rc.begin));
        });
  }
}

void Communicator::AllReduceNaive(std::span<float> data, ReduceOp op) {
  ++stats_.collectives;
  const int pa = alive_world_size();
  if (pa == 1 || data.empty()) return;
  const int root = view_[0];

  // Everyone publishes; the root (first alive rank) reduces; the root
  // publishes the result; everyone copies. This is the flat O(p·N)
  // reference algorithm. The root's phase-0 mailbox is never read, so
  // retried steps may safely republish its partially reduced buffer.
  std::vector<int> others;
  if (rank_ == root) {
    others.reserve(static_cast<size_t>(pa - 1));
    for (const int r : view_)
      if (r != root) others.push_back(r);
  }
  ReliableStep(StepSeq(0, 0), /*publish=*/true, AsBytes(data),
               check::PointKind::kHandoffSend, /*fanout=*/1, others,
               [&](int, std::span<const std::byte> bytes) {
                 ReduceInto(data, AsFloats(bytes), op);
               });

  const int root_src[] = {root};
  ReliableStep(StepSeq(1, 0), /*publish=*/rank_ == root, AsBytes(data),
               check::PointKind::kRootPublish, /*fanout=*/1,
               rank_ == root ? std::span<const int>{}
                             : std::span<const int>(root_src),
               [&](int, std::span<const std::byte> bytes) {
                 const auto result = AsFloats(bytes);
                 ACPS_CHECK(result.size() == data.size());
                 std::copy(result.begin(), result.end(), data.begin());
               });
}

void Communicator::all_gather(std::span<const float> send,
                              std::span<float> recv) {
  obs::ScopedSpan span(tracer_, "all_gather", obs::kCatComm, rank_,
                       send.size() * sizeof(float));
  EnterCollective();
  ContractScope contract(
      state_, rank_,
      CollectiveFingerprint{.kind = CollectiveKind::kAllGather,
                            .bytes = send.size() * sizeof(float),
                            .epoch = epoch_});
  ACPS_CHECK_MSG(recv.size() == send.size() * static_cast<size_t>(world_size_),
                 "all_gather recv size must be p * send size");
  // Place own block, then run the byte-wise ring over the recv buffer.
  std::copy(send.begin(), send.end(),
            recv.begin() + static_cast<size_t>(rank_) * send.size());
  auto recv_bytes =
      std::span<std::byte>(reinterpret_cast<std::byte*>(recv.data()),
                           recv.size() * sizeof(float));
  RingAllGatherBlocks(recv_bytes, send.size() * sizeof(float), /*phase=*/0);
}

void Communicator::all_gather_bytes(std::span<const std::byte> send,
                                    std::span<std::byte> recv) {
  obs::ScopedSpan span(tracer_, "all_gather_bytes", obs::kCatComm, rank_,
                       send.size());
  EnterCollective();
  ContractScope contract(
      state_, rank_,
      CollectiveFingerprint{.kind = CollectiveKind::kAllGatherBytes,
                            .bytes = send.size(),
                            .epoch = epoch_});
  ACPS_CHECK_MSG(recv.size() == send.size() * static_cast<size_t>(world_size_),
                 "all_gather_bytes recv size must be p * send size");
  std::copy(send.begin(), send.end(),
            recv.begin() + static_cast<size_t>(rank_) * send.size());
  RingAllGatherBlocks(recv, send.size(), /*phase=*/0);
}

void Communicator::RingAllGatherBlocks(std::span<std::byte> buf,
                                       size_t block_bytes, int phase) {
  ++stats_.collectives;
  const int pa = alive_world_size();
  if (block_bytes == 0) return;
  // Degraded membership: crashed ranks contribute all-zero blocks, so the
  // gathered buffer stays deterministic and consumers can skip dead blocks
  // by rank.
  if (pa != world_size_) {
    for (int r = 0; r < world_size_; ++r) {
      if (!is_alive(r))
        std::memset(buf.data() + static_cast<size_t>(r) * block_bytes, 0,
                    block_bytes);
    }
  }
  if (pa == 1) return;
  const int vi = ViewIndex();
  const int pred[] = {view_[static_cast<size_t>(Mod(vi - 1, pa))]};
  // Blocks are indexed by *real* rank; the ring circulates the alive blocks
  // through the alive view.
  for (int s = 0; s < pa - 1; ++s) {
    const int send_rank = view_[static_cast<size_t>(Mod(vi - s, pa))];
    const int recv_rank = view_[static_cast<size_t>(Mod(vi - s - 1, pa))];
    ReliableStep(
        StepSeq(phase, s), /*publish=*/true,
        buf.subspan(static_cast<size_t>(send_rank) * block_bytes, block_bytes),
        check::PointKind::kHandoffSend, /*fanout=*/1, pred,
        [&](int, std::span<const std::byte> bytes) {
          ACPS_CHECK(bytes.size() == block_bytes);
          std::memcpy(buf.data() + static_cast<size_t>(recv_rank) * block_bytes,
                      bytes.data(), block_bytes);
        });
  }
}

void Communicator::all_gather_v(std::span<const std::byte> send,
                                std::vector<std::byte>& recv,
                                std::vector<size_t>& offsets) {
  obs::ScopedSpan span(tracer_, "all_gather_v", obs::kCatComm, rank_,
                       send.size());
  EnterCollective();
  ContractScope contract(
      state_, rank_,
      CollectiveFingerprint{.kind = CollectiveKind::kAllGatherV,
                            .bytes = send.size(),
                            .epoch = epoch_,
                            .variable_size = true});
  ++stats_.collectives;
  const int p = world_size_;
  const int pa = alive_world_size();
  // Exchange sizes through the board. Crashed ranks' slots may hold stale
  // values; readers treat dead slots as zero-length contributions.
  state_->sizes[static_cast<size_t>(rank_)] = send.size();
  state_->Barrier();
  const auto size_of = [&](int r) -> size_t {
    return is_alive(r) ? state_->sizes[static_cast<size_t>(r)] : 0;
  };
  offsets.assign(static_cast<size_t>(p) + 1, 0);
  for (int r = 0; r < p; ++r)
    offsets[static_cast<size_t>(r) + 1] =
        offsets[static_cast<size_t>(r)] + size_of(r);
  recv.assign(offsets.back(), std::byte{0});
  state_->Barrier();

  if (pa == 1) {
    std::copy(send.begin(), send.end(),
              recv.begin() +
                  static_cast<ptrdiff_t>(offsets[static_cast<size_t>(rank_)]));
    return;
  }

  // Ring with variable block sizes: block r = worker r's contribution.
  std::copy(send.begin(), send.end(),
            recv.begin() +
                static_cast<ptrdiff_t>(offsets[static_cast<size_t>(rank_)]));
  const int vi = ViewIndex();
  const int pred[] = {view_[static_cast<size_t>(Mod(vi - 1, pa))]};
  for (int s = 0; s < pa - 1; ++s) {
    const int send_rank = view_[static_cast<size_t>(Mod(vi - s, pa))];
    const int recv_rank = view_[static_cast<size_t>(Mod(vi - s - 1, pa))];
    const size_t recv_size = size_of(recv_rank);
    ReliableStep(
        StepSeq(0, s), /*publish=*/true,
        std::span<const std::byte>(
            recv.data() + offsets[static_cast<size_t>(send_rank)],
            size_of(send_rank)),
        check::PointKind::kHandoffSend, /*fanout=*/1, pred,
        [&](int, std::span<const std::byte> bytes) {
          ACPS_CHECK(bytes.size() == recv_size);
          std::memcpy(recv.data() + offsets[static_cast<size_t>(recv_rank)],
                      bytes.data(), bytes.size());
        });
  }
}

void Communicator::reduce_scatter(std::span<float> data, ReduceOp op) {
  obs::ScopedSpan span(tracer_, "reduce_scatter", obs::kCatComm, rank_,
                       data.size() * sizeof(float));
  EnterCollective();
  ContractScope contract(
      state_, rank_,
      CollectiveFingerprint{.kind = CollectiveKind::kReduceScatter,
                            .bytes = data.size() * sizeof(float),
                            .op = static_cast<int>(op),
                            .epoch = epoch_});
  ++stats_.collectives;
  const int pa = alive_world_size();
  if (pa == 1 || data.empty()) return;
  const int64_t n = static_cast<int64_t>(data.size());
  const int vi = ViewIndex();
  const int pred[] = {view_[static_cast<size_t>(Mod(vi - 1, pa))]};
  for (int s = 0; s < pa - 1; ++s) {
    const ChunkRange sc = GetChunkRange(n, pa, Mod(vi - s - 1, pa));
    const ChunkRange rc = GetChunkRange(n, pa, Mod(vi - s - 2, pa));
    ReliableStep(
        StepSeq(0, s), /*publish=*/true,
        AsBytes(std::span<const float>(data).subspan(
            static_cast<size_t>(sc.begin), static_cast<size_t>(sc.size()))),
        check::PointKind::kHandoffSend, /*fanout=*/1, pred,
        [&](int, std::span<const std::byte> bytes) {
          ReduceInto(data.subspan(static_cast<size_t>(rc.begin),
                                  static_cast<size_t>(rc.size())),
                     AsFloats(bytes), op);
        });
  }
}

void Communicator::broadcast(std::span<float> data, int root) {
  obs::ScopedSpan span(tracer_, "broadcast", obs::kCatComm, rank_,
                       data.size() * sizeof(float));
  EnterCollective();
  ContractScope contract(
      state_, rank_,
      CollectiveFingerprint{.kind = CollectiveKind::kBroadcast,
                            .bytes = data.size() * sizeof(float),
                            .root = root,
                            .epoch = epoch_});
  ++stats_.collectives;
  ACPS_CHECK_MSG(root >= 0 && root < world_size_,
                 "broadcast root out of range");
  const int pa = alive_world_size();
  if (!is_alive(root)) {
    // The only publisher is dead: unsatisfiable, but *detected* — every
    // surviving rank computed the same view, so all throw in lockstep.
    if (ctr_detected_ != nullptr) ctr_detected_->Add();
    std::ostringstream os;
    os << "fault detected: broadcast root rank " << root
       << " has crashed (fail-stop); collective #" << collective_seq_
       << " cannot be satisfied";
    if (fault::FaultInjector* inj = ActiveInjector())
      os << "; replay with " << inj->Describe();
    throw fault::DetectedError(os.str());
  }
  if (pa == 1 || data.empty()) return;
  const int root_src[] = {root};
  ReliableStep(StepSeq(0, 0), /*publish=*/rank_ == root, AsBytes(data),
               check::PointKind::kRootPublish, /*fanout=*/pa - 1,
               rank_ == root ? std::span<const int>{}
                             : std::span<const int>(root_src),
               [&](int, std::span<const std::byte> bytes) {
                 const auto incoming = AsFloats(bytes);
                 ACPS_CHECK(incoming.size() == data.size());
                 std::copy(incoming.begin(), incoming.end(), data.begin());
               });
}

}  // namespace acps::comm
