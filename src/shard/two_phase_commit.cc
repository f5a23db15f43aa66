#include "shard/two_phase_commit.h"

#include <algorithm>
#include <utility>

#include "obs/timeline.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace bionicdb::shard {

namespace {

/// Per-branch results collected at the execute/prepare join.
struct BranchOutcome {
  Status exec = Status::OK();
  Status vote = Status::OK();
  SimTime done_ts = 0;  ///< When this branch finished execute (+prepare).
};

/// One fan-out branch: execute on the home shard, then (2PC only) append
/// the yes-vote immediately — overlapped with sibling branches still
/// executing. Safe under presumed abort: if a sibling later fails, this
/// branch's durable kPrepare resolves to abort (no decision record will
/// ever exist) and FinishBranch(false) undoes it in place. Spawned for
/// every participant; the coordinator awaits it inline (no self-hop).
/// Plain namespace-scope coroutine (not a capturing lambda): every
/// pointer argument lives in Run's frame, which outlives the join.
sim::Task<void> RunBranchTask(engine::Engine* eng,
                              engine::Engine::BranchHandle* h,
                              engine::Engine::TxnSpec spec, int socket,
                              uint64_t* priority, uint64_t gtid, bool prepare,
                              bool wait_durable, BranchOutcome* out,
                              int* remaining, sim::Completion* done) {
  out->exec = co_await eng->ExecuteBranch(h, std::move(spec), socket,
                                          priority);
  if (prepare && out->exec.ok()) {
    out->vote = co_await eng->PrepareBranch(h, gtid, wait_durable);
  }
  out->done_ts = eng->simulator()->Now();
  if (--*remaining == 0) done->Set();
}

/// One fan-out finish: charge the stall since `since` (the decision, or
/// the join when none was attempted), then commit or abort locally.
/// Spawned for every participant; the coordinator awaits it inline.
sim::Task<void> FinishBranchTask(engine::Engine* eng,
                                 engine::Engine::BranchHandle* h, bool commit,
                                 SimTime since, Status* out, int* remaining,
                                 sim::Completion* done) {
  if (h->tl != nullptr) {
    h->tl->Charge(obs::Stage::kTwoPCFinish, eng->simulator()->Now() - since);
  }
  *out = co_await eng->FinishBranch(h, commit);
  if (--*remaining == 0) done->Set();
}

}  // namespace

void TwoPhaseCommit::OrderFragments(ShardedTxn* txn) {
  // Ascending shard order. No longer needed for deadlock freedom (the
  // shared pinned wait-die priority covers that — see the header), but it
  // keeps the coordinator choice and gtid draw deterministic regardless of
  // how the caller ordered its fragments.
  std::sort(txn->fragments.begin(), txn->fragments.end(),
            [](const ShardFragment& a, const ShardFragment& b) {
              return a.shard < b.shard;
            });
  for (size_t i = 1; i < txn->fragments.size(); ++i) {
    BIONICDB_CHECK_MSG(
        txn->fragments[i].shard != txn->fragments[i - 1].shard,
        "two fragments routed to shard %d: merge them into one spec",
        txn->fragments[i].shard);
  }
}

uint64_t* TwoPhaseCommit::PinPriority(int coord, uint64_t* priority,
                                      uint64_t* local) {
  uint64_t* prio = priority != nullptr ? priority : local;
  if (*prio == 0) {
    // Draw the shared wait-die timestamp up front: concurrently spawned
    // branches would otherwise race to assign it from whichever branch's
    // Begin() ran first (ExecuteBranch suspends before Begin).
    *prio = shard(coord)->xct_manager().DrawPriority();
  }
  return prio;
}

bool TwoPhaseCommit::IsReadOnlyTxn(const ShardedTxn& txn) {
  for (const ShardFragment& frag : txn.fragments) {
    if (frag.spec.dynamic_phases) return false;
    for (const engine::Engine::Phase& phase : frag.spec.phases) {
      for (const engine::Engine::TxnStep& step : phase) {
        if (!step.read_only) return false;
      }
    }
  }
  return true;
}

sim::Task<bool> TwoPhaseCommit::FinishAll(
    std::vector<engine::Engine::BranchHandle>* branches,
    const ShardedTxn& txn, bool commit, SimTime since) {
  sim::Simulator* sim = shards_[0]->simulator();
  const size_t n = branches->size();
  sim::Completion done(sim);
  int remaining = static_cast<int>(n);
  std::vector<Status> sts(n, Status::OK());
  for (size_t i = 1; i < n; ++i) {
    sim->Spawn(FinishBranchTask(shard(txn.fragments[i].shard),
                                &(*branches)[i], commit, since, &sts[i],
                                &remaining, &done));
  }
  co_await FinishBranchTask(shard(txn.fragments[0].shard), &(*branches)[0],
                            commit, since, &sts[0], &remaining, &done);
  co_await done.Wait();
  for (const Status& st : sts) {
    if (!st.ok()) co_return false;
  }
  co_return true;
}

sim::Task<Status> TwoPhaseCommit::Run(ShardedTxn txn, int socket,
                                      uint64_t* priority) {
  BIONICDB_CHECK(txn.fragments.size() >= 2);
  // A fully read-only transaction is a snapshot read: no prepare, no
  // decision and no gtid (gtids key the WAL's kPrepare records).
  const bool snapshot = IsReadOnlyTxn(txn);
  OrderFragments(&txn);
  const uint64_t gtid = snapshot ? 0 : next_gtid_++;
  ++(snapshot ? snap_stats_.started : stats_.started);
  const size_t n = txn.fragments.size();
  const int coord = txn.fragments[0].shard;
  sim::Simulator* sim = shards_[0]->simulator();
  uint64_t local_prio = 0;
  uint64_t* prio = PinPriority(coord, priority, &local_prio);

  std::vector<engine::Engine::BranchHandle> branches(n);
  std::vector<BranchOutcome> outcomes(n);

  // --- Execute + phase 1, all branches concurrent. ------------------------
  // Participants are spawned onto the shared simulator; the coordinator's
  // fragment runs inline (no self-hop) and appends its prepare without a
  // durability wait — the decision record on the same log covers it (see
  // PrepareBranch's contract).
  sim::Completion exec_done(sim);
  int exec_remaining = static_cast<int>(n);
  for (size_t i = 1; i < n; ++i) {
    ShardFragment& frag = txn.fragments[i];
    sim->Spawn(RunBranchTask(shard(frag.shard), &branches[i],
                             std::move(frag.spec), socket, prio, gtid,
                             /*prepare=*/!snapshot, /*wait_durable=*/true,
                             &outcomes[i], &exec_remaining, &exec_done));
  }
  co_await RunBranchTask(shard(coord), &branches[0],
                         std::move(txn.fragments[0].spec), socket, prio, gtid,
                         /*prepare=*/!snapshot, /*wait_durable=*/false,
                         &outcomes[0], &exec_remaining, &exec_done);
  co_await exec_done.Wait();
  // For a snapshot read the join point IS the snapshot: every fragment
  // holds its shared locks right now, so under strict 2PL no writer
  // committed between any two fragments' reads — this instant is the
  // transaction's consistent virtual-time read point.
  const SimTime join_ts = sim->Now();
  for (size_t i = 0; i < n; ++i) {
    if (branches[i].tl != nullptr) {
      branches[i].tl->Charge(obs::Stage::kTwoPCExec,
                             join_ts - outcomes[i].done_ts);
    }
  }

  // --- Classify failures in fragment order (deterministic attribution). ---
  Status st = Status::OK();
  bool exec_failed = false;
  for (size_t i = 0; i < n && st.ok(); ++i) {
    if (!outcomes[i].exec.ok()) {
      st = outcomes[i].exec;
      exec_failed = true;
    } else if (!outcomes[i].vote.ok()) {
      st = outcomes[i].vote;
    }
  }
  if (!st.ok()) {
    if (snapshot) {
      ++snap_stats_.aborted;
    } else {
      ++(exec_failed ? stats_.exec_aborts : stats_.vote_failures);
      ++stats_.aborted;
    }
    co_await FinishAll(&branches, txn, /*commit=*/false, join_ts);
    co_return st;
  }
  if (snapshot) {
    // Read-only commit on every branch: zero WAL traffic, no 2PC record of
    // any kind.
    co_await FinishAll(&branches, txn, /*commit=*/true, join_ts);
    ++snap_stats_.committed;
    co_return Status::OK();
  }

  // --- Decision: durable on the coordinator before ANY branch commits. ----
  st = co_await shard(coord)->LogCoordCommit(&branches[0], gtid);
  const SimTime decision_ts = sim->Now();
  for (size_t i = 1; i < n; ++i) {
    if (branches[i].tl != nullptr) {
      branches[i].tl->Charge(obs::Stage::kTwoPCDecision,
                             decision_ts - join_ts);
    }
  }
  if (!st.ok()) {
    // The decision never became durable: presumed abort, cluster-wide.
    ++stats_.decision_failures;
    ++stats_.aborted;
    co_await FinishAll(&branches, txn, /*commit=*/false, decision_ts);
    co_return st;
  }

  // --- Phase 2: local commits, fanned out. The outcome is already
  // decided; a branch whose commit record fails durability is repaired
  // from the decision record at recovery (prepare + decision ==
  // committed), so the transaction still reports success.
  const bool all_durable =
      co_await FinishAll(&branches, txn, /*commit=*/true, decision_ts);
  ++stats_.committed;

  // --- Forget: retire the decision record once every branch's commit is
  // durable. Skipped when any branch's commit durability failed — that
  // branch still needs the decision for repair at recovery.
  if (all_durable) {
    co_await shard(coord)->LogCoordForget(gtid, socket);
    ++stats_.decisions_retired;
  }
  co_return Status::OK();
}

}  // namespace bionicdb::shard
