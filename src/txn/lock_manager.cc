#include "txn/lock_manager.h"

#include <algorithm>
#include <string>

namespace bionicdb::txn {

bool LockManager::Compatible(const LockState& ls, TxnId txn,
                             LockMode mode) const {
  for (const Holder& h : ls.holders) {
    if (h.txn == txn) continue;
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

bool LockManager::ShouldDie(const LockState& ls, const Xct& xct,
                            LockMode mode) const {
  for (const Holder& h : ls.holders) {
    if (h.txn == xct.id) continue;
    const bool conflicts =
        mode == LockMode::kExclusive || h.mode == LockMode::kExclusive;
    // Wait-die: smaller priority == older. A requester that conflicts with
    // an older holder dies.
    if (conflicts && h.priority < xct.priority) return true;
  }
  return false;
}

sim::Task<Status> LockManager::Acquire(Xct* xct, LockKey key, LockMode mode) {
  ++stats_.acquires;
  const SimTime t0 = sim_->Now();
  bool waited = false;
  for (;;) {
    LockState& ls = table_[key];
    // Re-entrant fast path.
    Holder* mine = nullptr;
    for (Holder& h : ls.holders) {
      if (h.txn == xct->id) mine = &h;
    }
    if (mine != nullptr) {
      if (mine->mode == LockMode::kExclusive || mode == LockMode::kShared) {
        co_return Status::OK();
      }
      // Upgrade S -> X: legal only while no other holder remains.
      if (ls.holders.size() == 1) {
        mine->mode = LockMode::kExclusive;
        co_return Status::OK();
      }
    } else if (Compatible(ls, xct->id, mode)) {
      ls.holders.push_back(Holder{xct->id, xct->priority, mode});
      xct->held_locks.emplace_back(0u, key);
      if (waited) stats_.wait_ns += sim_->Now() - t0;
      co_return Status::OK();
    }

    if (ShouldDie(ls, *xct, mode)) {
      ++stats_.wait_die_aborts;
      // A woken waiter that dies here may be the last party interested in
      // this key; reclaim the slot it would otherwise orphan.
      MaybeReclaim(key);
      co_return Status::Aborted("wait-die: lock " + std::string(key.view()) +
                                " held by older transaction");
    }
    // Older than every conflicting holder: wait for a release.
    if (ls.waiters == nullptr) ls.waiters = new sim::CondVar(sim_);
    ++ls.waiting;
    if (!waited) {
      waited = true;
      ++stats_.waits;
    }
    co_await ls.waiters->Wait();
    auto it = table_.find(key);
    BIONICDB_CHECK(it != table_.end());
    --it->second.waiting;
  }
}

void LockManager::ReleaseAll(Xct* xct) {
  for (auto& [unused, key] : xct->held_locks) {
    (void)unused;
    auto it = table_.find(key);
    if (it == table_.end()) continue;
    LockState& ls = it->second;
    ls.holders.erase(
        std::remove_if(ls.holders.begin(), ls.holders.end(),
                       [&](const Holder& h) { return h.txn == xct->id; }),
        ls.holders.end());
    if (ls.waiters != nullptr && ls.waiting > 0) {
      // Waiters requeue on wakeup; whichever leaves last (by acquiring or
      // dying) reclaims the slot via MaybeReclaim.
      ls.waiters->NotifyAll();
    } else {
      MaybeReclaim(key);
    }
  }
  xct->held_locks.clear();
}

void LockManager::MaybeReclaim(const LockKey& key) {
  auto it = table_.find(key);
  if (it == table_.end()) return;
  LockState& ls = it->second;
  if (!ls.holders.empty() || ls.waiting > 0) return;
  if (ls.waiters != nullptr && ls.waiters->num_waiters() > 0) return;
  delete ls.waiters;
  table_.erase(it);
}

}  // namespace bionicdb::txn
