#include "dora/partition.h"

#include <algorithm>
#include <utility>

namespace bionicdb::dora {
namespace {

/// Inserts `key`, absent from `table`, with an empty value, re-keying a
/// node from `free` when there is one. A recycled node's value is an
/// emptied vector that kept its capacity.
template <typename Table>
typename Table::iterator Insert(Table* table,
                                std::vector<typename Table::node_type>* free,
                                const txn::LockKey& key) {
  if (free->empty()) return table->try_emplace(key).first;
  typename Table::node_type node = std::move(free->back());
  free->pop_back();
  node.key() = key;
  return table->insert(std::move(node)).position;
}

}  // namespace

LockOutcome Partition::TryLockAll(Action* action) {
  const txn::TxnId me = action->xct->id;
  // Pass 1: check compatibility on every key before taking anything.
  // Wait-die requires examining EVERY conflicting holder: if any is older,
  // this action must die — parking behind the first (younger) conflict
  // while an older holder shares the key would form old-waits-for-old
  // edges and allow deadlock cycles.
  const txn::LockKey* park_key = nullptr;
  for (size_t i = 0; i < action->num_lock_keys(); ++i) {
    const txn::LockKey& key = action->lock_key(i);
    auto it = locks_.find(key);
    if (it == locks_.end()) continue;
    for (const Holder& h : it->second) {
      if (h.txn == me) continue;
      const bool conflicts = !(h.shared && action->shared_locks);
      if (!conflicts) continue;
      if (h.priority < action->xct->priority) {
        // Older transaction holds it: die (wait-die).
        ++stats_.wait_die_aborts;
        return LockOutcome::kDie;
      }
      if (park_key == nullptr) park_key = &key;
    }
  }
  if (park_key != nullptr) {
    // Conflicts only with younger holders: park until one releases.
    auto pit = parked_.find(*park_key);
    if (pit == parked_.end()) pit = Insert(&parked_, &free_parked_, *park_key);
    pit->second.push_back(action);
    ++stats_.lock_conflicts;
    return LockOutcome::kParked;
  }
  // Pass 2: take them (no suspension between the passes).
  for (size_t i = 0; i < action->num_lock_keys(); ++i) {
    const txn::LockKey& key = action->lock_key(i);
    auto it = locks_.find(key);
    if (it == locks_.end()) it = Insert(&locks_, &free_locks_, key);
    std::vector<Holder>& holders = it->second;
    Holder* mine = nullptr;
    for (Holder& h : holders) {
      if (h.txn == me) mine = &h;
    }
    if (mine != nullptr) {
      // Upgrade S -> X if this action needs exclusivity.
      if (!action->shared_locks) mine->shared = false;
      continue;
    }
    holders.push_back(Holder{me, action->xct->priority, action->shared_locks});
    action->xct->held_locks.emplace_back(id_, key);
  }
  return LockOutcome::kGranted;
}

void Partition::ReleaseLocks(txn::Xct* xct, std::vector<Action*>* ready) {
  for (auto& [pid, key] : xct->held_locks) {
    if (pid != id_) continue;
    auto it = locks_.find(key);
    if (it == locks_.end()) continue;
    std::vector<Holder>& holders = it->second;
    holders.erase(std::remove_if(holders.begin(), holders.end(),
                                 [&](const Holder& h) {
                                   return h.txn == xct->id;
                                 }),
                  holders.end());
    if (holders.empty()) free_locks_.push_back(locks_.extract(it));
    // Wake every action parked on this key on ANY release — not only when
    // the key frees completely. A parked action re-runs TryLockAll: if an
    // older holder remains it now correctly dies (the holder set may have
    // aged since it parked), otherwise it parks again or runs. Without
    // this, old-parked-behind-young can silently become old-parked-behind-
    // old and deadlock.
    auto pit = parked_.find(key);
    if (pit != parked_.end()) {
      ready->insert(ready->end(), pit->second.begin(), pit->second.end());
      pit->second.clear();
      free_parked_.push_back(parked_.extract(pit));
    }
  }
  // Drop this partition's entries from the transaction's lock list.
  auto& hl = xct->held_locks;
  hl.erase(std::remove_if(hl.begin(), hl.end(),
                          [&](const auto& pk) { return pk.first == id_; }),
           hl.end());
}

}  // namespace bionicdb::dora
