// Agent scheduling policy for DORA queues (§5.5): "knowing when to
// deschedule an idle agent thread with an empty input queue (a wrong choice
// can hold up an entire chain of queues, leading to convoys)".
//
// The policy spins for a few empty polls, then dozes. Doze wakeup latency
// differs between software (OS futex-scale) and the hardware queue engine
// (doorbell-scale) — the knob the ablation turns.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace bionicdb::queueing {

/// Yields a waiting real thread spends polling before it parks on a
/// condvar — the threaded backend's spin-then-doze. Shared by its mailbox's
/// Pop and dora::Rvp::Wait: parking an idle agent (or a client between
/// phases) too early turns every hand-off into a futex wake and stalls the
/// chain of queues behind it (paper §5.5).
inline constexpr int kSpinYieldsBeforePark = 64;

struct DozePolicy {
  int spin_polls = 4;        ///< Empty polls before dozing.
  SimTime poll_ns = 120;     ///< CPU cost of one empty poll.
  SimTime doze_wakeup_ns = 4000;  ///< Software wakeup (futex + sched).
};

/// Tracks empty-poll streaks and convoy statistics for one agent.
class AgentScheduler {
 public:
  explicit AgentScheduler(const DozePolicy& policy) : policy_(policy) {}

  /// Call when the agent polls its queue and finds it empty. Returns true
  /// if the agent should doze (sleep until notified) rather than re-poll.
  bool OnEmptyPoll() {
    ++empty_polls_;
    ++streak_;
    if (streak_ >= policy_.spin_polls) {
      ++dozes_;
      streak_ = 0;
      return true;
    }
    return false;
  }

  /// Call when work is found; resets the streak. `queue_depth` at pop time
  /// feeds convoy detection (deep backlogs right after a doze == convoy).
  void OnWorkFound(size_t queue_depth, bool was_dozing) {
    streak_ = 0;
    if (was_dozing && queue_depth > convoy_threshold_) ++convoys_;
  }

  uint64_t empty_polls() const { return empty_polls_; }
  uint64_t dozes() const { return dozes_; }
  uint64_t convoys() const { return convoys_; }
  const DozePolicy& policy() const { return policy_; }

  void set_convoy_threshold(size_t n) { convoy_threshold_ = n; }

 private:
  DozePolicy policy_;
  int streak_ = 0;
  uint64_t empty_polls_ = 0;
  uint64_t dozes_ = 0;
  uint64_t convoys_ = 0;
  size_t convoy_threshold_ = 8;
};

}  // namespace bionicdb::queueing
