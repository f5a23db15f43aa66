// ThreadedWal: the wal::LogManager the threaded backend logs to — the same
// buffer, framing and leader/follower group commit, on real threads.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/macros.h"
#include "common/status.h"
#include "wal/log_manager.h"

namespace bionicdb::exec {

/// A wal::LogManager for real threads. The record stream, LSNs, LogStats,
/// sticky device error and WaitDurable's group commit are the base's; this
/// class adds the mutex every call runs under, the condvar followers block
/// on, and a stubbed fsync as the device. Its calls complete without
/// suspending, so a caller outside a coroutine runs them with
/// sim::RunToCompletion.
///
/// Appends never start a flush. The first committer whose LSN is not yet
/// durable becomes the leader: it snapshots the tail, sleeps
/// `fsync_latency_us` with the mutex released, publishes the new durable
/// prefix and wakes the followers — every committer that appended before
/// the snapshot rides that one fsync. Crash() freezes the durable prefix
/// where it stands (always a record boundary, since appends are atomic
/// under the mutex and the leader snapshots the buffer size); an in-flight
/// flush is abandoned and every WaitDurable for a not-yet-durable LSN, the
/// leader's included, fails with an IO error, which the crash-harness smoke
/// uses to check acknowledged commits are exactly the durable ones.
class ThreadedWal : public wal::LogManager {
 public:
  struct Config {
    /// Stubbed fsync latency. Zero is allowed (flush becomes a pure fence).
    uint64_t fsync_latency_us = 50;
  };

  /// Snapshot of the base's LogStats fields the threaded runs report.
  struct Stats {
    uint64_t appends = 0;
    uint64_t bytes_appended = 0;
    uint64_t flushes = 0;
    uint64_t group_commit_waits = 0;
  };

  explicit ThreadedWal(const Config& config)
      : wal::LogManager(nullptr), config_(config) {}
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(ThreadedWal);

  sim::Task<wal::Lsn> Append(wal::LogRecord rec, int socket) override;

  /// Makes everything appended so far durable (a no-op after Crash()).
  void Flush();

  /// Simulates a crash: the durable prefix freezes where the last completed
  /// flush left it, an in-flight flush is abandoned, and pending and future
  /// WaitDurable calls beyond the frozen prefix fail.
  void Crash();

  // Locked snapshots, safe while other threads append.
  wal::Lsn current_lsn() const;
  wal::Lsn durable_lsn() const;
  /// Copy of the durable prefix — what a post-crash recovery would read.
  std::string DurablePrefix() const;
  Stats stats() const;

 protected:
  /// The fsync stub.
  sim::Task<Status> DeviceFlush(uint64_t bytes) override;
  std::unique_lock<std::mutex> Latch() override;
  void WaitFlushDone(std::unique_lock<std::mutex>& latch) override;
  void NotifyFlushDone() override;

 private:
  const Config config_;
  mutable std::mutex mu_;
  std::condition_variable flushed_cv_;  // wakes group-commit followers
};

}  // namespace bionicdb::exec
