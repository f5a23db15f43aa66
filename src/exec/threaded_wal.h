// ThreadedWal: real group-commit write-ahead log for the threaded backend —
// mutex-serialized appends, leader/follower flushes, fsync stubs.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/macros.h"
#include "common/status.h"
#include "wal/record.h"

namespace bionicdb::exec {

/// Wall-clock counterpart of wal::LogManager. Same record format
/// (wal::LogRecord, CRC framing, LSN = byte offset into the stream), same
/// group-commit protocol (WaitDurable(lsn) returns once durable_lsn >= lsn;
/// leader/follower), but waiting is a real condvar block and the flush is
/// done by a committer's own thread instead of simulated events.
///
/// The "device" is an in-memory durable prefix plus a stubbed fsync latency.
/// Appends never start a flush. The first committer whose LSN is not yet
/// durable becomes the leader: it snapshots the tail, sleeps
/// `fsync_latency_us` outside the mutex, publishes the new durable prefix
/// and wakes the followers — every committer that appended before the
/// snapshot rides that one fsync. Crash() freezes the durable prefix where
/// it stands (always a record boundary, since appends are atomic under the
/// mutex and the leader snapshots the buffer size); an in-flight flush is
/// abandoned and every WaitDurable for a not-yet-durable LSN, the leader's
/// included, fails with an IO error, which the crash-harness smoke uses to
/// check acknowledged commits are exactly the durable ones.
class ThreadedWal {
 public:
  struct Config {
    /// Stubbed fsync latency. Zero is allowed (flush becomes a pure fence).
    uint64_t fsync_latency_us = 50;
  };

  struct Stats {
    uint64_t appends = 0;
    uint64_t bytes_appended = 0;
    uint64_t flushes = 0;
    /// WaitDurable calls that found their LSN not yet durable. Only such a
    /// call leads a flush, and at most one, so flushes <= group_commit_waits.
    uint64_t group_commit_waits = 0;
  };

  explicit ThreadedWal(const Config& config) : config_(config) {}
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(ThreadedWal);

  /// Serializes `rec` into the stream and returns its LSN (byte offset),
  /// matching wal::LogManager's append framing exactly.
  wal::Lsn Append(const wal::LogRecord& rec);

  /// Blocks until everything up to `lsn` (exclusive) is durable, leading a
  /// flush if none is in flight. Returns an IO error if the device crashed
  /// before reaching `lsn`.
  Status WaitDurable(wal::Lsn lsn);

  /// Makes everything appended so far durable (a no-op after Crash()).
  void Flush();

  /// Simulates a crash: the durable prefix freezes where the last completed
  /// flush left it, an in-flight flush is abandoned, and pending and future
  /// WaitDurable calls beyond the frozen prefix fail.
  void Crash();

  uint64_t current_lsn() const;
  uint64_t durable_lsn() const;
  bool crashed() const;
  /// Copy of the durable prefix — what a post-crash recovery would read.
  std::string DurablePrefix() const;
  Stats stats() const;

 private:
  const Config config_;
  mutable std::mutex mu_;
  std::condition_variable durable_cv_;  // wakes group-commit followers
  std::string buffer_;
  uint64_t durable_lsn_ = 0;
  bool flush_in_progress_ = false;
  bool crashed_ = false;
  Stats stats_;
};

}  // namespace bionicdb::exec
