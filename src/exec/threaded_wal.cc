#include "exec/threaded_wal.h"

#include <chrono>
#include <thread>

namespace bionicdb::exec {

wal::Lsn ThreadedWal::Append(const wal::LogRecord& rec) {
  std::lock_guard<std::mutex> lk(mu_);
  const wal::Lsn lsn = buffer_.size();
  rec.AppendTo(&buffer_);
  ++stats_.appends;
  stats_.bytes_appended += rec.SerializedSize();
  return lsn;
}

Status ThreadedWal::WaitDurable(wal::Lsn lsn) {
  std::unique_lock<std::mutex> lk(mu_);
  if (durable_lsn_ < lsn) ++stats_.group_commit_waits;
  // Group commit, leader/follower, as in wal::LogManager::WaitDurable: the
  // first waiter with undurable data flushes everything appended so far;
  // others ride along (or re-loop if their records landed after the
  // leader's snapshot).
  while (durable_lsn_ < lsn) {
    if (crashed_) {
      return Status::IOError("threaded wal: device crashed before flush");
    }
    if (flush_in_progress_) {
      durable_cv_.wait(lk, [&] { return !flush_in_progress_ || crashed_; });
      continue;
    }
    // Appends are whole records under the mutex, so the snapshot is always
    // a record boundary — a crash never leaves a torn durable prefix here
    // (torn-tail handling is exercised by the simulator's crash harness).
    flush_in_progress_ = true;
    const uint64_t target = buffer_.size();
    lk.unlock();
    if (config_.fsync_latency_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(config_.fsync_latency_us));
    }
    lk.lock();
    flush_in_progress_ = false;
    if (!crashed_) {
      durable_lsn_ = target;
      ++stats_.flushes;
    }
    durable_cv_.notify_all();
  }
  return Status::OK();
}

void ThreadedWal::Flush() { (void)WaitDurable(current_lsn()); }

void ThreadedWal::Crash() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    crashed_ = true;
  }
  durable_cv_.notify_all();
}

uint64_t ThreadedWal::current_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return buffer_.size();
}

uint64_t ThreadedWal::durable_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return durable_lsn_;
}

bool ThreadedWal::crashed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return crashed_;
}

std::string ThreadedWal::DurablePrefix() const {
  std::lock_guard<std::mutex> lk(mu_);
  return buffer_.substr(0, durable_lsn_);
}

ThreadedWal::Stats ThreadedWal::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace bionicdb::exec
