#include "exec/threaded_wal.h"

#include <chrono>
#include <thread>

namespace bionicdb::exec {

sim::Task<wal::Lsn> ThreadedWal::Append(wal::LogRecord rec, int socket) {
  (void)socket;
  std::lock_guard<std::mutex> lk(mu_);
  co_return AppendToBuffer(rec);
}

sim::Task<Status> ThreadedWal::DeviceFlush(uint64_t bytes) {
  (void)bytes;
  if (config_.fsync_latency_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(config_.fsync_latency_us));
  }
  co_return Status::OK();
}

std::unique_lock<std::mutex> ThreadedWal::Latch() {
  return std::unique_lock<std::mutex>(mu_);
}

void ThreadedWal::WaitFlushDone(std::unique_lock<std::mutex>& latch) {
  flushed_cv_.wait(latch, [this] {
    return !flush_in_progress_ || !device_error_.ok();
  });
}

void ThreadedWal::NotifyFlushDone() { flushed_cv_.notify_all(); }

void ThreadedWal::Flush() {
  (void)sim::RunToCompletion(WaitDurable(current_lsn()));
}

void ThreadedWal::Crash() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    device_error_ =
        Status::IOError("threaded wal: device crashed before flush");
  }
  flushed_cv_.notify_all();
}

wal::Lsn ThreadedWal::current_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return LogManager::current_lsn();
}

wal::Lsn ThreadedWal::durable_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return LogManager::durable_lsn();
}

std::string ThreadedWal::DurablePrefix() const {
  std::lock_guard<std::mutex> lk(mu_);
  return durable_prefix().ToString();
}

ThreadedWal::Stats ThreadedWal::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  const wal::LogStats& s = LogManager::stats();
  return Stats{s.appends, s.bytes_appended, s.flushes, s.group_commit_waits};
}

}  // namespace bionicdb::exec
