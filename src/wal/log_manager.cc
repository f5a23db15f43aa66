#include "wal/log_manager.h"

#include <algorithm>

namespace bionicdb::wal {

void LogManager::AttachTracer(obs::Tracer* tracer) {
  if (tracer == nullptr || !tracer->enabled()) {
    tracer_ = nullptr;
    return;
  }
  tracer_ = tracer;
  trace_track_ = tracer->RegisterTrack("wal/flush");
  trace_flush_ = tracer->InternName("flush");
  trace_backoff_ = tracer->InternName("flush_backoff");
  trace_abandoned_ = tracer->InternName("flush_abandoned");
  trace_cat_ = tracer->InternCategory("log");
  trace_fault_cat_ = tracer->InternCategory("fault");
}

Lsn LogManager::AppendToBuffer(const LogRecord& rec) {
  const Lsn lsn = current_lsn();
  rec.AppendTo(&buffer_);
  ++stats_.appends;
  stats_.bytes_appended += rec.SerializedSize();
  return lsn;
}

sim::Task<Status> LogManager::WaitDurable(Lsn lsn) {
  std::unique_lock<std::mutex> latch = Latch();
  if (durable_lsn_ < lsn) ++stats_.group_commit_waits;
  // Group commit, leader/follower: the first waiter with undurable data
  // flushes everything appended so far; others ride along (or re-loop if
  // their records landed after the leader's snapshot).
  while (durable_lsn_ < lsn) {
    // Sticky failure: once the device is abandoned (or an injected crash
    // fired), no LSN above the durable prefix will ever become durable.
    if (!device_error_.ok()) co_return device_error_;
    if (flush_in_progress_) {
      if (latch.owns_lock()) {
        WaitFlushDone(latch);
      } else {
        co_await flush_cv_.Wait();
      }
      continue;
    }
    flush_in_progress_ = true;
    Lsn target = current_lsn();
    // crash-at-LSN: freeze durability at exactly the planned point. The
    // final flush covers only the prefix up to it, so commits at or below
    // the crash LSN succeed and everything after fails.
    bool crash_now = false;
    if (faults_ != nullptr && target > faults_->crash_at_lsn()) {
      target = std::max(durable_lsn_,
                        static_cast<Lsn>(faults_->crash_at_lsn()));
      crash_now = true;
    }
    const uint64_t bytes = target - durable_lsn_;
    Status flush = Status::OK();
    const SimTime flush_start = tracer_ != nullptr ? sim_->Now() : 0;
    if (bytes > 0) {
      // Appends and new followers go on while the device works.
      if (latch.owns_lock()) latch.unlock();
      flush = co_await FlushWithRetry(bytes);
      latch = Latch();
      if (flush.ok() && !device_error_.ok()) flush = device_error_;
    }
    if (tracer_ != nullptr && bytes > 0) {
      tracer_->Complete(trace_track_, trace_flush_, trace_cat_, flush_start,
                        sim_->Now() - flush_start);
    }
    if (flush.ok()) {
      durable_lsn_ = target;
      ++stats_.flushes;
    } else {
      ++stats_.flush_failures;
      device_error_ = flush;
      if (tracer_ != nullptr) {
        tracer_->Instant(trace_track_, trace_abandoned_, trace_fault_cat_,
                         sim_->Now());
      }
    }
    if (crash_now) {
      faults_->TriggerCrash("crash_at_lsn " +
                            std::to_string(faults_->crash_at_lsn()));
      device_error_ = Status::IOError("log device lost (crash_at_lsn)");
    }
    flush_in_progress_ = false;
    flush_cv_.NotifyAll();
    NotifyFlushDone();
    if (!flush.ok()) co_return flush;
  }
  co_return Status::OK();
}

sim::Task<Status> LogManager::FlushWithRetry(uint64_t bytes) {
  Status st = Status::OK();
  SimTime backoff = retry_.backoff_base_ns;
  for (int attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    st = co_await DeviceFlush(bytes);
    if (st.ok()) co_return st;
    ++stats_.flush_errors;
    if (attempt + 1 < retry_.max_attempts) {
      ++stats_.flush_retries;
      stats_.flush_backoff_ns += backoff;
      if (tracer_ != nullptr) {
        tracer_->Instant(trace_track_, trace_backoff_, trace_fault_cat_,
                         sim_->Now());
      }
      co_await sim::Delay{sim_, backoff};
      backoff = std::min(backoff * 2, retry_.backoff_max_ns);
    }
  }
  co_return st;
}

SoftwareLogManager::SoftwareLogManager(hw::Platform* platform,
                                       sim::Link* log_device, int sockets)
    : LogManager(platform->simulator()), platform_(platform),
      log_device_(log_device), sockets_(sockets),
      buffer_serializer_(platform->simulator(), 1) {}

sim::Task<Lsn> SoftwareLogManager::Append(LogRecord rec, int socket) {
  (void)socket;  // the software buffer is shared by all sockets
  const SimTime t0 = sim_->Now();
  ++contenders_;
  // Aether-style insert: only the buffer reserve (CAS + contention) is
  // serialized; record build, copy, and release proceed in parallel once
  // space is claimed.
  const double serial_ns =
      platform_->cost().LogReserveSerialNs(contenders_, sockets_);
  co_await buffer_serializer_.Use(static_cast<SimTime>(serial_ns));
  const Lsn lsn = AppendToBuffer(rec);
  --contenders_;
  co_await sim::Delay{
      sim_, static_cast<SimTime>(
                platform_->cost().LogParallelNs(rec.SerializedSize()))};
  stats_.append_wait_ns += sim_->Now() - t0;
  co_return lsn;
}

sim::Task<Status> SoftwareLogManager::DeviceFlush(uint64_t bytes) {
  co_return co_await log_device_->Transfer(bytes);
}

HardwareLogManager::HardwareLogManager(hw::Platform* platform,
                                       hw::LogInsertionUnit* unit,
                                       sim::Link* log_device)
    : LogManager(platform->simulator()), platform_(platform), unit_(unit),
      log_device_(log_device) {}

sim::Task<Lsn> HardwareLogManager::Append(LogRecord rec, int socket) {
  const SimTime t0 = sim_->Now();
  // LSN order is fixed at submission (the unit preserves FIFO order per
  // socket and the simulator is deterministic across sockets).
  const Lsn lsn = AppendToBuffer(rec);
  Status st = co_await unit_->Insert(rec.SerializedSize(), socket);
  // A failed insert only lost the descriptor ride-along — the record is
  // already ordered in the log buffer — so re-submission is cheap and
  // bounded. Past the budget the append proceeds degraded (the flush path
  // will move the bytes); it must not fail the transaction.
  for (int attempt = 0; !st.ok() && attempt < 2; ++attempt) {
    ++stats_.append_retries;
    co_await sim::Delay{sim_, retry_.backoff_base_ns};
    st = co_await unit_->Insert(rec.SerializedSize(), socket);
  }
  if (!st.ok()) ++stats_.append_errors;
  stats_.append_wait_ns += sim_->Now() - t0;
  co_return lsn;
}

sim::Task<Status> HardwareLogManager::DeviceFlush(uint64_t bytes) {
  // FPGA log buffer -> PCIe -> CPU-side log SSD (Figure 4's storage path).
  BIONICDB_CO_RETURN_NOT_OK(co_await platform_->pcie().Transfer(bytes));
  co_return co_await log_device_->Transfer(bytes);
}

}  // namespace bionicdb::wal
