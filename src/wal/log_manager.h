// Log managers: the software centralized WAL (CAS-contended buffer, the
// §5.1/§5.4 bottleneck) and the hardware-offloaded WAL backed by the
// LogInsertionUnit. Both are functionally real — the byte stream they
// produce drives actual recovery — and differ in timing and contention
// behaviour, which is what bench/log_scalability measures.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/macros.h"
#include "hw/cost_model.h"
#include "hw/log_unit.h"
#include "hw/platform.h"
#include "sim/resource.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "wal/record.h"

namespace bionicdb::wal {

struct LogStats {
  uint64_t appends = 0;
  uint64_t flushes = 0;
  uint64_t bytes_appended = 0;
  SimTime append_wait_ns = 0;  ///< Time callers spent blocked in Append.
  // Degraded-mode accounting (fault injection; see docs/RECOVERY.md).
  uint64_t flush_errors = 0;    ///< Individual device-flush attempts failed.
  uint64_t flush_retries = 0;   ///< Re-attempts after a failed flush.
  uint64_t flush_failures = 0;  ///< Flushes abandoned after the retry budget.
  SimTime flush_backoff_ns = 0; ///< Virtual time spent backing off.
  uint64_t append_retries = 0;  ///< HW insert path re-submissions.
  uint64_t append_errors = 0;   ///< HW inserts that failed past retries.
  /// WaitDurable calls that found their LSN not yet durable. Only such a
  /// call leads a flush, and at most one, so flushes <= group_commit_waits.
  uint64_t group_commit_waits = 0;
};

/// Bounded-retry policy for device flushes: exponential backoff in virtual
/// time, doubling from `backoff_base_ns` up to `backoff_max_ns`.
struct RetryPolicy {
  int max_attempts = 6;
  SimTime backoff_base_ns = 2000;
  SimTime backoff_max_ns = 256000;
};

/// Common WAL interface. Append orders a record in the log buffer (and
/// resumes — asynchronously w.r.t. durability); WaitDurable implements
/// group commit. The serialized byte stream is exposed for recovery.
///
/// The simulated logs below run on the simulator's one thread.
/// exec::ThreadedWal runs the same buffer, framing and group commit on real
/// threads through the latch-and-wait seam (Latch, WaitFlushDone,
/// NotifyFlushDone), which is empty here.
class LogManager {
 public:
  explicit LogManager(sim::Simulator* sim) : sim_(sim), flush_cv_(sim) {}
  virtual ~LogManager() = default;
  BIONICDB_DISALLOW_COPY_AND_ASSIGN(LogManager);

  /// Appends `rec` from `socket`; resumes once the record is ordered.
  /// Returns the record's LSN (byte offset).
  virtual sim::Task<Lsn> Append(LogRecord rec, int socket) = 0;

  /// Resumes when the log is durable at least through `lsn`. Group commit:
  /// concurrent waiters share one device flush. Returns IOError when the
  /// flush failed past the retry budget or the device is gone (sticky
  /// failure / injected crash); `lsn`s at or below durable_lsn() still
  /// succeed.
  sim::Task<Status> WaitDurable(Lsn lsn);

  /// Subjects flushes to `faults` (crash-at-LSN clamping + crash state).
  void SetFaultInjector(sim::FaultInjector* faults) { faults_ = faults; }

  /// Records the flush pipeline on track "wal/flush": one span per group
  /// flush (flush_in_progress_ serializes them), instants for each backoff
  /// and for abandoned flushes. Enabled tracers only.
  void AttachTracer(obs::Tracer* tracer);
  void SetRetryPolicy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Next LSN to be assigned (== total bytes appended).
  Lsn current_lsn() const { return static_cast<Lsn>(buffer_.size()); }
  Lsn durable_lsn() const { return durable_lsn_; }
  /// True while a group flush is running (profiler state probe).
  bool flush_in_progress() const { return flush_in_progress_; }

  /// The functional log stream (what a crash leaves on the log device is
  /// the prefix [0, durable_lsn)).
  const std::string& buffer() const { return buffer_; }
  /// The durable prefix, as recovery would see it after a crash.
  Slice durable_prefix() const {
    return Slice(buffer_.data(), static_cast<size_t>(durable_lsn_));
  }

  const LogStats& stats() const { return stats_; }

 protected:
  /// Serializes `rec` into the buffer; returns its LSN.
  Lsn AppendToBuffer(const LogRecord& rec);

  /// Device-specific flush of bytes (durable_lsn_, target]: SSD write for
  /// the software log, PCIe + SSD for the hardware log. Returns the device
  /// outcome (IOError under fault injection).
  virtual sim::Task<Status> DeviceFlush(uint64_t bytes) = 0;

  /// One logical flush: attempts DeviceFlush up to retry_.max_attempts
  /// times, backing off exponentially in virtual time between attempts.
  sim::Task<Status> FlushWithRetry(uint64_t bytes);

  // ---- real-thread seam ---------------------------------------------------
  // On the simulator the latch is empty and a group-commit follower
  // suspends on flush_cv_. A log that runs on real threads returns its
  // held mutex from Latch(): WaitDurable then keeps it except around the
  // device flush, and a follower blocks in WaitFlushDone() until the
  // leader's NotifyFlushDone().
  virtual std::unique_lock<std::mutex> Latch() { return {}; }
  virtual void WaitFlushDone(std::unique_lock<std::mutex>& latch) {
    (void)latch;
  }
  virtual void NotifyFlushDone() {}

  sim::Simulator* sim_;
  std::string buffer_;
  Lsn durable_lsn_ = 0;
  bool flush_in_progress_ = false;
  sim::CondVar flush_cv_;
  LogStats stats_;
  RetryPolicy retry_;
  sim::FaultInjector* faults_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  uint16_t trace_track_ = 0;
  uint16_t trace_flush_ = 0;
  uint16_t trace_backoff_ = 0;
  uint16_t trace_abandoned_ = 0;
  uint8_t trace_cat_ = 0;
  uint8_t trace_fault_cat_ = 0;
  /// Sticky: set when a flush is abandoned (retry budget exhausted or
  /// injected crash); every later WaitDurable above durable_lsn_ fails.
  /// A flush that finds it set when it completes does not count.
  Status device_error_;
};

/// Software WAL: every append serializes through the central log buffer.
/// The service time follows CostModel::LogInsertNs, growing with the number
/// of concurrent contenders and with socket count (cacheline ping-pong and
/// cross-socket transfer, per [7]).
class SoftwareLogManager : public LogManager {
 public:
  SoftwareLogManager(hw::Platform* platform, sim::Link* log_device,
                     int sockets = 1);

  sim::Task<Lsn> Append(LogRecord rec, int socket) override;

 protected:
  sim::Task<Status> DeviceFlush(uint64_t bytes) override;

 private:
  hw::Platform* platform_;
  sim::Link* log_device_;
  int sockets_;
  sim::Server buffer_serializer_;
  int contenders_ = 0;
};

/// Hardware-offloaded WAL (§5.4): the CPU posts a descriptor (cheap) and the
/// LogInsertionUnit aggregates per socket, arbitrates in hardware, and
/// buffers FPGA-side. Flushes ship big sequential batches over PCIe to the
/// CPU-side log SSD.
class HardwareLogManager : public LogManager {
 public:
  HardwareLogManager(hw::Platform* platform, hw::LogInsertionUnit* unit,
                     sim::Link* log_device);

  sim::Task<Lsn> Append(LogRecord rec, int socket) override;

  const hw::LogInsertionUnit* unit() const { return unit_; }

 protected:
  sim::Task<Status> DeviceFlush(uint64_t bytes) override;

 private:
  hw::Platform* platform_;
  hw::LogInsertionUnit* unit_;
  sim::Link* log_device_;
};

}  // namespace bionicdb::wal
