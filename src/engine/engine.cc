#include "engine/engine.h"

#include <algorithm>
#include <array>
#include <map>

#include "exec/threaded.h"

namespace bionicdb::engine {

using hw::Component;

Engine::Engine(sim::Simulator* sim, const EngineConfig& config)
    : sim_(sim), config_(config) {
  // The tracer exists only when enabled; every layer takes a possibly-null
  // pointer and skips interning entirely otherwise.
  if (config.trace.enabled) {
    tracer_ = std::make_unique<obs::Tracer>(config.trace);
  }
  if (!config.fault_plan.empty()) {
    fault_ = std::make_unique<sim::FaultInjector>(config.fault_plan);
  }
  platform_ = std::make_unique<hw::Platform>(sim, config.platform,
                                             fault_.get(), tracer_.get());

  // Data lives on the FPGA-side SAS disks (bionic) or the same simulated
  // spindles on a commodity box; the log SSD is CPU-side in both.
  data_disk_ = std::make_unique<storage::SimDisk>(sim, &platform_->sas_disk(),
                                                  "data");
  log_disk_ = std::make_unique<storage::SimDisk>(sim, &platform_->ssd(),
                                                 "log");
  bpool_ = std::make_unique<storage::BufferPool>(sim, data_disk_.get(),
                                                 config.bpool_frames);
  BIONICDB_CHECK_MSG(!config.compact_storage ||
                         config.mode != EngineMode::kBionic,
                     "compact storage replaces the paged heap the overlay "
                     "caches; use kConventional or kDora");
  db_ = std::make_unique<Database>(data_disk_.get(), config.index_config,
                                   /*with_overlays=*/config.mode ==
                                       EngineMode::kBionic,
                                   config.overlay_capacity,
                                   config.compact_storage);

  const bool fpga = config.platform.has_fpga;
  if (fpga) {
    probe_unit_ = std::make_unique<hw::TreeProbeUnit>(platform_.get(),
                                                      config.probe_config);
    hw::LogUnitConfig luc = config.log_unit_config;
    luc.sockets = std::max(luc.sockets, config.sockets);
    log_unit_ = std::make_unique<hw::LogInsertionUnit>(platform_.get(), luc);
    queue_engine_ = std::make_unique<hw::QueueEngine>(
        platform_.get(), config.queue_engine_config);
    scanner_unit_ = std::make_unique<hw::ScannerUnit>(platform_.get(),
                                                      config.scanner_config);
  }

  if (config.mode == EngineMode::kBionic && config.offload.logging) {
    BIONICDB_CHECK(fpga);
    log_ = std::make_unique<wal::HardwareLogManager>(
        platform_.get(), log_unit_.get(), &platform_->ssd());
  } else {
    log_ = std::make_unique<wal::SoftwareLogManager>(
        platform_.get(), &platform_->ssd(), config.sockets);
  }
  log_->SetFaultInjector(fault_.get());
  log_->AttachTracer(tracer_.get());
  xm_ = std::make_unique<txn::XctManager>(log_.get());

  if (config.mode == EngineMode::kConventional) {
    lm_ = std::make_unique<txn::LockManager>(sim);
    workers_sem_ = std::make_unique<sim::Semaphore>(sim, config.workers);
  } else {
    dora::ExecutorConfig ec;
    ec.num_partitions = config.num_partitions;
    ec.doze = config.doze;
    ec.hw_queues =
        config.mode == EngineMode::kBionic && config.offload.queueing;
    ec.async_actions = config.mode == EngineMode::kBionic;
    executor_ = std::make_unique<dora::Executor>(
        platform_.get(), ec, queue_engine_.get(), &breakdown_);
  }

  if (config.admission.enabled) {
    admission_ =
        std::make_unique<AdmissionQueue<AdmittedTxn>>(sim, config.admission);
  }

  if (tracer_) {
    trace_txn_track_ = tracer_->RegisterTrack("engine/txn");
    trace_txn_name_ = tracer_->InternName("txn");
    trace_commit_name_ = tracer_->InternName("commit");
    trace_abort_name_ = tracer_->InternName("abort");
    trace_txn_cat_ = tracer_->InternCategory("txn");

    sampler_ = std::make_unique<obs::TimelineSampler>(tracer_.get());
    // Queue depths: one series per DORA partition.
    if (executor_) {
      for (int i = 0; i < executor_->num_partitions(); ++i) {
        dora::Partition* p = executor_->partition(static_cast<uint32_t>(i));
        sampler_->AddGauge(
            "dora.partition" + std::to_string(i) + ".queue_depth",
            [p] { return static_cast<double>(p->queue().size()); });
      }
    }
    // WAL flush backlog: bytes appended but not yet durable.
    sampler_->AddGauge("wal.backlog_bytes", [this] {
      return static_cast<double>(log_->current_lsn() - log_->durable_lsn());
    });
    // Admission backlog: requests admitted but not yet claimed by a server.
    if (admission_) {
      sampler_->AddGauge("engine.admission.depth", [this] {
        return static_cast<double>(admission_->depth());
      });
    }
    // Windowed link/CPU utilization: delta busy-ns over the tick interval.
    for (sim::Link* l : {&platform_->pcie(), &platform_->sg_dram(),
                         &platform_->host_dram(), &platform_->sas_disk(),
                         &platform_->ssd()}) {
      sampler_->AddRate("sim." + l->name() + ".util",
                        [l] { return static_cast<double>(l->busy_ns()); });
    }
    {
      hw::Platform* pf = platform_.get();
      const double cores = static_cast<double>(config.platform.cpu_cores) *
                           static_cast<double>(config.platform.cpu_sockets);
      sampler_->AddRate(
          "platform.cpu.util",
          [pf, spec = &config_] {
            double busy = 0.0;
            for (int s = 0; s < spec->platform.cpu_sockets; ++s) {
              busy += static_cast<double>(pf->cpu(s).busy_ns());
            }
            return busy;
          },
          1.0 / cores);
    }
  }
  if (config.flight.enabled) {
    flight_ = std::make_unique<obs::FlightRecorder>(config.flight);
  }
  if (config.profile.enabled) {
    profiler_ = std::make_unique<obs::Profiler>(config.profile);
    // Entity state functions are plain reads of live engine state; the
    // profiler loop samples them at virtual-time intervals.
    if (executor_) {
      for (int i = 0; i < executor_->num_partitions(); ++i) {
        dora::Partition* p = executor_->partition(static_cast<uint32_t>(i));
        profiler_->AddEntity("dora.partition" + std::to_string(i),
                             {"idle", "running", "dozing"},
                             [p] { return static_cast<int>(p->agent_state()); });
      }
    }
    {
      wal::LogManager* lg = log_.get();
      profiler_->AddEntity("wal.flush", {"idle", "flushing", "backlog"},
                           [lg] {
                             if (lg->flush_in_progress()) return 1;
                             return lg->current_lsn() > lg->durable_lsn() ? 2
                                                                          : 0;
                           });
    }
    if (probe_unit_) {
      hw::TreeProbeUnit* u = probe_unit_.get();
      profiler_->AddEntity("hw.tree_probe", {"idle", "busy", "saturated"},
                           [u] {
                             if (u->active() == 0) return 0;
                             return u->active() >= u->contexts() ? 2 : 1;
                           });
    }
    if (scanner_unit_) {
      hw::ScannerUnit* u = scanner_unit_.get();
      profiler_->AddEntity("hw.scanner", {"idle", "busy"},
                           [u] { return u->active() > 0 ? 1 : 0; });
    }
    if (log_unit_) {
      hw::LogInsertionUnit* u = log_unit_.get();
      profiler_->AddEntity("hw.log_unit", {"idle", "aggregating"},
                           [u] { return u->open_batches() > 0 ? 1 : 0; });
    }
  }
  RegisterMetrics();
}

Engine::~Engine() = default;

Table* Engine::CreateTable(const std::string& name) {
  return db_->CreateTable(name);
}

Status Engine::LoadRow(Table* table, Slice key, Slice record) {
  const bool resident =
      !UseOverlay() || sim_->rng().NextDouble() < config_.overlay_residency;
  return table->LoadRow(key, record, resident);
}

void Engine::FinalizeLoad() { db_->FinalizeLoad(); }

void Engine::RegisterMetrics() {
  // RunMetrics fields, bound in place (metrics_ is reassigned by
  // ResetStats(), never moved, so the addresses are stable).
  registry_.BindCounter("engine.commits", &metrics_.commits,
                        "Committed transactions");
  registry_.BindCounter("engine.aborts", &metrics_.aborts,
                        "Aborted transactions (incl. wait-die retries)");
  registry_.BindCounter("engine.io_errors", &metrics_.io_errors,
                        "Transactions failed on device I/O");
  registry_.BindCounter("engine.durability_failures",
                        &metrics_.durability_failures,
                        "Commits lost to failed log flushes");
  registry_.BindCounter("engine.hw_fallbacks", &metrics_.hw_fallbacks,
                        "HW-unit ops retried in software");
  registry_.BindCounter("engine.faults_injected", &metrics_.faults_injected,
                        "Faults fired in the measurement window");
  registry_.BindCounter("engine.log_flush_retries",
                        &metrics_.log_flush_retries, "WAL flush re-attempts");
  registry_.BindCounter("engine.log_flush_failures",
                        &metrics_.log_flush_failures,
                        "WAL flushes abandoned");
  registry_.BindCounter("engine.log_backoff_ns", &metrics_.log_backoff_ns,
                        "Virtual time in flush backoff");
  registry_.BindCounter("engine.elapsed_ns", &metrics_.elapsed_ns,
                        "Measurement window (virtual ns)");
  registry_.BindHistogram("engine.latency_ns", &metrics_.latency,
                          "Per-transaction latency (virtual ns)");
  registry_.BindGauge("engine.joules", [this] { return metrics_.joules; },
                      "Whole-platform energy over the window");
  registry_.BindGauge("engine.txn_per_sec",
                      [this] { return metrics_.TxnPerSecond(); },
                      "Committed txns per virtual second");
  registry_.BindGauge("engine.uj_per_txn",
                      [this] { return metrics_.MicrojoulesPerTxn(); },
                      "Microjoules per committed txn");
  registry_.BindGauge("engine.abort_rate",
                      [this] { return metrics_.AbortRate(); },
                      "Aborts / (commits + aborts)");
  registry_.BindGauge("engine.degraded",
                      [this] { return Degraded() ? 1.0 : 0.0; },
                      "1 when the window saw degraded-mode events");

  // Figure-3 breakdown: one gauge per component; the help string carries
  // the display label so BreakdownReport can render the legend.
  for (int i = 0; i < hw::kNumComponents; ++i) {
    const auto c = static_cast<hw::Component>(i);
    registry_.BindGauge(
        std::string("breakdown.") + hw::ComponentKey(c) + "_ns",
        [this, c] { return static_cast<double>(breakdown_.ns(c)); },
        hw::ComponentName(c));
  }

  // WAL counters, measurement-window relative (cumulative minus the
  // ResetStats() baseline).
  registry_.BindGauge("wal.appends", [this] {
    return static_cast<double>(log_->stats().appends -
                               log_baseline_.appends);
  }, "WAL records appended");
  registry_.BindGauge("wal.bytes_appended", [this] {
    return static_cast<double>(log_->stats().bytes_appended -
                               log_baseline_.bytes_appended);
  }, "WAL bytes appended");
  registry_.BindGauge("wal.flushes", [this] {
    return static_cast<double>(log_->stats().flushes -
                               log_baseline_.flushes);
  }, "Group-commit device flushes");
  registry_.BindGauge("wal.flush_errors", [this] {
    return static_cast<double>(log_->stats().flush_errors -
                               log_baseline_.flush_errors);
  }, "Individual device-flush attempts failed");
  registry_.BindGauge("wal.flush_retries", [this] {
    return static_cast<double>(log_->stats().flush_retries -
                               log_baseline_.flush_retries);
  }, "Flush re-attempts after a failure");
  registry_.BindGauge("wal.flush_failures", [this] {
    return static_cast<double>(log_->stats().flush_failures -
                               log_baseline_.flush_failures);
  }, "Flushes abandoned past the retry budget");

  // Platform gauges read engine.elapsed_ns, so they are meaningful after
  // FinishRun() (mid-run they under-report by the unfinished window).
  registry_.BindGauge("platform.cpu_utilization", [this] {
    return platform_->TotalCpuUtilization(metrics_.elapsed_ns);
  }, "Mean CPU utilization over the window");
  registry_.BindGauge("sim.pcie.bytes", [this] {
    return static_cast<double>(platform_->pcie().bytes_transferred());
  }, "PCIe bytes moved since construction");

  // Open-loop admission layer: offered/admitted/shed counters and the live
  // queue depth. Only bound when the queue exists (closed-loop engines
  // keep their registry layout unchanged).
  if (admission_) {
    registry_.BindGauge("engine.admission.offered", [this] {
      return static_cast<double>(admission_->stats().offered);
    }, "Open-loop arrivals offered to admission");
    registry_.BindGauge("engine.admission.admitted", [this] {
      return static_cast<double>(admission_->stats().admitted);
    }, "Arrivals admitted into the bounded queue");
    registry_.BindGauge("engine.admission.shed", [this] {
      return static_cast<double>(admission_->stats().shed);
    }, "Arrivals shed (rejected or evicted) at admission");
    registry_.BindGauge("engine.admission.deadline_shed", [this] {
      return static_cast<double>(admission_->stats().deadline_shed);
    }, "Queued entries discarded at claim time past the sojourn SLO");
    registry_.BindGauge("engine.admission.max_depth", [this] {
      return static_cast<double>(admission_->stats().max_depth);
    }, "High-water admission queue depth");
    registry_.BindGauge("engine.admission.queue_wait_ns", [this] {
      return static_cast<double>(admission_->stats().queue_wait_ns);
    }, "Cumulative enqueue->claim wait of served requests");
    registry_.BindGauge("engine.admission.depth", [this] {
      return static_cast<double>(admission_->depth());
    }, "Live admission queue depth");
  }

  // Trace health: events the ring dropped since the last Clear(). A
  // nonzero value means exported timelines have holes (trace_dump
  // --validate warns on it).
  if (tracer_) {
    registry_.BindGauge("obs.trace.dropped", [this] {
      return static_cast<double>(tracer_->dropped());
    }, "Trace events dropped by the bounded ring");
  }

  // Tail-latency attribution: total and per-stage virtual-time histograms,
  // p50/p99/p99.9-capable (see docs/OBSERVABILITY.md for the taxonomy).
  if (flight_) {
    registry_.BindHistogram("engine.txn.total_ns", &flight_->total_hist(),
                            "End-to-end txn latency (flight recorder)");
    for (int i = 0; i < obs::kNumStages; ++i) {
      const auto s = static_cast<obs::Stage>(i);
      registry_.BindHistogram(
          std::string("engine.txn.stage.") + obs::StageKey(s) + "_ns",
          &flight_->stage_hist(s), obs::StageLabel(s));
    }
  }

  // Time-in-state profiles: one gauge per entity-state pair, reading the
  // live fraction of samples spent in that state.
  if (profiler_) {
    obs::Profiler* pr = profiler_.get();
    for (size_t e = 0; e < pr->num_entities(); ++e) {
      const auto& states = pr->entity_states(e);
      for (size_t s = 0; s < states.size(); ++s) {
        registry_.BindGauge(
            "profile." + pr->entity_name(e) + "." + states[s],
            [pr, e, s] { return pr->Fraction(e, s); },
            "Fraction of profiler samples in this state");
      }
    }
  }
}

void Engine::Start() {
  if (executor_ && !executor_->running()) executor_->Start();
  const bool want_sampler = tracer_ && sampler_;
  if ((want_sampler || profiler_) && !sampler_running_) {
    sampler_running_ = true;
    if (want_sampler) sim_->Spawn(SamplerLoop());
    if (profiler_) sim_->Spawn(ProfilerLoop());
  }
}

sim::Task<void> Engine::SamplerLoop() {
  while (sampler_running_) {
    sampler_->SampleOnce(sim_->Now());
    co_await sim::Delay{sim_, config_.trace.sample_interval_ns};
  }
}

sim::Task<void> Engine::ProfilerLoop() {
  while (sampler_running_) {
    profiler_->SampleOnce();
    co_await sim::Delay{sim_, config_.profile.interval_ns};
  }
}

sim::Task<void> Engine::PreheatBufferPool() {
  if (UseOverlay()) co_return;
  for (storage::PageId id = 1; id <= data_disk_->num_pages(); ++id) {
    auto frame = co_await bpool_->Fetch(id);
    if (frame.ok()) bpool_->Unpin(id, false);
  }
}

sim::Task<void> Engine::Shutdown() {
  // The sampler wakes once more after the flag clears and exits, so the
  // simulator still runs to quiescence.
  sampler_running_ = false;
  if (executor_ && executor_->running()) co_await executor_->Drain();
}

void Engine::ResetStats() {
  metrics_ = RunMetrics{};
  breakdown_ = hw::Breakdown{};
  platform_->meter().Reset();
  bpool_->ResetStats();
  epoch_ = sim_->Now();
  // The WAL and the fault injector count from construction; snapshot them
  // so FinishRun() reports the measurement window only (warmup used to
  // contaminate these counters).
  log_baseline_ = log_->stats();
  faults_baseline_ = fault_ ? fault_->total_injected() : 0;
  // Restart the trace too: the exported timeline covers the window.
  if (tracer_) tracer_->Clear();
  if (flight_) flight_->Reset();
  if (profiler_) profiler_->Reset();
  if (admission_) admission_->ResetStats();
}

void Engine::FinishRun() {
  metrics_.elapsed_ns = sim_->Now() - epoch_;
  metrics_.joules = platform_->TotalJoules(metrics_.elapsed_ns);
  const wal::LogStats& ls = log_->stats();
  metrics_.log_flush_retries = ls.flush_retries - log_baseline_.flush_retries;
  metrics_.log_flush_failures =
      ls.flush_failures - log_baseline_.flush_failures;
  metrics_.log_backoff_ns = ls.flush_backoff_ns - log_baseline_.flush_backoff_ns;
  if (fault_) {
    metrics_.faults_injected = fault_->total_injected() - faults_baseline_;
  }
}

// --------------------------------------------------------- cost helpers --

sim::Task<void> Engine::CpuWork(ExecContext& ctx, double ns, Component c) {
  const SimTime t = static_cast<SimTime>(ns);
  if (threaded_ || t <= 0) co_return;
  sim::CorePool& cores = platform_->cpu(ctx.socket);
  if (ctx.core_held) {
    co_await cores.Work(t);
  } else {
    co_await cores.Attach();
    co_await cores.Work(t);
    cores.Detach();
  }
  ChargeCpu(t, c);
}

sim::Task<void> Engine::CpuWorkNoCore(double ns, Component c) {
  const SimTime t = static_cast<SimTime>(ns);
  if (threaded_ || t <= 0) co_return;
  co_await sim::Delay{sim_, t};
  ChargeCpu(t, c);
}

void Engine::ChargeCpu(SimTime t, Component c) {
  if (threaded_ || t <= 0) return;
  platform_->meter().ChargeBusy(platform_->cpu_component(), t, 0);
  breakdown_.Charge(c, t);
}

sim::Task<void> Engine::ProbeCost(ExecContext& ctx, int levels,
                                  uint32_t key_bytes) {
  if (threaded_) co_return;
  bool software = !UseHwProbe();
  if (!software) {
    // Post the probe descriptor (tiny CPU cost), then the asynchronous
    // hardware round trip.
    co_await CpuWork(ctx, 25.0, Component::kBtree);
    const Status hw = co_await probe_unit_->ProbeFromHost(levels, key_bytes);
    obs::TxnTimeline* tl =
        ctx.xct != nullptr ? ctx.xct->timeline : nullptr;
    if (!hw.ok()) {
      // Degraded mode: a failed hardware probe falls back to the software
      // walk (the index is functionally host-visible) and is counted, not
      // silently absorbed.
      ++metrics_.hw_fallbacks;
      if (tl != nullptr) ++tl->fallbacks;
      software = true;
    } else if (tl != nullptr) {
      tl->TagHw(obs::Stage::kExecute);
    }
  }
  if (software) {
    // Software comparisons also pay per extra key word.
    const double extra =
        key_bytes > 8
            ? platform_->cost().InstrNs(2.0 * ((key_bytes - 1) / 8)) * levels
            : 0.0;
    co_await CpuWork(ctx,
                     platform_->cost().BtreeProbeNs(
                         levels, config_.index_config.inner_fanout) +
                         extra,
                     Component::kBtree);
  }
}

sim::Task<Status> Engine::LogWriteTimed(ExecContext& ctx,
                                        wal::RecordType type, Table* table,
                                        Slice key, Slice redo, Slice undo) {
  // Materialize before the first suspension: callers may pass ReadView()
  // views, which other transactions can invalidate while this waits.
  std::string key_s = key.ToString();
  std::string redo_s = redo.ToString();
  std::string undo_s = undo.ToString();
  obs::TxnTimeline* tl = ctx.xct != nullptr ? ctx.xct->timeline : nullptr;
  const SimTime w0 = tl != nullptr ? sim_->Now() : 0;
  const bool hw_log =
      config_.mode == EngineMode::kBionic && config_.offload.logging;
  if (hw_log) {
    // The CPU only posts a descriptor; ordering happens in the unit.
    co_await CpuWork(ctx, static_cast<double>(log_unit_->CpuSubmitCost()),
                     Component::kLog);
  }
  const SimTime t0 = sim_->Now();
  Status st;
  {
    // On threads the transaction's concurrently running actions share its
    // begin record, LSN chain and undo chain.
    std::unique_lock<std::mutex> xl = XctLatch(ctx.xct);
    st = co_await xm_->LogWrite(ctx.xct, type, table->id(), std::move(key_s),
                                std::move(redo_s), std::move(undo_s),
                                ctx.socket);
  }
  if (!hw_log) {
    // Software log: the caller burns CPU for the whole reserve/copy/release
    // (plus any contention stall), so the elapsed append time is charged
    // as CPU work on the Log component.
    ChargeCpu(sim_->Now() - t0, Component::kLog);
  }
  if (tl != nullptr) {
    tl->Charge(obs::Stage::kWalAppend, sim_->Now() - w0);
    if (hw_log) tl->TagHw(obs::Stage::kWalAppend);
  }
  co_return st;
}

// ------------------------------------------- threaded backend: latches --

void Engine::AttachThreadedBackend(exec::ThreadedBackend* backend) {
  threaded_ = backend;
  xm_->set_log(backend != nullptr ? &backend->wal() : log_.get());
  if (backend == nullptr) return;
  table_mu_.clear();
  for (size_t i = 0; i < db_->num_tables(); ++i) {
    table_mu_.push_back(std::make_unique<std::shared_mutex>());
  }
}

Engine::ReadLock Engine::ReadLatch(const Table* table) {
  if (!threaded_) return {};
  BIONICDB_CHECK(table->id() < table_mu_.size());
  return ReadLock(*table_mu_[table->id()]);
}

Engine::WriteLock Engine::WriteLatch(const Table* table) {
  if (!threaded_) return {};
  BIONICDB_CHECK(table->id() < table_mu_.size());
  return WriteLock(*table_mu_[table->id()]);
}

Engine::ReadLock Engine::DiskReadLatch() {
  return threaded_ ? ReadLock(disk_mu_) : ReadLock();
}

Engine::WriteLock Engine::DiskWriteLatch() {
  return threaded_ ? WriteLock(disk_mu_) : WriteLock();
}

std::unique_lock<std::mutex> Engine::XctLatch(txn::Xct* xct) {
  return threaded_ ? std::unique_lock<std::mutex>(xct->mu)
                   : std::unique_lock<std::mutex>();
}

/// On threads a view may alias memory that other threads move (B+Tree
/// splits, overlay arena growth on *other* keys), so the bytes are copied
/// into a per-thread rotating ring while the latch is held. A slot lives
/// until the same thread's 8th next copy — far beyond the "decode before
/// the next engine call" contract views carry anyway.
Slice Engine::ScratchCopy(Slice v) {
  if (!threaded_) return v;
  static thread_local std::array<std::string, 8> scratch;
  static thread_local size_t next = 0;
  std::string& slot = scratch[next++ & 7];
  slot.assign(v.data(), v.size());
  return Slice(slot);
}

sim::Task<Result<storage::Page*>> Engine::FetchPage(storage::PageId id) {
  if (!threaded_) co_return co_await bpool_->Fetch(id);
  ReadLock dl = DiskReadLatch();
  storage::Page* page = data_disk_->GetPageForLoad(id);
  if (page == nullptr) co_return Status::NotFound("page missing");
  co_return page;
}

void Engine::UnpinPage(storage::PageId id, bool dirty) {
  if (!threaded_) bpool_->Unpin(id, dirty);
}

// ----------------------------------------------------------- row access --

sim::Task<Result<std::string>> Engine::Read(ExecContext& ctx, Table* table,
                                            Slice key) {
  // (No `cond ? co_await a : co_await b` — GCC 12 miscompiles it.)
  if (UseOverlay()) {
    auto r = co_await ReadOverlayView(ctx, table, key);
    if (!r.ok()) co_return r.status();
    co_return r->ToString();
  }
  auto r = co_await ReadPagedView(ctx, table, key);
  if (!r.ok()) co_return r.status();
  co_return r->ToString();
}

sim::Task<Result<Slice>> Engine::ReadView(ExecContext& ctx, Table* table,
                                          Slice key) {
  if (UseOverlay()) co_return co_await ReadOverlayView(ctx, table, key);
  co_return co_await ReadPagedView(ctx, table, key);
}

sim::Task<Result<Slice>> Engine::ReadPagedView(ExecContext& ctx,
                                               Table* table, Slice key) {
  ReadLock rl = ReadLatch(table);
  if (table->compact()) {
    // Packed-index probe + slab read: no buffer pool in compact mode. The
    // view is taken after the last suspension (concurrent writes may
    // relocate a slab entry while this transaction waits).
    int cvisits = 0;
    const Status probe =
        table->compact_store()->Get(key, &cvisits).status();
    co_await ProbeCost(ctx, cvisits, static_cast<uint32_t>(key.size()));
    if (!probe.ok()) co_return probe;
    co_await CpuWork(ctx, platform_->cost().TupleReadNs(), Component::kOther);
    auto rec = table->compact_store()->Get(key, nullptr);
    if (!rec.ok()) co_return rec.status();
    co_return ScratchCopy(*rec);
  }
  int visits = 0;
  auto rid_view = table->primary().GetTracedView(key, &visits);
  // Decode before suspending: the index view dies with the next index write.
  storage::Rid rid{};
  if (rid_view.ok()) rid = index::DecodeRid(*rid_view);
  co_await ProbeCost(ctx, visits, static_cast<uint32_t>(key.size()));
  if (!rid_view.ok()) co_return rid_view.status();

  co_await CpuWork(ctx, platform_->cost().BpoolLookupNs(), Component::kBpool);
  auto frame = co_await FetchPage(rid.page_id);
  if (!frame.ok()) co_return frame.status();
  // Keep the frame pinned across the tuple-read charge so the record view
  // is taken after the last suspension; the bytes then stay put until the
  // caller writes or suspends (frames alias the device's stable pages).
  co_await CpuWork(ctx, platform_->cost().TupleReadNs(), Component::kOther);
  auto rec = (*frame)->Get(rid.slot);
  UnpinPage(rid.page_id, false);
  if (!rec.ok()) co_return rec.status();
  co_return ScratchCopy(*rec);
}

sim::Task<Result<Slice>> Engine::ReadOverlayView(ExecContext& ctx,
                                                 Table* table, Slice key) {
  Overlay* ov = table->overlay();
  BIONICDB_CHECK(ov != nullptr);
  ReadLock rl = ReadLatch(table);
  int visits = 0;
  Status probe = ov->GetTracedView(key, &visits).status();
  co_await ProbeCost(ctx, visits, static_cast<uint32_t>(key.size()));
  if (probe.ok()) {
    // Record is inline in the overlay leaf: no buffer pool at all.
    co_await CpuWork(ctx, platform_->cost().InstrNs(20), Component::kOther);
    // Re-probe (untimed) after the last suspension: concurrent overlay
    // writes during the waits above may have moved the leaf arena.
    auto view = ov->GetView(key);
    if (view.ok()) co_return ScratchCopy(*view);
    // Evicted while waiting (tiny overlays): fall through to the fetch.
    probe = view.status();
  }
  if (probe.IsNotFound()) co_return probe;  // tombstone
  BIONICDB_CHECK(probe.IsOutOfMemory());
  rl = ReadLock();  // released: the miss leg latches exclusively

  for (;;) {
    // §5.6: "If disk access is needed, the hardware operation aborts so
    // that software can trigger a data fetch and then retry." Software
    // fetch:
    co_await CpuWork(ctx, platform_->cost().BpoolLookupNs(),
                     Component::kBpool);
    // The install mutates the overlay, so this leg latches exclusively.
    // Threads re-probe under it first: another reader of the key may have
    // installed it since the shared probe above.
    WriteLock wl = WriteLatch(table);
    if (threaded_) {
      auto view = ov->GetView(key);
      if (view.ok()) co_return ScratchCopy(*view);
      if (view.status().IsNotFound()) co_return view.status();
    }
    auto rid = table->LookupRid(key);
    if (!rid.ok()) co_return rid.status();  // genuinely absent
    // On the heap, and on this leg only: a local Page would put 8 KiB in
    // the coroutine frame of every overlay read, hits included.
    auto page = std::make_unique<storage::Page>();
    if (threaded_) {
      // No timed device read: copy the page the read would return.
      auto base = co_await FetchPage(rid->page_id);
      if (!base.ok()) co_return base.status();
      *page = **base;
    } else {
      Status io = co_await data_disk_->ReadPage(rid->page_id, page.get());
      if (!io.ok()) co_return io;
    }
    auto rec = page->Get(rid->slot);
    if (!rec.ok()) co_return rec.status();
    ov->InstallClean(key, *rec);
    // Retry the (now resident) probe.
    int retry_visits = 0;
    BIONICDB_CHECK(ov->GetTracedView(key, &retry_visits).ok());
    co_await ProbeCost(ctx, retry_visits);
    auto view = ov->GetView(key);
    if (view.ok()) co_return ScratchCopy(*view);
    // Evicted again while the probe cost elapsed: fetch once more.
  }
}

sim::Task<void> Engine::MultiReadOne(ExecContext ctx, Table* table,
                                     std::string key,
                                     Result<std::string>* out, int* remaining,
                                     sim::Completion* done) {
  *out = co_await Read(ctx, table, key);
  if (--*remaining == 0) done->Set();
}

sim::Task<std::vector<Result<std::string>>> Engine::MultiRead(
    ExecContext& ctx, Table* table, const std::vector<std::string>& keys) {
  std::vector<Result<std::string>> out(keys.size(),
                                       Result<std::string>(Status::Busy()));
  // Threads read back-to-back: the overlap is a timing effect.
  if (threaded_ || !UseHwProbe() || keys.size() <= 1) {
    for (size_t i = 0; i < keys.size(); ++i) {
      out[i] = co_await Read(ctx, table, keys[i]);
    }
    co_return out;
  }
  // Issue every probe concurrently; they overlap inside the probe unit's
  // contexts while the caller waits for the join.
  sim::Completion done(sim_);
  int remaining = static_cast<int>(keys.size());
  ExecContext sub = ctx;
  sub.core_held = false;  // detached probes attach cores per work chunk
  for (size_t i = 0; i < keys.size(); ++i) {
    sim_->Spawn(
        MultiReadOne(sub, table, keys[i], &out[i], &remaining, &done));
  }
  co_await done.Wait();
  co_return out;
}

sim::Task<Status> Engine::Update(ExecContext& ctx, Table* table, Slice key,
                                 Slice record, const Slice* known_old) {
  // The before-image (a view either way) is consumed by LogWriteTimed
  // before its first suspension, so no owning copy is made here.
  if (known_old != nullptr) {
    BIONICDB_CO_RETURN_NOT_OK(co_await LogWriteTimed(
        ctx, wal::RecordType::kUpdate, table, key, record, *known_old));
  } else {
    auto old = co_await ReadView(ctx, table, key);
    if (!old.ok()) co_return old.status();
    BIONICDB_CO_RETURN_NOT_OK(co_await LogWriteTimed(
        ctx, wal::RecordType::kUpdate, table, key, record, *old));
  }

  WriteLock wl = WriteLatch(table);
  if (UseOverlay()) {
    table->overlay()->Put(key, record);
  } else if (table->compact()) {
    // Slab rewrite, in place when the new bytes fit (functional; the
    // TupleWriteNs charge below covers the copy).
    Status st = table->BasePut(key, record);
    if (!st.ok()) co_return st;
  } else {
    // In-place page update through the buffer pool.
    auto rid = table->LookupRid(key);
    BIONICDB_CHECK(rid.ok());
    co_await CpuWork(ctx, platform_->cost().BpoolLookupNs(),
                     Component::kBpool);
    auto frame = co_await FetchPage(rid->page_id);
    if (!frame.ok()) co_return frame.status();
    Status st = (*frame)->Update(rid->slot, record);
    UnpinPage(rid->page_id, true);
    if (st.IsResourceExhausted()) {
      // Record grew past its page: functional relocation (which may
      // allocate a page).
      WriteLock dl = DiskWriteLatch();
      st = table->BasePut(key, record);
    }
    if (!st.ok()) co_return st;
  }
  co_await CpuWork(ctx, platform_->cost().TupleWriteNs(), Component::kOther);
  co_return Status::OK();
}

sim::Task<Status> Engine::Insert(ExecContext& ctx, Table* table, Slice key,
                                 Slice record) {
  // Uniqueness check through the regular probe path (view probes: only the
  // outcome is needed, never the bytes).
  ReadLock rl = ReadLatch(table);
  if (UseOverlay()) {
    int visits = 0;
    Status existing = table->overlay()->GetTracedView(key, &visits).status();
    co_await ProbeCost(ctx, visits);
    if (existing.ok()) co_return Status::AlreadyExists("key exists");
    if (existing.IsOutOfMemory() && table->LookupRid(key).ok()) {
      co_return Status::AlreadyExists("key exists in base data");
    }
  } else if (table->compact()) {
    int visits = 0;
    const bool exists = table->compact_store()->Get(key, &visits).ok();
    co_await ProbeCost(ctx, visits);
    if (exists) co_return Status::AlreadyExists("key exists");
  } else {
    int visits = 0;
    const bool exists = table->primary().GetTracedView(key, &visits).ok();
    co_await ProbeCost(ctx, visits);
    if (exists) co_return Status::AlreadyExists("key exists");
  }
  rl = ReadLock();  // no latch across the WAL append

  BIONICDB_CO_RETURN_NOT_OK(co_await LogWriteTimed(
      ctx, wal::RecordType::kInsert, table, key, record, Slice()));

  WriteLock wl = WriteLatch(table);
  if (UseOverlay()) {
    table->overlay()->Put(key, record);
    // Leaf insert + possible split work.
    co_await CpuWork(ctx, platform_->cost().InstrNs(60), Component::kBtree);
  } else if (table->compact()) {
    Status st = table->BasePut(key, record);
    if (!st.ok()) co_return st;
    // Delta-map insert stands in for the leaf insert; no pool to install
    // a fresh page into.
    co_await CpuWork(ctx, platform_->cost().InstrNs(60), Component::kBtree);
  } else {
    WriteLock dl = DiskWriteLatch();  // BasePut may allocate a page
    Status st = table->BasePut(key, record);
    if (!st.ok()) co_return st;
    // A fresh fill page is materialized in the pool directly (like
    // NewPage): inserts never cause a device read.
    if (!threaded_) {
      auto rid = table->LookupRid(key);
      if (rid.ok()) (void)co_await bpool_->InstallLoaded(rid->page_id);
    }
    co_await CpuWork(ctx,
                     platform_->cost().BtreeNodeVisitNs(
                         config_.index_config.leaf_capacity, true),
                     Component::kBtree);
    co_await CpuWork(ctx, platform_->cost().BpoolLookupNs(),
                     Component::kBpool);
  }
  co_await CpuWork(ctx, platform_->cost().TupleWriteNs(), Component::kOther);
  co_return Status::OK();
}

sim::Task<Status> Engine::Delete(ExecContext& ctx, Table* table, Slice key) {
  auto old = co_await ReadView(ctx, table, key);
  if (!old.ok()) co_return old.status();

  // The view is consumed by LogWriteTimed before its first suspension.
  BIONICDB_CO_RETURN_NOT_OK(co_await LogWriteTimed(
      ctx, wal::RecordType::kDelete, table, key, Slice(), *old));

  WriteLock wl = WriteLatch(table);
  if (UseOverlay()) {
    table->overlay()->Delete(key);
  } else {
    // Delete only looks its page up (no allocation): shared disk latch.
    ReadLock dl = DiskReadLatch();
    Status st = table->BaseDelete(key);
    if (!st.ok()) co_return st;
    if (!table->compact()) {
      co_await CpuWork(ctx, platform_->cost().BpoolLookupNs(),
                       Component::kBpool);
    }
  }
  co_await CpuWork(ctx, platform_->cost().TupleWriteNs(), Component::kOther);
  co_return Status::OK();
}

sim::Task<Result<std::string>> Engine::ProbeSecondary(
    ExecContext& ctx, Table* table, const std::string& index_name,
    Slice skey) {
  ReadLock rl = ReadLatch(table);
  index::BTree* idx = table->secondary(index_name);
  if (idx == nullptr) co_return Status::NotFound("no index " + index_name);
  int visits = 0;
  auto r = idx->GetTraced(skey, &visits);
  co_await ProbeCost(ctx, visits, static_cast<uint32_t>(skey.size()));
  if (!r.ok()) co_return r.status();
  co_return std::move(r).value();
}

sim::Task<Status> Engine::InsertSecondary(ExecContext& ctx, Table* table,
                                          const std::string& index_name,
                                          Slice skey, Slice pkey) {
  WriteLock wl = WriteLatch(table);
  index::BTree* idx = table->secondary(index_name);
  if (idx == nullptr) co_return Status::NotFound("no index " + index_name);
  int visits = 0;
  (void)idx->GetTraced(skey, &visits);  // descend to the leaf
  co_await ProbeCost(ctx, visits);
  // Upsert: a retried transaction may re-add the entry its aborted attempt
  // left behind; identical (skey -> pkey) mappings are harmless.
  Status st = idx->Insert(skey, pkey, /*overwrite=*/true);
  if (st.ok() && ctx.xct != nullptr) {
    txn::UndoEntry undo;
    undo.type = wal::RecordType::kInsert;
    undo.table_id = table->id();
    undo.key = skey.ToString();
    undo.index_name = index_name;
    std::unique_lock<std::mutex> xl = XctLatch(ctx.xct);
    ctx.xct->undo_chain.push_back(std::move(undo));
  }
  co_await CpuWork(ctx, platform_->cost().InstrNs(40), Component::kBtree);
  co_return st;
}

sim::Task<Result<std::vector<std::pair<std::string, std::string>>>>
Engine::RangeRead(ExecContext& ctx, Table* table, Slice lo, Slice hi,
                  size_t limit) {
  ReadLock rl = ReadLatch(table);
  ReadLock dl = DiskReadLatch();
  // Functional result: base rows in [lo, hi) patched by the overlay.
  std::map<std::string, std::string> merged;
  if (table->compact()) {
    table->compact_store()->Scan(lo, hi, [&merged](Slice k, Slice rec) {
      merged[k.ToString()] = rec.ToString();
      return true;
    });
  } else {
    for (auto it = table->primary().SeekRange(lo, hi); it.Valid();
         it.Next()) {
      auto rec = table->BaseGet(it.key());
      if (rec.ok()) merged[it.key().ToString()] = std::move(*rec);
    }
  }
  if (table->overlay() != nullptr) {
    const index::BTree& ov = table->overlay()->index();
    for (auto it = ov.SeekRange(lo, hi); it.Valid(); it.Next()) {
      Slice tagged = it.value();
      if (tagged[0] == Overlay::kTombstone) {
        merged.erase(it.key().ToString());
      } else {
        Slice rec(tagged.data() + 1, tagged.size() - 1);
        merged[it.key().ToString()] = rec.ToString();
      }
    }
  }
  std::vector<std::pair<std::string, std::string>> rows;
  for (auto& kv : merged) {
    if (limit != 0 && rows.size() >= limit) break;
    rows.push_back(kv);
  }
  if (threaded_) co_return rows;

  // Timing: one probe to locate the start leaf, then per-row costs.
  int visits = table->probe_height();
  co_await ProbeCost(ctx, visits);
  if (UseOverlay()) {
    // The hardware engine streams leaves FPGA-side; the host receives only
    // the qualifying rows over PCIe.
    uint64_t bytes = 0;
    for (auto& [k, v] : rows) bytes += k.size() + v.size();
    if (bytes > 0) {
      // The transaction-level accounting in Execute() counts the IOError
      // once; counting it here too used to double-book io_errors.
      BIONICDB_CO_RETURN_NOT_OK(co_await platform_->pcie().Transfer(bytes));
    }
    co_await CpuWork(ctx,
                     platform_->cost().InstrNs(12.0) *
                         static_cast<double>(rows.size()),
                     Component::kBtree);
  } else {
    // Scanned rows are clustered: the buffer pool is charged only when the
    // scan crosses onto a new page (the frame stays pinned across the
    // page's rows, as a real scan operator would hold its latch). Compact
    // tables are memory-resident — entry + tuple costs only.
    storage::PageId current_page = storage::kInvalidPageId;
    for (auto& [k, v] : rows) {
      co_await CpuWork(ctx, platform_->cost().BtreeScanEntryNs(),
                       Component::kBtree);
      if (!table->compact()) {
        auto rid = table->LookupRid(k);
        if (rid.ok() && rid->page_id != current_page) {
          current_page = rid->page_id;
          co_await CpuWork(ctx, platform_->cost().BpoolLookupNs(),
                           Component::kBpool);
          auto frame = co_await bpool_->Fetch(rid->page_id);
          if (frame.ok()) bpool_->Unpin(rid->page_id, false);
        }
      }
      co_await CpuWork(ctx, platform_->cost().TupleScanNs(),
                       Component::kOther);
    }
  }
  co_return rows;
}

sim::Task<Result<std::vector<std::pair<std::string, std::string>>>>
Engine::RangeReadIndex(ExecContext& ctx, Table* table,
                       const std::string& index_name, Slice lo, Slice hi,
                       size_t limit) {
  ReadLock rl = ReadLatch(table);
  index::BTree* idx = table->secondary(index_name);
  if (idx == nullptr) co_return Status::NotFound("no index " + index_name);
  std::vector<std::pair<std::string, std::string>> rows;
  for (auto it = idx->SeekRange(lo, hi); it.Valid(); it.Next()) {
    if (limit != 0 && rows.size() >= limit) break;
    rows.emplace_back(it.key().ToString(), it.value().ToString());
  }
  if (threaded_) co_return rows;
  // One probe to the start leaf, then an entry walk.
  co_await ProbeCost(ctx, idx->height());
  if (UseHwProbe()) {
    uint64_t bytes = 0;
    for (auto& [k, v] : rows) bytes += k.size() + v.size();
    if (bytes > 0) {
      BIONICDB_CO_RETURN_NOT_OK(co_await platform_->pcie().Transfer(bytes));
    }
    co_await CpuWork(ctx,
                     platform_->cost().InstrNs(12.0) *
                         static_cast<double>(rows.size()),
                     Component::kBtree);
  } else {
    co_await CpuWork(ctx,
                     platform_->cost().BtreeScanEntryNs() *
                         static_cast<double>(rows.size()),
                     Component::kBtree);
  }
  co_return rows;
}

// ------------------------------------------------------------- analytics --

sim::Task<Result<uint64_t>> Engine::ScanCount(
    ExecContext& ctx, Table* table, const std::function<bool(Slice)>& pred) {
  ReadLock rl = ReadLatch(table);
  ReadLock dl = DiskReadLatch();
  // Functional answer over the live logical table.
  auto rows = table->ScanAll();
  uint64_t matches = 0;
  uint64_t bytes = 0;
  for (auto& [key, rec] : rows) {
    bytes += rec.size();
    if (pred(Slice(rec))) ++matches;
  }
  if (threaded_) co_return matches;
  const double selectivity =
      rows.empty() ? 0.0
                   : static_cast<double>(matches) /
                         static_cast<double>(rows.size());

  bool hw_scan =
      config_.mode == EngineMode::kBionic && config_.offload.scanner;
  if (hw_scan) {
    // Netezza-style filtering at the FPGA: only qualifying bytes cross PCIe.
    auto timing = co_await scanner_unit_->Scan(bytes, selectivity);
    if (timing.ok()) {
      co_await CpuWork(ctx,
                       platform_->cost().InstrNs(6.0) *
                           static_cast<double>(matches),
                       Component::kOther);
    } else {
      // Degraded mode: the scanner died mid-stream; re-run the scan the
      // expensive way (everything over PCIe, CPU filters).
      ++metrics_.hw_fallbacks;
      if (ctx.xct != nullptr && ctx.xct->timeline != nullptr) {
        ++ctx.xct->timeline->fallbacks;
      }
      hw_scan = false;
    }
  }
  if (!hw_scan) {
    Status io;
    if (config_.platform.has_fpga) {
      // Data is FPGA-side but filtering is not offloaded: everything
      // crosses the PCI bus, then the CPU filters.
      io = co_await platform_->pcie().Transfer(bytes);
    } else {
      // Commodity: stream from host memory, filter on the CPU.
      io = co_await platform_->host_dram().Transfer(bytes);
    }
    BIONICDB_CO_RETURN_NOT_OK(io);
    co_await CpuWork(ctx,
                     platform_->cost().InstrNs(10.0) *
                         static_cast<double>(rows.size()),
                     Component::kOther);
  }
  co_return matches;
}

sim::Task<Result<Engine::ProjectionAggregate>> Engine::ScanProjection(
    ExecContext& ctx, Table* table, const std::string& projection_name,
    const std::function<bool(int64_t)>& pred) {
  ReadLock rl = ReadLatch(table);
  const Table::Projection* proj = table->projection(projection_name);
  if (proj == nullptr) {
    co_return Status::NotFound("no projection " + projection_name);
  }
  // Functional answer: projection values patched with the overlay delta.
  ProjectionAggregate agg;
  std::map<std::string, std::optional<std::string>> delta;
  if (table->overlay() != nullptr) {
    for (auto& [k, rec] : table->overlay()->DirtySnapshot()) delta[k] = rec;
  }
  uint64_t patched = 0;
  for (size_t i = 0; i < proj->keys.size(); ++i) {
    int64_t v = proj->values[i];
    auto it = delta.find(proj->keys[i]);
    if (it != delta.end()) {
      ++patched;
      if (!it->second.has_value()) continue;  // deleted since the merge
      v = proj->extractor(Slice(*it->second));
      delta.erase(it);
    }
    if (!pred || pred(v)) {
      ++agg.matches;
      agg.sum += v;
    }
  }
  // Rows inserted since the merge exist only in the delta.
  for (auto& [k, rec] : delta) {
    if (!rec.has_value()) continue;
    ++patched;
    const int64_t v = proj->extractor(Slice(*rec));
    if (!pred || pred(v)) {
      ++agg.matches;
      agg.sum += v;
    }
  }
  if (threaded_) co_return agg;

  // Timing: the column (8 bytes/row) streams through the scanner or the
  // host; aggregation ships only the result. Patching costs CPU per
  // delta row.
  const uint64_t bytes = proj->SizeBytes();
  bool hw_scan =
      config_.mode == EngineMode::kBionic && config_.offload.scanner;
  if (hw_scan) {
    auto timing = co_await scanner_unit_->Scan(bytes, 0.0);
    if (!timing.ok()) {
      ++metrics_.hw_fallbacks;
      if (ctx.xct != nullptr && ctx.xct->timeline != nullptr) {
        ++ctx.xct->timeline->fallbacks;
      }
      hw_scan = false;
    }
  }
  if (!hw_scan) {
    Status io;
    if (config_.platform.has_fpga) {
      io = co_await platform_->pcie().Transfer(bytes);
    } else {
      io = co_await platform_->host_dram().Transfer(bytes);
    }
    BIONICDB_CO_RETURN_NOT_OK(io);
    co_await CpuWork(ctx,
                     platform_->cost().InstrNs(3.0) *
                         static_cast<double>(proj->values.size()),
                     Component::kOther);
  }
  co_await CpuWork(ctx,
                   platform_->cost().TupleReadNs() *
                       static_cast<double>(patched),
                   Component::kOther);
  co_return agg;
}

// ------------------------------------------------------------ maintenance --

sim::Task<Status> Engine::BulkMerge(ExecContext& ctx, Table* table) {
  Overlay* ov = table->overlay();
  if (ov == nullptr) co_return Status::NotSupported("table has no overlay");
  WriteLock wl = WriteLatch(table);
  WriteLock dl = DiskWriteLatch();
  auto delta = ov->TakeDirty();
  uint64_t bytes = 0;
  for (auto& [key, rec] : delta) {
    if (rec.has_value()) {
      bytes += rec->size();
      BIONICDB_CO_RETURN_NOT_OK(table->BasePut(key, *rec));
    } else {
      Status st = table->BaseDelete(key);
      if (!st.ok() && !st.IsNotFound()) co_return st;
    }
    co_await CpuWorkNoCore(platform_->cost().InstrNs(40.0),
                           Component::kBpool);
  }
  // Sorted bulk write back to the data disk.
  if (bytes > 0 && !threaded_) {
    Status st = co_await data_disk_->AppendRaw(bytes);
    if (!st.ok()) co_return st;
  }
  // Projections track base data: rebuild them now that base moved.
  table->RefreshProjections();
  co_return Status::OK();
}

sim::Task<Status> Engine::Checkpoint(ExecContext& ctx) {
  // 1. Make base data reflect everything logged so far.
  for (uint32_t i = 0; i < db_->num_tables(); ++i) {
    Table* table = db_->GetTable(i);
    if (table->overlay() != nullptr) {
      BIONICDB_CO_RETURN_NOT_OK(co_await BulkMerge(ctx, table));
    }
  }
  if (!UseOverlay() && !threaded_) {
    BIONICDB_CO_RETURN_NOT_OK(co_await bpool_->FlushAll());
  }
  // 2. Mark the log the transactions write (the backend's on threads):
  // replay after a crash starts here.
  wal::LogManager* log = xm_->log();
  wal::LogRecord rec;
  rec.type = wal::RecordType::kCheckpoint;
  rec.prev_lsn = log->current_lsn();
  const wal::Lsn lsn = co_await log->Append(std::move(rec), ctx.socket);
  co_return co_await log->WaitDurable(lsn + 1);
}

sim::Task<Status> Engine::ReorganizeIndex(ExecContext& ctx, Table* table) {
  WriteLock wl = WriteLatch(table);
  if (table->compact()) {
    // The compact analogue: fold the delta back into the packed run.
    const size_t centries = table->compact_store()->Compact();
    co_await CpuWorkNoCore(platform_->cost().InstrNs(30.0) *
                               static_cast<double>(centries),
                           Component::kBtree);
    co_return Status::OK();
  }
  index::BTree& idx = table->primary();
  const size_t entries = idx.size();
  Status st = idx.Rebuild();
  if (!st.ok()) co_return st;
  // Sequential rebuild: sorted leaf fill at memory bandwidth-ish cost.
  co_await CpuWorkNoCore(platform_->cost().InstrNs(30.0) *
                             static_cast<double>(entries),
                         Component::kBtree);
  co_return Status::OK();
}

// ------------------------------------------------------------ txn driving --

void Engine::ApplyUndo(const txn::UndoEntry& entry) {
  Table* table = db_->GetTable(entry.table_id);
  BIONICDB_CHECK(table != nullptr);
  // Undo can BasePut base data, which may allocate a page.
  WriteLock wl = WriteLatch(table);
  WriteLock dl = DiskWriteLatch();
  if (!entry.index_name.empty()) {
    // Secondary-index maintenance: remove the derived entry.
    index::BTree* idx = table->secondary(entry.index_name);
    BIONICDB_CHECK(idx != nullptr);
    (void)idx->Delete(entry.key);
    return;
  }
  if (UseOverlay()) {
    Overlay* ov = table->overlay();
    switch (entry.type) {
      case wal::RecordType::kInsert:
        ov->RemoveEntry(entry.key);
        break;
      case wal::RecordType::kUpdate:
      case wal::RecordType::kDelete:
        ov->Put(entry.key, entry.before);
        break;
      default:
        BIONICDB_CHECK_MSG(false, "bad undo entry type");
    }
    return;
  }
  switch (entry.type) {
    case wal::RecordType::kInsert:
      BIONICDB_CHECK(table->BaseDelete(entry.key).ok());
      break;
    case wal::RecordType::kUpdate:
    case wal::RecordType::kDelete:
      BIONICDB_CHECK(table->BasePut(entry.key, entry.before).ok());
      break;
    default:
      BIONICDB_CHECK_MSG(false, "bad undo entry type");
  }
}

sim::Task<void> Engine::ReleaseAllLocks(txn::Xct* xct) {
  if (config_.mode == EngineMode::kConventional) {
    lm_->ReleaseAll(xct);
  } else {
    co_await executor_->ReleaseTxnLocks(xct);
  }
}

sim::Task<Status> Engine::CommitTxn(ExecContext& ctx, txn::Xct* xct) {
  obs::TxnTimeline* tl = xct->timeline;
  const SimTime commit0 = tl != nullptr ? sim_->Now() : 0;
  co_await CpuWorkNoCore(platform_->cost().XctCommitNs(), Component::kXct);
  // The commit-record append is CPU work on the software log; the
  // durability wait afterwards is idle time and is deliberately not
  // charged to the breakdown.
  const SimTime t0 = sim_->Now();
  const wal::Lsn commit_lsn = co_await xm_->AppendCommitRecord(xct,
                                                               ctx.socket);
  const bool hw_log =
      config_.mode == EngineMode::kBionic && config_.offload.logging;
  if (!hw_log) ChargeCpu(sim_->Now() - t0, Component::kLog);
  if (tl != nullptr) {
    // Commit protocol up to (and including) ordering the commit record.
    tl->Charge(obs::Stage::kCommit, sim_->Now() - commit0);
    if (hw_log) tl->TagHw(obs::Stage::kCommit);
  }
  const SimTime flush0 = tl != nullptr ? sim_->Now() : 0;
  Status st = co_await xm_->WaitCommitDurable(xct, commit_lsn);
  if (tl != nullptr) tl->Charge(obs::Stage::kFlushWait, sim_->Now() - flush0);
  if (!st.ok()) {
    // The commit record never became durable (flush abandoned / device
    // crashed): the transaction is NOT committed. Surface it instead of
    // silently succeeding; recovery will treat it as a loser.
    ++metrics_.durability_failures;
  }
  co_await ReleaseAllLocks(xct);
  co_return st;
}

sim::Task<Status> Engine::AbortTxn(ExecContext& ctx, txn::Xct* xct) {
  // Undo is CPU work proportional to the number of reverted actions.
  co_await CpuWorkNoCore(platform_->cost().TupleWriteNs() *
                             static_cast<double>(xct->undo_chain.size()),
                         Component::kXct);
  Status st = co_await xm_->Abort(
      xct, [this](const txn::UndoEntry& e) { ApplyUndo(e); }, ctx.socket);
  co_await ReleaseAllLocks(xct);
  co_return st;
}

sim::Task<Status> Engine::Execute(TxnSpec spec, int socket,
                                  uint64_t* priority, SimTime arrival_ts) {
  BranchHandle h;
  const Status st = co_await ExecuteBranch(&h, std::move(spec), socket,
                                           priority, arrival_ts);
  const Status finished = co_await FinishBranch(&h, st.ok());
  co_return st.ok() ? finished : st;
}

sim::Task<Status> Engine::ExecuteBranch(BranchHandle* h, TxnSpec spec,
                                        int socket, uint64_t* priority,
                                        SimTime arrival_ts) {
  // Threaded runs drive transactions through ThreadedBackend::Execute; the
  // simulated path below must never run with the backend attached.
  BIONICDB_CHECK(threaded_ == nullptr);
  // Open-loop callers backdate `start` to the admission-queue enqueue time:
  // FinishBranch's latency.Add() then records sojourn (queue wait
  // included), and the admit-stage charge absorbs the wait. Accounting
  // only — every event this coroutine schedules still happens at Now() or
  // later.
  const SimTime now0 = sim_->Now();
  BIONICDB_DCHECK(arrival_ts <= now0);
  const SimTime start = arrival_ts >= 0 ? arrival_ts : now0;
  // In-flight transactions overlap arbitrarily -> async spans on one track.
  if (tracer_) {
    h->span_id = ++trace_txn_seq_;
    tracer_->AsyncBegin(trace_txn_track_, trace_txn_name_, trace_txn_cat_,
                        start, h->span_id);
  }
  // Flight recorder: acquire a pooled timeline (null when disabled; every
  // charge site below and in the layers gates on the pointer).
  obs::TxnTimeline* tl = flight_ ? flight_->Begin(start) : nullptr;
  // Conventional engine: admission waits for a worker-pool slot.
  if (workers_sem_) co_await workers_sem_->Acquire();
  if (tl != nullptr) tl->Charge(obs::Stage::kAdmit, sim_->Now() - start);
  const SimTime route0 = tl != nullptr ? sim_->Now() : 0;
  co_await CpuWorkNoCore(platform_->cost().FrontendDispatchNs(),
                         Component::kFrontend);
  if (tl != nullptr) tl->Charge(obs::Stage::kRoute, sim_->Now() - route0);

  auto xct = xm_->Begin();
  if (priority != nullptr) {
    if (*priority == 0) {
      *priority = xct->priority;
    } else {
      xct->priority = *priority;
    }
  }
  if (tl != nullptr) {
    tl->txn_id = xct->id;
    xct->timeline = tl;
  }
  ExecContext ctx;
  ctx.engine = this;
  ctx.xct = xct.get();
  ctx.socket = socket;
  ctx.core_held = false;
  co_await CpuWorkNoCore(platform_->cost().XctBeginNs(), Component::kXct);

  Status st = co_await RunAllPhases(spec, ctx);
  if (st.IsIOError()) ++metrics_.io_errors;

  h->xct = std::move(xct);
  h->tl = tl;
  h->start = start;
  h->socket = socket;
  co_return st;
}

sim::Task<Status> Engine::PrepareBranch(BranchHandle* h, uint64_t gtid,
                                        bool wait_durable) {
  obs::TxnTimeline* tl = h->tl;
  const SimTime p0 = tl != nullptr ? sim_->Now() : 0;
  co_await CpuWorkNoCore(platform_->cost().XctCommitNs(), Component::kXct);
  // The prepare-record append is CPU work on the software log; the
  // durability wait afterwards is idle and is not charged.
  const SimTime t0 = sim_->Now();
  const wal::Lsn prepare_lsn =
      co_await xm_->AppendPrepareRecord(h->xct.get(), gtid, h->socket);
  const bool hw_log =
      config_.mode == EngineMode::kBionic && config_.offload.logging;
  if (!hw_log) ChargeCpu(sim_->Now() - t0, Component::kLog);
  Status st = Status::OK();
  if (wait_durable) {
    st = co_await xm_->WaitPrepareDurable(prepare_lsn);
  }
  if (tl != nullptr) {
    tl->Charge(obs::Stage::kTwoPCPrepare, sim_->Now() - p0);
    if (hw_log) tl->TagHw(obs::Stage::kTwoPCPrepare);
  }
  co_return st;
}

sim::Task<Status> Engine::LogCoordCommit(BranchHandle* coord, uint64_t gtid) {
  obs::TxnTimeline* tl = coord->tl;
  const SimTime d0 = tl != nullptr ? sim_->Now() : 0;
  // Small fixed cost for assembling the decision record; the append +
  // durability wait dominate inside LogCommitDecision.
  co_await CpuWorkNoCore(platform_->cost().InstrNs(40.0), Component::kLog);
  Status st = co_await xm_->LogCommitDecision(gtid, coord->socket);
  if (tl != nullptr) tl->Charge(obs::Stage::kTwoPCDecision, sim_->Now() - d0);
  co_return st;
}

sim::Task<Status> Engine::LogCoordForget(uint64_t gtid, int socket) {
  BIONICDB_CHECK(threaded_ == nullptr);
  co_await CpuWorkNoCore(platform_->cost().InstrNs(40.0), Component::kLog);
  co_return co_await xm_->LogForgetDecision(gtid, socket);
}

sim::Task<Status> Engine::FinishBranch(BranchHandle* h, bool commit) {
  ExecContext ctx;
  ctx.engine = this;
  ctx.xct = h->xct.get();
  ctx.socket = h->socket;
  ctx.core_held = false;
  Status st;
  if (commit) {
    st = co_await CommitTxn(ctx, h->xct.get());
    if (st.ok()) {
      ++metrics_.commits;
    } else {
      ++metrics_.aborts;
    }
  } else {
    Status abort_st = co_await AbortTxn(ctx, h->xct.get());
    BIONICDB_CHECK(abort_st.ok());
    ++metrics_.aborts;
    st = Status::OK();
  }
  const bool committed = commit && st.ok();
  if (tracer_) {
    const SimTime end = sim_->Now();
    tracer_->Instant(trace_txn_track_,
                     committed ? trace_commit_name_ : trace_abort_name_,
                     trace_txn_cat_, end);
    tracer_->AsyncEnd(trace_txn_track_, trace_txn_name_, trace_txn_cat_, end,
                      h->span_id);
  }
  metrics_.latency.Add(sim_->Now() - h->start);
  if (h->tl != nullptr) {
    // Detach before Finish: the recorder may recycle the record into the
    // pool, and nothing must observe it through the Xct afterwards.
    h->xct->timeline = nullptr;
    flight_->Finish(h->tl, sim_->Now(), committed);
    h->tl = nullptr;
  }
  if (workers_sem_) workers_sem_->Release();
  co_return st;
}

sim::Task<Status> Engine::RunAllPhases(TxnSpec& spec, ExecContext& ctx) {
  // Note: no `cond ? co_await a : co_await b` here — GCC 12 miscompiles
  // co_await inside the conditional operator (frame-temporary lifetime).
  const bool conventional = config_.mode == EngineMode::kConventional;
  for (Phase& phase : spec.phases) {
    Status st;
    if (conventional) {
      st = co_await RunPhaseConventional(phase, ctx);
    } else {
      st = co_await RunPhaseDora(phase, ctx);
    }
    if (!st.ok()) co_return st;
  }
  if (spec.dynamic_phases) {
    for (int i = 0;; ++i) {
      Phase phase;
      if (!spec.dynamic_phases(i, &phase)) break;
      Status st;
      if (conventional) {
        st = co_await RunPhaseConventional(phase, ctx);
      } else {
        st = co_await RunPhaseDora(phase, ctx);
      }
      if (!st.ok()) co_return st;
    }
  }
  co_return Status::OK();
}

sim::Task<Status> Engine::RunPhaseConventional(Phase& phase,
                                               ExecContext& ctx) {
  obs::TxnTimeline* tl = ctx.xct->timeline;
  for (TxnStep& step : phase) {
    // 2PL: centralized lock manager, row locks, wait-die on conflict. On
    // threads the backend's global transaction mutex stands in for it.
    for (const std::string& key : step.keys) {
      if (threaded_) break;
      co_await CpuWork(ctx, platform_->cost().LockAcquireNs(),
                       Component::kXct);
      const SimTime l0 = tl != nullptr ? sim_->Now() : 0;
      Status st = co_await lm_->Acquire(
          ctx.xct, QualifiedKey(step.table, key),
          step.read_only ? txn::LockMode::kShared
                         : txn::LockMode::kExclusive);
      if (tl != nullptr) tl->Charge(obs::Stage::kLockWait, sim_->Now() - l0);
      if (!st.ok()) co_return st;
    }
    const SimTime x0 = tl != nullptr ? sim_->Now() : 0;
    Status st = co_await step.fn(ctx);
    if (tl != nullptr) tl->Charge(obs::Stage::kExecute, sim_->Now() - x0);
    if (!st.ok()) co_return st;
  }
  co_return Status::OK();
}

sim::Task<Status> Engine::RunPhaseDora(Phase& phase, ExecContext& ctx) {
  const bool async = config_.mode == EngineMode::kBionic;
  dora::Rvp rvp(sim_, static_cast<int>(phase.size()), threaded_ != nullptr);
  for (TxnStep& step : phase) {
    // Actions come from the executor's (or the threaded backend's) pool and
    // carry fixed-width lock keys: steady-state dispatch touches no
    // allocator.
    dora::Action* action = threaded_ ? threaded_->AcquireAction()
                                     : executor_->AcquireAction();
    action->xct = ctx.xct;
    action->rvp = &rvp;
    action->socket = ctx.socket;
    action->shared_locks = step.read_only;
    for (const std::string& key : step.keys) {
      action->AddLockKey(QualifiedKey(step.table, key));
    }
    action->SortLockKeys();
    Engine* self = this;
    // The step outlives every action of the phase (the phase is awaited
    // below), so the body captures a pointer to it instead of copying the
    // std::function — the capture set stays within ActionFn's inline
    // storage.
    const TxnStep* pstep = &step;
    const int socket = ctx.socket;
    action->fn = [self, pstep, socket,
                  async](dora::ActionContext& actx) -> sim::Task<Status> {
      ExecContext ectx;
      ectx.engine = self;
      ectx.xct = actx.xct;
      ectx.socket = socket;
      // Synchronous agents hold their core through the body; async
      // bodies attach per work chunk.
      ectx.core_held = !async;
      co_return co_await pstep->fn(ectx);
    };
    if (threaded_) {
      threaded_->Run(action);
      continue;
    }
    // Dispatch cost (routing + enqueue + cross-socket hop) attributes to
    // the routing stage; queue wait starts once the action is enqueued.
    obs::TxnTimeline* tl = ctx.xct->timeline;
    const SimTime d0 = tl != nullptr ? sim_->Now() : 0;
    co_await executor_->Dispatch(action);
    if (tl != nullptr) tl->Charge(obs::Stage::kRoute, sim_->Now() - d0);
  }
  co_return co_await rvp.Wait();
}

}  // namespace bionicdb::engine
