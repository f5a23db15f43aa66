// Crash recovery walkthrough: run transactions, "pull the plug", and
// recover a fresh engine from the durable log prefix — demonstrating the
// redo-winners protocol that §5.6's no-steal overlay makes sufficient
// ("log sync & recovery" stays in software in Figure 4). Phases 5–6 then
// turn on deterministic fault injection (docs/RECOVERY.md): a flaky log
// device absorbed by bounded retry/backoff, and a zero-padded torn tail
// classified and survived by recovery.
//
//   $ ./examples/crash_recovery
#include <cstdio>

#include "engine/engine.h"
#include "index/codec.h"
#include "sim/simulator.h"
#include "wal/recovery.h"

using namespace bionicdb;
using engine::Engine;
using index::EncodeKeyU64;

namespace {

Engine::TxnSpec UpdateTxn(Engine* eng, engine::Table* t, uint64_t key,
                          std::string value, bool then_crash) {
  Engine::TxnSpec spec;
  Engine::TxnStep step;
  step.table = t;
  step.keys = {EncodeKeyU64(key)};
  step.fn = [eng, t, key, value,
             then_crash](Engine::ExecContext& ctx) -> sim::Task<Status> {
    Status st = co_await eng->Update(ctx, t, EncodeKeyU64(key), value);
    if (!st.ok()) co_return st;
    // Simulate the client dying before commit: force an abort.
    if (then_crash) co_return Status::Aborted("client connection lost");
    co_return Status::OK();
  };
  spec.phases.push_back({std::move(step)});
  return spec;
}

}  // namespace

int main() {
  std::printf("=== Phase 1: normal processing ===\n");
  sim::Simulator sim;
  Engine engine(&sim, engine::EngineConfig::Dora());
  engine::Table* t = engine.CreateTable("LEDGER");
  for (uint64_t i = 0; i < 10; ++i) {
    BIONICDB_CHECK(engine.LoadRow(t, EncodeKeyU64(i), "initial").ok());
  }
  engine.Start();
  sim.Spawn([](Engine* eng, engine::Table* t) -> sim::Task<> {
    Status st;
    st = co_await eng->Execute(UpdateTxn(eng, t, 1, "committed-v1", false));
    std::printf("  txn A (update key 1): %s\n", st.ToString().c_str());
    st = co_await eng->Execute(UpdateTxn(eng, t, 2, "never-visible", true));
    std::printf("  txn B (update key 2, client dies): %s\n",
                st.ToString().c_str());
    st = co_await eng->Execute(UpdateTxn(eng, t, 1, "committed-v2", false));
    std::printf("  txn C (update key 1 again): %s\n", st.ToString().c_str());
    co_await eng->Shutdown();
  }(&engine, t));
  sim.Run();

  const auto prefix = engine.log()->durable_prefix();
  std::printf("\n=== Phase 2: power failure ===\n");
  std::printf("  durable log prefix: %zu bytes (LSN %llu)\n", prefix.size(),
              static_cast<unsigned long long>(engine.log()->durable_lsn()));

  std::printf("\n=== Phase 3: restart & recover ===\n");
  sim::Simulator sim2;
  Engine fresh(&sim2, engine::EngineConfig::Dora());
  engine::Table* t2 = fresh.CreateTable("LEDGER");
  for (uint64_t i = 0; i < 10; ++i) {
    BIONICDB_CHECK(fresh.LoadRow(t2, EncodeKeyU64(i), "initial").ok());
  }
  engine::BaseStorageTarget target(&fresh.db());
  wal::RecoveryStats stats;
  Status st = wal::Recover(prefix, &target, &stats);
  std::printf("  recovery: %s — scanned %llu records, %llu committed txns, "
              "%llu losers, %llu redos applied, %llu skipped\n",
              st.ToString().c_str(),
              static_cast<unsigned long long>(stats.records_scanned),
              static_cast<unsigned long long>(stats.committed_txns),
              static_cast<unsigned long long>(stats.loser_txns),
              static_cast<unsigned long long>(stats.redo_applied),
              static_cast<unsigned long long>(stats.redo_skipped));

  std::printf("\n=== Phase 4: verify ===\n");
  std::printf("  key 1: \"%s\"  (expect committed-v2)\n",
              t2->BaseGet(EncodeKeyU64(1))->c_str());
  std::printf("  key 2: \"%s\"  (expect initial — txn B aborted)\n",
              t2->BaseGet(EncodeKeyU64(2))->c_str());
  const bool ok = *t2->BaseGet(EncodeKeyU64(1)) == "committed-v2" &&
                  *t2->BaseGet(EncodeKeyU64(2)) == "initial";

  std::printf("\n=== Phase 5: fault injection — a flaky log device ===\n");
  sim::Simulator sim3;
  engine::EngineConfig faulty_cfg = engine::EngineConfig::Dora();
  faulty_cfg.fault_plan.WithFailOnce("ssd", 1);  // 2nd SSD transfer fails.
  Engine faulty(&sim3, faulty_cfg);
  engine::Table* t3 = faulty.CreateTable("LEDGER");
  for (uint64_t i = 0; i < 10; ++i) {
    BIONICDB_CHECK(faulty.LoadRow(t3, EncodeKeyU64(i), "initial").ok());
  }
  faulty.Start();
  sim3.Spawn([](Engine* eng, engine::Table* t) -> sim::Task<> {
    for (uint64_t k = 1; k <= 3; ++k) {
      Status st = co_await eng->Execute(
          UpdateTxn(eng, t, k, "durable-v" + std::to_string(k), false));
      std::printf("  txn on key %llu: %s\n",
                  static_cast<unsigned long long>(k), st.ToString().c_str());
    }
    co_await eng->Shutdown();
  }(&faulty, t3));
  sim3.Run();
  const wal::LogStats& fls = faulty.log()->stats();
  std::printf("  flushes=%llu attempts_failed=%llu retries=%llu "
              "backoff=%llu ns abandoned=%llu\n",
              static_cast<unsigned long long>(fls.flushes),
              static_cast<unsigned long long>(fls.flush_errors),
              static_cast<unsigned long long>(fls.flush_retries),
              static_cast<unsigned long long>(fls.flush_backoff_ns),
              static_cast<unsigned long long>(fls.flush_failures));
  const bool retried_ok = fls.flush_errors >= 1 && fls.flush_retries >= 1 &&
                          fls.flush_failures == 0 &&
                          faulty.metrics().durability_failures == 0;
  std::printf("  -> the injected failure was %s\n",
              retried_ok ? "absorbed by retry + backoff; no commit lost"
                         : "NOT absorbed");

  std::printf("\n=== Phase 6: torn tail — crash mid-record, zero-padded ===\n");
  std::string torn(faulty.log()->durable_prefix().ToString());
  const size_t intact = torn.size();
  torn.resize(intact > 9 ? intact - 9 : 0);  // Tear the last record.
  torn.append(128, '\0');                    // Preallocated-file padding.
  sim::Simulator sim4;
  Engine fresh2(&sim4, engine::EngineConfig::Dora());
  engine::Table* t4 = fresh2.CreateTable("LEDGER");
  for (uint64_t i = 0; i < 10; ++i) {
    BIONICDB_CHECK(fresh2.LoadRow(t4, EncodeKeyU64(i), "initial").ok());
  }
  engine::BaseStorageTarget target2(&fresh2.db());
  wal::RecoveryStats stats2;
  const Status torn_st = wal::Recover(Slice(torn), &target2, &stats2);
  std::printf("  recovery: %s — tail %s at offset %llu (%llu bytes "
              "dropped), %llu committed txns replayed\n",
              torn_st.ToString().c_str(),
              wal::TornTailKindName(stats2.torn_tail.kind),
              static_cast<unsigned long long>(stats2.torn_tail.offset),
              static_cast<unsigned long long>(stats2.torn_tail.bytes_dropped),
              static_cast<unsigned long long>(stats2.committed_txns));
  const bool torn_ok =
      torn_st.ok() && stats2.torn_tail.kind != wal::TornTailInfo::Kind::kNone;

  const bool all_ok = ok && retried_ok && torn_ok;
  std::printf("\n%s\n", all_ok ? "RECOVERY CORRECT" : "RECOVERY BROKEN");
  return all_ok ? 0 : 1;
}
