#!/usr/bin/env python3
"""CI wall-clock smoke gate for the simulator engine room.

Reads the JSON rows the bench binaries print (bench/bench_util.h's one
schema: {"row": {"key": value, ...}, ...}) and gates them using only
signals that survive a change of host. The gates come in two backend
dimensions, selected with --backend:

  sim       Virtual-time gates on the simulated rows:
              * sim_txn_per_sec must equal SIM_TXN_PER_SEC_PIN EXACTLY.
                It is pure virtual-time output of a seeded simulation,
                so any difference means the engine's simulated behavior
                diverged — the wall-clock analogue of the `sweep --jobs 1`
                vs `--jobs N` byte-identity diff. The pin is checked with
                the flight recorder on and the threaded backend compiled
                in and linked: both must be passive when no backend is
                attached.
              * Tail-attribution fields present and sane.
              * Event-queue speedup ratio (heap/calendar, both measured
                in one process) at least EVQ_TATP_SPEEDUP_FLOOR.
              * Allocation counts of the simulated rows, which repeat
                exactly from run to run: the DORA dispatch cycle
                allocates nothing, and a simulated TATP transaction at
                most TATP_E2E_ALLOCS_CEILING times.
              * B+Tree memory: the heap an ascending 200k-row load holds
                per entry (btree_insert_16's bytes_per_entry, also exact
                per allocator) is at most BTREE_BYTES_PER_ENTRY_CEILING,
                and the append path serves at least
                BTREE_APPEND_SHARE_FLOOR of that load's inserts.

  threaded  Wall-clock gates on the real-thread backend rows
            (tatp_threaded_t{1,2,4,8}, tpcc_threaded_t8). Absolute
            txn_per_sec is deliberately NOT gated — varying by machine
            is the point of the backend. What must hold anywhere:
              * every measured transaction commits (committed == ops);
              * TATP committed_records (records of committed
                transactions) identical across thread counts on the same
                seed (deterministic committed write-set — the wall-clock
                analogue of the sim pin);
              * group commit batches: every flush has a waiter
                (wal_flushes <= wal_group_commit_waits, so appends never
                start one), and the flush count shrinks from t1 to t8;
              * machine-relative scaling: t8/t1 txn_per_sec >= 1.25 on
                ANY host (group-commit overlap alone guarantees it with
                the fsync stub), >= 1.6 when the host has 2+ cores.

  all       Both (the default).

Absolute ns/op numbers are deliberately NOT gated: they swing by tens of
percent between hosts (and between days on shared runners), so a fixed
threshold would only teach people to ignore the job.

With --overload <overload.json>, additionally gates the open-loop
saturation curves from bench/overload: shed_rate monotone in offered load
(reaching > 0 at the top of the sweep, 0 at the bottom), goodput bounded
by offered load, and the closed-loop replica row pinned to
SIM_TXN_PER_SEC_PIN exactly (admission machinery passivity).

Usage: check_bench.py <wallclock.json> <event_queue.json>
                      [--backend {sim,threaded,all}]
                      [--overload <overload.json>] [--shard <shard.json>]
"""
import argparse
import json
import sys

# sim_txn_per_sec of the pinned TATP run (bench/bench_util.h), recorded
# before the flight recorder, the threaded backend, the admission queue or
# the cluster existed (BENCH_PR7.json's tatp_e2e_dora.after). Hardcoded on
# purpose: a run that moves it means one of those perturbed the simulated
# schedule, which is a bug, not a semantic change.
SIM_TXN_PER_SEC_PIN = 2192905.5
# The event queue's TATP-trace speedup over the binary heap it replaced,
# 2.18x when the calendar queue landed (BENCH_PR7.json's
# evq_tatp_trace.speedup), minus 15% slack for host noise: 1.853.
EVQ_TATP_SPEEDUP_FLOOR = 2.18 * 0.85
# bench/wallclock's tatp_e2e_dora allocs_per_op with fixed-width lock keys
# (txn::LockKey) and two-block B+Tree leaves; a higher count means an
# allocation came back onto the simulated TATP path.
TATP_E2E_ALLOCS_CEILING = 33.026
# bench/wallclock's btree_insert_16 bytes_per_entry with one slot array and
# one byte arena per node (171.5 with per-node key and value arenas); a
# higher figure means index entries grew or leaves stopped being exact-fit.
BTREE_BYTES_PER_ENTRY_CEILING = 132.9
# Share of btree_insert_16's 200k ascending inserts that the B+Tree's
# rightmost-leaf append path serves without a descent (appends / ops). It
# is fixed by the key count and the leaf capacity of 64: every insert but
# the first and the one that splits each full rightmost leaf. Below it,
# ascending loads fell back to descending from the root.
BTREE_APPEND_SHARE_FLOOR = 193751 / 200000
TATP_THREAD_SWEEP = [1, 2, 4, 8]


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_sim(wallclock, evq):
    # 1. Simulated-behavior divergence gate (exact). Instrumentation and
    # the threaded backend must both be purely passive on simulator runs.
    got = wallclock["tatp_e2e_dora"]["sim_txn_per_sec"]
    if got != SIM_TXN_PER_SEC_PIN:
        fail(
            f"sim_txn_per_sec is {got}, expected exactly "
            f"{SIM_TXN_PER_SEC_PIN} — the simulated schedule changed "
            "(an event-queue ordering bug, or instrumentation or the "
            "threaded backend's engine hooks perturbing it)"
        )
    print(f"ok: sim_txn_per_sec == {SIM_TXN_PER_SEC_PIN} with recorder "
          "enabled and threaded backend linked in")

    # 1b. Tail-latency attribution fields must be present in the e2e row.
    e2e = wallclock["tatp_e2e_dora"]
    stage_keys = [
        "admit", "route", "queue_wait", "lock_wait",
        "execute", "wal_append", "flush_wait", "commit",
    ]
    required = ["p50_latency_us", "p99_latency_us", "p999_latency_us"]
    required += [f"stage_{k}_p50_us" for k in stage_keys]
    required += [f"stage_{k}_p999_us" for k in stage_keys]
    missing = [k for k in required if k not in e2e]
    if missing:
        fail(f"tatp_e2e_dora is missing tail-attribution fields: {missing}")
    if e2e["p999_latency_us"] < e2e["p50_latency_us"]:
        fail(
            f"p99.9 latency ({e2e['p999_latency_us']}us) below p50 "
            f"({e2e['p50_latency_us']}us); histogram wiring broken"
        )
    print(f"ok: tail attribution present ({len(required)} fields; "
          f"p50={e2e['p50_latency_us']}us p99.9={e2e['p999_latency_us']}us)")

    # 2. Event-queue speedup regression gate (ratio, 15% slack).
    heap = evq["evq_heap_tatp_trace"]["ns_per_op"]
    cal = evq["evq_calendar_tatp_trace"]["ns_per_op"]
    if cal <= 0:
        fail("calendar ns_per_op is non-positive; bench output malformed")
    ratio = heap / cal
    if ratio < EVQ_TATP_SPEEDUP_FLOOR:
        fail(
            f"event-queue TATP-trace speedup regressed: {ratio:.2f}x < "
            f"{EVQ_TATP_SPEEDUP_FLOOR:.3f}x"
        )
    print(f"ok: event-queue TATP-trace speedup {ratio:.2f}x "
          f"(floor {EVQ_TATP_SPEEDUP_FLOOR:.3f}x)")

    # 2b. Allocation gates. The counting operator-new hook sees the same
    # calls on every run of a seeded simulation, so the counts are exact.
    dispatch = wallclock["dispatch_cycle"]["allocs_per_op"]
    if dispatch != 0:
        fail(
            f"dispatch_cycle allocates ({dispatch} per op); the DORA "
            "dispatch -> lock -> execute -> release cycle must not"
        )
    print("ok: dispatch_cycle allocation-free")
    tatp = e2e["allocs_per_op"]
    if tatp > TATP_E2E_ALLOCS_CEILING:
        fail(
            f"tatp_e2e_dora allocates {tatp} times per transaction, above "
            f"the ceiling of {TATP_E2E_ALLOCS_CEILING}"
        )
    print(f"ok: tatp_e2e_dora {tatp} allocations per transaction "
          f"(ceiling {TATP_E2E_ALLOCS_CEILING})")
    per_entry = wallclock["btree_insert_16"]["bytes_per_entry"]
    if per_entry > BTREE_BYTES_PER_ENTRY_CEILING:
        fail(
            f"btree_insert_16 holds {per_entry} heap bytes per entry, above "
            f"the ceiling of {BTREE_BYTES_PER_ENTRY_CEILING}"
        )
    print(f"ok: btree_insert_16 {per_entry} bytes per entry "
          f"(ceiling {BTREE_BYTES_PER_ENTRY_CEILING})")
    insert = wallclock["btree_insert_16"]
    share = insert["appends"] / insert["ops"]
    if share < BTREE_APPEND_SHARE_FLOOR:
        fail(
            f"btree_insert_16 appended {share:.6f} of its ascending inserts, "
            f"below the floor of {BTREE_APPEND_SHARE_FLOOR:.6f}; the rest "
            "descended from the root"
        )
    print(f"ok: btree_insert_16 append share {share:.6f} "
          f"(floor {BTREE_APPEND_SHARE_FLOOR:.6f})")


def check_threaded(wallclock):
    names = [f"tatp_threaded_t{n}" for n in TATP_THREAD_SWEEP]
    names.append(f"tpcc_threaded_t{TATP_THREAD_SWEEP[-1]}")
    missing = [n for n in names if n not in wallclock]
    if missing:
        fail(f"threaded rows missing from wallclock output: {missing}")
    rows = {n: wallclock[n] for n in names}

    # 3. Liveness: the closed loop must push every measured transaction
    # through to commit (wait-die losers retry until they win).
    for name, row in rows.items():
        if row["committed"] != row["ops"]:
            fail(
                f"{name}: committed {row['committed']} != measured "
                f"{row['ops']} — transactions lost or stuck in retry"
            )
        if row["txn_per_sec"] <= 0:
            fail(f"{name}: non-positive txn_per_sec")
    print(f"ok: all {len(rows)} threaded rows committed every measured txn")

    # 4. Determinism of the committed write-set: every thread count runs
    # the same transaction stream, so the log must hold the same number of
    # records of committed transactions regardless of interleaving. (Not
    # wal_appends: an attempt that dies after an earlier action of it
    # wrote leaves records of its own.)
    records = {n: rows[f"tatp_threaded_t{n}"]["committed_records"]
               for n in TATP_THREAD_SWEEP}
    if len(set(records.values())) != 1:
        fail(
            f"TATP committed_records varies across thread counts: "
            f"{records} — the committed write-set depends on the "
            "interleaving"
        )
    print(f"ok: TATP committed write-set identical across threads "
          f"({records[1]:.0f} records)")

    # 5. Group commit must actually batch: only a waiting committer leads
    # a flush (so every fsync has a waiter, and appends never start one),
    # and batching must improve as concurrent committers pile up.
    t1 = rows[f"tatp_threaded_t{TATP_THREAD_SWEEP[0]}"]
    tn = rows[f"tatp_threaded_t{TATP_THREAD_SWEEP[-1]}"]
    for name, row in rows.items():
        if row["wal_flushes"] > row["wal_group_commit_waits"]:
            fail(
                f"{name}: {row['wal_flushes']:.0f} flushes for "
                f"{row['wal_group_commit_waits']:.0f} group-commit waits; "
                "a flush ran with no committer waiting on it"
            )
    if tn["wal_flushes"] >= t1["wal_flushes"]:
        fail(
            f"group commit not batching: t{TATP_THREAD_SWEEP[-1]} flushed "
            f"{tn['wal_flushes']:.0f} times vs t1's {t1['wal_flushes']:.0f}"
        )
    print(f"ok: group commit batches ({t1['wal_flushes']:.0f} flushes at "
          f"t1 -> {tn['wal_flushes']:.0f} at t{TATP_THREAD_SWEEP[-1]})")

    # 6. Machine-relative scaling gate. Never gate absolute throughput;
    # gate the t8/t1 ratio from the SAME run on the SAME host. With the
    # 50us fsync stub, overlapping durability waits alone must buy 1.25x
    # even on one core; real cores must buy more.
    host_cores = tn.get("host_cores", 1)
    floor = 1.6 if host_cores >= 2 else 1.25
    ratio = tn["txn_per_sec"] / t1["txn_per_sec"]
    if ratio < floor:
        fail(
            f"threaded TATP scaling regressed: t{TATP_THREAD_SWEEP[-1]}/t1 "
            f"= {ratio:.2f}x < {floor:.2f}x floor (host_cores="
            f"{host_cores:.0f})"
        )
    print(f"ok: threaded TATP t{TATP_THREAD_SWEEP[-1]}/t1 scaling "
          f"{ratio:.2f}x (floor {floor:.2f}x, host_cores={host_cores:.0f})")


def check_overload(overload):
    """Gates on bench/overload output (open-loop saturation curves).

    Host-independent by construction: every gated row is pure virtual-time
    output of a seeded simulation.
      * Closed-loop passivity pin: the overload binary's replica of the
        wallclock tatp_e2e_dora run must emit sim_txn_per_sec ==
        SIM_TXN_PER_SEC_PIN exactly — the admission/open-loop machinery,
        compiled in and linked, must be inert when disabled.
      * Per mode (dora, bionic), along the Poisson offered-load sweep:
        shed_rate is non-decreasing (epsilon for knee jitter), zero at the
        lowest offered load, and strictly positive at the highest (the
        sweep actually drives the engine through saturation);
        goodput never exceeds offered load; p999 >= p50.
    """
    closed = overload.get("overload_closed_dora")
    if closed is None:
        fail("overload: missing closed-loop pin row overload_closed_dora")
    if closed["sim_txn_per_sec"] != SIM_TXN_PER_SEC_PIN:
        fail(f"overload passivity pin: sim_txn_per_sec "
             f"{closed['sim_txn_per_sec']} != {SIM_TXN_PER_SEC_PIN} — the "
             f"admission queue / open-loop driver perturbed the closed-loop "
             f"schedule")
    print(f"OK  overload closed-loop pin: sim_txn_per_sec == "
          f"{SIM_TXN_PER_SEC_PIN}")

    for mode in ("dora", "bionic"):
        prefix = f"overload_{mode}_poisson_"
        curve = sorted(
            (row for name, row in overload.items()
             if name.startswith(prefix)),
            key=lambda r: r["offered_tps"])
        if len(curve) < 4:
            fail(f"overload: {mode} Poisson sweep has {len(curve)} points "
                 f"(need >= 4 for a curve)")
        prev_shed = 0.0
        for row in curve:
            offered, shed = row["offered_tps"], row["shed_rate"]
            if shed < prev_shed - 0.02:
                fail(f"overload {mode}: shed_rate not monotone in offered "
                     f"load ({shed:.3f} after {prev_shed:.3f} at "
                     f"{offered:.0f} tps)")
            prev_shed = max(prev_shed, shed)
            if row["goodput_tps"] > offered * 1.02:
                fail(f"overload {mode}: goodput {row['goodput_tps']:.0f} "
                     f"exceeds offered load {offered:.0f}")
            if row["p999_us"] < row["p50_us"]:
                fail(f"overload {mode}: p999 {row['p999_us']} < p50 "
                     f"{row['p50_us']} at {offered:.0f} tps")
        if curve[0]["shed_rate"] > 0.01:
            fail(f"overload {mode}: shedding at the lowest offered load "
                 f"({curve[0]['shed_rate']:.3f}) — sweep floor is not "
                 f"below capacity")
        if curve[-1]["shed_rate"] <= 0.0:
            fail(f"overload {mode}: no shedding at the highest offered "
                 f"load — sweep never reached saturation")
        print(f"OK  overload {mode}: shed_rate 0 -> "
              f"{curve[-1]['shed_rate']:.3f} over {len(curve)} points, "
              f"goodput knee {max(r['goodput_tps'] for r in curve):.0f} "
              f"txn/s")


def check_shard(shard):
    """Gates on bench/shard_scaling output (sharded scale-out sweep).

    Host-independent: every row is virtual-time output of a seeded
    simulation (byte-identical across --jobs by construction).
      * 1-shard passivity pin: the cluster's single-fragment fast path
        must be invisible — shard_closed_1 replicates the unsharded
        closed-loop TATP run and must emit SIM_TXN_PER_SEC_PIN exactly,
        with zero 2PC activity.
      * Shard scaling: at cross-shard ratio 0 the sweep's throughput is
        monotone non-decreasing in shard count (2% slack for scheduling
        jitter at the top of the curve) — more shards, more DORA
        partitions, never less virtual throughput.
      * Cross-shard ablation: ratio-0 rows run zero distributed
        transactions; every positive-ratio row starts AND commits 2PC
        transactions (the coordinator actually works), and the observed
        cross-shard submission fraction tracks the configured ratio. At
        the top ratio decision-record GC retires kCoordCommit records.
      * Snapshot reads: every read-only cross-shard row (xsnap_r*) must
        serve its traffic through the prepare-free path — snap_committed
        positive, tpc_started exactly 0 (no prepare, no decision record).
    """
    pin = shard.get("shard_closed_1")
    if pin is None:
        fail("shard: missing 1-shard passivity pin row shard_closed_1")
    if pin["sim_txn_per_sec"] != SIM_TXN_PER_SEC_PIN:
        fail(f"shard passivity pin: sim_txn_per_sec "
             f"{pin['sim_txn_per_sec']} != {SIM_TXN_PER_SEC_PIN} — the "
             f"1-shard cluster path perturbed the unsharded schedule")
    if pin["tpc_started"] != 0 or pin["cross_shard_submitted"] != 0:
        fail("shard passivity pin: 2PC machinery fired on a 1-shard run")
    print(f"OK  shard 1-shard pin: sim_txn_per_sec == "
          f"{SIM_TXN_PER_SEC_PIN}, zero 2PC activity")

    sweep = sorted(
        (row for name, row in shard.items()
         if name.startswith("shard_sweep_s")),
        key=lambda r: r["shards"])
    if len(sweep) < 3:
        fail(f"shard: scaling sweep has {len(sweep)} points (need >= 3)")
    for prev, cur in zip(sweep, sweep[1:]):
        if cur["sim_txn_per_sec"] < prev["sim_txn_per_sec"] * 0.98:
            fail(f"shard scaling not monotone: {cur['shards']:.0f} shards "
                 f"at {cur['sim_txn_per_sec']:.0f} txn/s < "
                 f"{prev['shards']:.0f} shards at "
                 f"{prev['sim_txn_per_sec']:.0f}")
        if cur["tpc_started"] != 0:
            fail(f"shard scaling: 2PC ran at cross-shard ratio 0 "
                 f"({cur['shards']:.0f} shards)")
    print(f"OK  shard scaling monotone over {len(sweep)} points "
          f"({sweep[0]['sim_txn_per_sec']:.0f} -> "
          f"{sweep[-1]['sim_txn_per_sec']:.0f} txn/s)")

    ablation = sorted(
        (row for name, row in shard.items()
         if name.startswith("xshard_r")),
        key=lambda r: r["cross_ratio"])
    if len(ablation) < 2:
        fail(f"shard: cross-shard ablation has {len(ablation)} points "
             f"(need >= 2)")
    for row in ablation:
        ratio = row["cross_ratio"]
        if ratio == 0:
            if row["tpc_started"] != 0:
                fail("shard ablation: 2PC ran at ratio 0")
            continue
        if row["tpc_started"] <= 0 or row["tpc_committed"] <= 0:
            fail(f"shard ablation: no 2PC commits at ratio {ratio}")
        observed = row["cross_shard_submitted"] / row["commits"]
        if not (ratio * 0.5 <= observed <= ratio * 2.0):
            fail(f"shard ablation: observed cross-shard fraction "
                 f"{observed:.4f} far from configured {ratio}")
    top = ablation[-1]
    if top["tpc_retired"] <= 0:
        fail(f"shard ablation: decision-record GC never retired a "
             f"kCoordCommit at ratio {top['cross_ratio']}")
    print(f"OK  shard ablation: {len(ablation)} ratios, top ratio "
          f"{top['cross_ratio']} committed {top['tpc_committed']:.0f} "
          f"2PC txns, retired {top['tpc_retired']:.0f} decisions")

    snaps = sorted(
        (row for name, row in shard.items() if name.startswith("xsnap_r")),
        key=lambda r: r["snap_started"])
    if not snaps:
        fail("shard: snapshot-read rows (xsnap_r*) missing")
    for row in snaps:
        if row["snap_started"] <= 0 or row["snap_committed"] <= 0:
            fail("shard snapshot gate: read-only cross-shard row ran no "
                 "snapshot reads")
        if row["tpc_started"] != 0:
            fail(f"shard snapshot gate: read-only cross-shard row entered "
                 f"2PC ({row['tpc_started']:.0f} started) — the prepare-free "
                 f"path was bypassed")
    print(f"OK  shard snapshot reads: {len(snaps)} rows, "
          f"{sum(r['snap_committed'] for r in snaps):.0f} read-only "
          f"cross-shard commits, zero 2PC entries")


def main():
    parser = argparse.ArgumentParser(
        description="bionicdb wall-clock bench gate")
    parser.add_argument("wallclock")
    parser.add_argument("evq")
    parser.add_argument(
        "--backend", choices=["sim", "threaded", "all"], default="all",
        help="which execution-backend gates to run (default: all)")
    parser.add_argument(
        "--overload", default=None, metavar="OVERLOAD_JSON",
        help="bench/overload output; enables the open-loop saturation "
             "gates (shed-rate monotonicity + closed-loop passivity pin)")
    parser.add_argument(
        "--shard", default=None, metavar="SHARD_JSON",
        help="bench/shard_scaling output; enables the scale-out gates "
             "(1-shard passivity pin, monotone shard scaling, cross-shard "
             "2PC ablation, snapshot reads)")
    args = parser.parse_args()

    with open(args.wallclock) as f:
        wallclock = json.load(f)
    with open(args.evq) as f:
        evq = json.load(f)

    if args.backend in ("sim", "all"):
        check_sim(wallclock, evq)
    if args.backend in ("threaded", "all"):
        check_threaded(wallclock)
    if args.overload is not None:
        with open(args.overload) as f:
            check_overload(json.load(f))
    if args.shard is not None:
        with open(args.shard) as f:
            check_shard(json.load(f))
    sys.exit(0)


if __name__ == "__main__":
    main()
