#!/usr/bin/env python3
"""End-to-end benchmark of BionicDB: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The script builds perfbench_runner from
source (perfbench/CMakeLists.txt compiles ../src), runs the workload in its
own process under a watchdog, checks the outputs and prints, as its last
line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json from an untraced
run; setup_s is the median of SETUP_RUNS cold set-ups, each in its own
process timed from its start: SETUP_RUNS - 1 set-up-only processes and the
measured one. --trace 1 runs the workload twice with the same seed,
untraced then traced (flight recorder, allocation counter, span log),
reports the per-layer metrics from the traced run, and checks that every
exact virtual-time output of the two runs is equal bit for bit. The line before
the result ("detail {...}") stamps the run with host_cores, build type, git
revision and seed, and carries sample counts and the exact outputs.

A run that passes its deadline, or whose clients stay stuck inside Execute
after the window, is reported as failed: correct is false, every request it
attempted counts as failed, and every metric reads its worst value (0 where
higher is better, 1e18 where lower is better).
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tatp_shard4", "tpcc_bionic", "tatp_threaded")

# Per-layer metrics that are the run's end-to-end figures, taken from the
# untraced run of a --trace 1 pair.
UNTRACED_KEYS = ("host.txn_per_s", "latency.p50_us", "latency.p999_us",
                 "txn.fail_ratio")

# What a run that produced no measurement reports for each metric.
WORST = {"higher": 0.0, "lower": 1e18}

# Whole-invocation budget (seconds) for the workload processes: a run must
# end within 180 s, the first build excepted.
BUDGET_S = 170.0
# Host time a process needs besides its measured window: set-up, warmup,
# drain and output, with margin.
SETUP_ALLOWANCE_S = 30.0
# Set-ups per --trace 0 run; setup_s is their median.
SETUP_RUNS = 3
# Deadline of one set-up-only process.
SETUP_DEADLINE_S = 30.0
# Exit code of a runner whose clients stayed stuck inside Execute.
EXIT_STUCK = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build directory; honour it for
    # this CMake build too.
    d = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(d), "perfbench")


def build():
    """Configures (once) and builds the runner; returns its path."""
    out = build_dir()
    env = dict(os.environ)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)
    return os.path.join(out, "perfbench_runner")


def git_revision():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_runner(binary, args, trace, deadline, setup_only=False):
    """Runs one workload process. Returns (result dict or None, attempted,
    reason). A process past `deadline` (monotonic) is killed."""
    timeout = max(1.0, deadline - time.monotonic())
    # tatp_threaded may stretch its window through CPU-steal bursts; leave
    # room for set-up, warmup and drain inside the deadline.
    extra = max(0.0, timeout - args.seconds - SETUP_ALLOWANCE_S)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--max-extra-seconds", "%.1f" % extra,
           "--setup-only", "1" if setup_only else "0"]
    if trace:
        spans_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir,
                                        "spans-%s.bin" % args.workload)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
        killed = False
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        killed = True
    attempted = 0
    result = None
    for line in stdout.splitlines():
        if line.startswith("progress attempted="):
            attempted = int(line.split("=", 1)[1])
        elif line.startswith("{"):
            result = json.loads(line)
    if killed:
        return None, attempted, "killed past its deadline (hung run)"
    if proc.returncode == EXIT_STUCK:
        return None, attempted, ("clients stuck inside Execute after the "
                                 "window (hung run)")
    if proc.returncode != 0 or result is None:
        return None, attempted, "runner exited with code %d" % proc.returncode
    return result, result["attempted"], ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    start = time.monotonic()
    modes = [False, True] if args.trace else [False]
    results = []
    reasons = []
    attempted = 0
    setups = []
    if not args.trace:
        # The extra set-ups run first, each a fresh process stopped at its
        # first measured request.
        for _ in range(SETUP_RUNS - 1):
            res, _, why = run_runner(
                binary, args, False,
                time.monotonic() + SETUP_DEADLINE_S, setup_only=True)
            if why:
                reasons.append("set-up: " + why)
                break
            setups.append(res["metrics"]["setup_s"])
    for i, trace in enumerate(modes):
        if reasons:
            break
        # Each process gets a fair share of what is left of the budget.
        left = BUDGET_S - (time.monotonic() - start)
        deadline = time.monotonic() + left / (len(modes) - i)
        res, att, why = run_runner(binary, args, trace, deadline)
        attempted = max(attempted, att)
        results.append(res)
        if why:
            reasons.append(("traced: " if trace else "untraced: ") + why)

    correct = not reasons
    failed_checks = []
    if correct:
        for res in results:
            failed_checks += [k for k, ok in res["checks"].items() if not ok]
        if args.trace:
            plain, traced = results
            for k, v in plain["exact"].items():
                if traced["exact"].get(k) != v:
                    failed_checks.append("passive_trace:" + k)
            # Same seed, same window: the tracing cost is the host
            # throughput the traced run lost.
            tm, pm = traced["metrics"], plain["metrics"]
            base = pm["host.txn_per_s"]
            tm["obs.overhead_ratio"] = (
                1.0 - tm["host.txn_per_s"] / base if base > 0 else 0.0)
            # The run's own end-to-end figures come from the untraced run.
            for k in UNTRACED_KEYS:
                tm[k] = pm[k]
        correct = not failed_checks

    if not reasons:
        main_res = results[-1]
        if setups:
            setups.append(main_res["metrics"]["setup_s"])
            main_res["metrics"]["setup_s"] = statistics.median(setups)
        metrics = {m["name"]: {"value": main_res["metrics"][m["name"]],
                               "unit": m["unit"]} for m in wanted}
        attempted = main_res["attempted"]
        failed = main_res["failed"]
    else:
        # A killed or crashed run reports every request as failed and every
        # metric at its worst.
        main_res = None
        metrics = {m["name"]: {"value": WORST[m.get("better", "lower")],
                               "unit": m["unit"]} for m in wanted}
        attempted = max(1, attempted)
        failed = attempted

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host_cores": os.cpu_count(),
        "build_type": main_res["build_type"] if main_res else "unknown",
        "git_revision": git_revision(),
        "errors": reasons + failed_checks,
        "host_seconds": main_res["host_seconds"] if main_res else 0.0,
        "samples": main_res["samples"] if main_res else {},
        "exact": main_res["exact"] if main_res else {},
        "all_metrics": main_res["metrics"] if main_res else {},
        "setup_s_each": setups,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, OSError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
