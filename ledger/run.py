#!/usr/bin/env python3
"""The hmpt ledger benchmark: end-to-end metrics (or, with --trace 1,
per-layer metrics) of one workload, as one JSON object on the last line
of stdout.

    python3 ledger/run.py --workload zoo-cold --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds the `hmpt-ledger` worker
(ledger/Cargo.toml) into $CARGO_TARGET_DIR (default: .bench_build), then
drives it one child process per step:

  prepare   inputs and check references, untimed.
  warm-up   one iteration, discarded.
  timed     iterations until --seconds of iterating would be exceeded,
            at least MIN_ITERATIONS. Each runs in a fresh process, so its
            peak RSS is its own, and records the share of CPU time the
            host stole while it ran. While fewer than MIN_ITERATIONS ran
            with at most STEAL_LIMIT stolen, the window stretches by up
            to EXTRA_SECONDS. Each end-to-end metric is the median over
            the iterations the host disturbed least (least_disturbed).
  set-up    before each timed iteration, SETUP_STEPS steps that each
            time the workload's own set-up over many repeats and report
            the median (the worker's `setup`). setup_s is the fastest
            step's median: the host only ever adds time, and a set-up
            (short, syscall-bound) is slowed by bursts of host load that
            the steal share does not show.
  check     every output of every iteration against its reference; a
            failed check is a failed operation.

With --trace 1, TRACED_ITERATIONS traced iterations alternate with as
many untraced ones. A traced iteration makes the same calls as an
untraced one, with the program's spans and counters recorded. Its
per-layer figures are reported (medians), never end-to-end ones;
trace.overhead_s is the median traced-minus-untraced wall time over the
pairs.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("zoo-cold", "served-tenants", "table2-batch")
MIN_ITERATIONS = 3
TRACED_ITERATIONS = 3
# A sample is disturbed when the hypervisor stole more than this share
# of the machine's CPU time while it ran (see least_disturbed).
STEAL_LIMIT = 0.02
SETUP_STEPS = 2
EXTRA_SECONDS = 10
# Every worker step after the build must end by this many seconds into
# the run; a step still running then is killed and counts as failed,
# so the run always reports within its time limit.
RUN_LIMIT_SECONDS = 170
DEADLINE = float("inf")


def fail(message):
    print(f"ledger: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the worker; return its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(os.getcwd(), ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path",
           os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the worker failed")
    return os.path.join(target, "release", "hmpt-ledger")


def child(binary, *args):
    """Run one worker step. Returns a sample: its JSON line (None if it
    failed or outlived the run's deadline), host seconds, peak RSS in
    MiB, and the steal share."""
    ticks = cpu_ticks()
    start = time.perf_counter()
    proc = subprocess.Popen([binary, *args], stdout=subprocess.PIPE)
    killer = threading.Timer(max(0.0, DEADLINE - time.monotonic()), proc.kill)
    killer.start()
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {
        "result": None,
        "elapsed": time.perf_counter() - start,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "steal": steal_share(ticks, cpu_ticks()),
    }
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"ledger: `{' '.join(args)}` exited {proc.returncode}", file=sys.stderr)
    else:
        sample["result"] = json.loads(lines[-1])
    return sample


def cpu_ticks():
    """(steal, total) jiffies over all CPUs since boot, or None where
    the kernel does not report them."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7], sum(fields)) if len(fields) > 7 else None


def steal_share(before, after):
    """Share of CPU time the hypervisor took from this machine between
    two cpu_ticks() readings (0 when unknown)."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def least_disturbed(samples):
    """The samples (dicts with a "steal" share) the host disturbed least:
    those it took at most STEAL_LIMIT of the CPU time from, or, when
    fewer than half qualify, the least-stolen half."""
    clean = [s for s in samples if s["steal"] <= STEAL_LIMIT]
    if 2 * len(clean) >= len(samples):
        return clean
    return sorted(samples, key=lambda s: s["steal"])[:(len(samples) + 1) // 2]


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * pct // 100) - 1)]


class Run:
    def __init__(self, binary, workload, seed, work):
        self.binary, self.workload, self.seed = binary, workload, seed
        self.inputs = os.path.join(work, "in")
        self.k = 0

    def prepare(self):
        shutil.rmtree(self.inputs, ignore_errors=True)
        if child(self.binary, "prepare", self.workload, str(self.seed), self.inputs)["result"] is None:
            fail("preparing the inputs failed")

    def setup(self):
        sample = child(self.binary, "setup", self.workload, self.inputs)
        if sample["result"] is None:
            fail("set-up failed")
        print(f"ledger: set-up: {sample['result']['setup_s'] * 1e3:.3f} ms (median of"
              f" {sample['result']['repeats']}), steal {sample['steal']:.1%}", file=sys.stderr)
        return sample

    def iteration(self, step="iter"):
        """One iteration, as a sample tagged with its index `k`."""
        k = str(self.k)
        self.k += 1
        return dict(child(self.binary, step, self.workload, self.inputs, k), k=k)

    def timed(self, seconds):
        """Iterate for `seconds` (at least MIN_ITERATIONS times), and for
        up to EXTRA_SECONDS more while fewer than MIN_ITERATIONS
        iterations ran undisturbed; set-up steps precede each
        iteration and do not count towards the window. Returns the
        iteration and the set-up samples."""
        samples, setups = [], []
        start = time.perf_counter()

        def more():
            if len(samples) < MIN_ITERATIONS:
                return True
            spent = time.perf_counter() - start - sum(s["elapsed"] for s in setups)
            left = seconds - spent - samples[-1]["elapsed"]
            clean = sum(s["steal"] <= STEAL_LIMIT for s in samples)
            return left >= 0 or (clean < MIN_ITERATIONS and left + EXTRA_SECONDS >= 0)

        while more():
            setups += [self.setup() for _ in range(SETUP_STEPS)]
            sample = self.iteration()
            samples.append(sample)
            if sample["result"] is not None:
                print(f"ledger: iteration {sample['k']}: wall {sample['result']['wall_s']:.3f} s,"
                      f" cpu {sample['result']['cpu_s']:.3f} s, steal {sample['steal']:.1%}",
                      file=sys.stderr)
        return samples, setups

    def check(self, ks):
        return child(self.binary, "check", self.workload, str(self.seed), self.inputs, *ks)["result"]


def end_to_end(samples, setups):
    ok = least_disturbed([s for s in samples if s["result"] is not None])
    if not ok:
        return {}
    print(f"ledger: {len(ok)} of {len(samples)} timed iterations used", file=sys.stderr)

    def median(value):
        return statistics.median(value(s["result"]) for s in ok)

    # Turnaround percentiles are taken per iteration (served-tenants: 112
    # jobs, so p90 has eleven beyond it), then summarized like every metric.
    return {
        "wall_s": (median(lambda r: r["wall_s"]), "s"),
        "cpu_s": (median(lambda r: r["cpu_s"]), "s"),
        "peak_rss_mb": (statistics.median(s["rss_mb"] for s in ok), "MB"),
        "setup_s": (min(s["result"]["setup_s"] for s in setups), "s"),
        "job_turnaround_p50_s": (median(lambda r: nearest_rank(r["turnarounds"], 50)), "s"),
        "job_turnaround_p90_s": (median(lambda r: nearest_rank(r["turnarounds"], 90)), "s"),
    }


def per_layer(untraced, traced, work, workload, seed):
    pairs = [(u["result"], t["result"]) for u, t in zip(untraced, traced)
             if u["result"] is not None and t["result"] is not None]
    if not pairs:
        return {}
    ok = [t for _, t in pairs]
    metrics = {}
    for name in ok[0]["metrics"]:
        value = statistics.median(r["metrics"][name][0] for r in ok)
        metrics[name] = (value, ok[0]["metrics"][name][1])
    # Untraced and traced iterations alternate, so host drift cancels
    # out of each pair's difference.
    metrics["trace.overhead_s"] = (
        statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs), "s")
    # Keep the spans (and, for served-tenants, the per-job records) of
    # the first traced iteration.
    out = os.path.join(os.getcwd(), ".ledger_out")
    os.makedirs(out, exist_ok=True)
    k = traced[0]["k"]
    for kind in ("trace", "jobs"):
        path = os.path.join(work, "in", f"{kind}-{k}.jsonl")
        if os.path.exists(path):
            shutil.copyfile(path, os.path.join(out, f"{workload}-seed{seed}.{kind}.jsonl"))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be ≥ 0")

    binary = build()
    global DEADLINE
    DEADLINE = time.monotonic() + RUN_LIMIT_SECONDS
    work = os.path.join(os.getcwd(), ".ledger_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        run = Run(binary, args.workload, args.seed, work)
        run.prepare()
        run.iteration()  # warm-up, discarded
        if args.trace:
            timed, traced = [], []
            for _ in range(TRACED_ITERATIONS):
                timed.append(run.iteration())
                traced.append(run.iteration("trace"))
        else:
            (timed, setups), traced = run.timed(args.seconds), []
        checked = run.check([s["k"] for s in timed + traced])
        if args.trace:
            metrics = per_layer(timed, traced, work, args.workload, args.seed)
        else:
            metrics = end_to_end(timed, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if checked is None:
        attempted = failed = len(timed + traced)
    else:
        attempted, failed = checked["attempted"], checked["failed"]
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
