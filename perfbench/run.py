#!/usr/bin/env python3
"""Host-cost benchmark of the DSM simulator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper8 --seed 7 --seconds 30 --trace 0

Builds perfbench/ (and through it the simulator in src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
whole passes of the workload, one driver process per pass, until the next
pass would overrun --seconds (at least three passes). With --trace 0 the
passes are untraced and the result carries the end-to-end metrics, each the
median over the passes. With --trace 1 traced and untraced passes alternate
and the result carries the per-layer metrics. See perfbench/README.md.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
Exits non-zero, printing no result, when the build fails or no pass runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper8", "wide256", "async_straggler")
MIN_PASSES = 3
# Every pass must end this long after the run starts, so a hung pass is
# killed and the run still exits within three minutes.
RUN_LIMIT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", "4",
                  "--target", "perfbench_driver"])
    # Compiler temporaries stay inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_driver")


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_driver(cmd, timeout):
    """Runs one driver process. Returns (json or None, wall_s, rusage)."""
    out_path = os.path.join(build_dir(), "pass_output.json")
    with open(out_path, "w+b") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, cwd=ROOT)
        reaped = {}

        def reap():
            reaped["wait"] = os.wait4(proc.pid, 0)
            reaped["end"] = time.perf_counter()

        reaper = threading.Thread(target=reap)
        reaper.start()
        reaper.join(max(timeout, 1))
        if reaper.is_alive():
            proc.kill()
            reaper.join()
        _, status, usage = reaped["wait"]
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = reaped["end"] - start
        out.seek(0)
        lines = out.read().decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {' '.join(cmd)} exited {proc.returncode}",
              file=sys.stderr)
        return None, wall, usage
    return json.loads(lines[-1]), wall, usage


def run_passes(driver, args):
    base = [driver, "--workload", args.workload, "--seed", str(args.seed),
            "--fault-seed", str(args.fault_seed)]
    start = time.perf_counter()
    deadline = start + args.seconds
    passes = []
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 0
        result, wall, usage = run_driver(
            base + ["--trace", str(int(traced))],
            start + RUN_LIMIT_S - time.perf_counter())
        passes.append({
            "traced": traced,
            "result": result,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB
        })
        typical = statistics.median(p["wall_s"] for p in passes)
        if result is None or (len(passes) >= MIN_PASSES and
                              time.perf_counter() + typical > deadline):
            return passes


def check(passes):
    """Counts cells attempted and failed over every pass.

    A cell fails when its own check fails (checksum against the sequential
    reference, or convergence), when its deterministic outputs differ from
    the same cell in the first pass, traced or not, or when its pass did not
    finish.
    """
    done = [p["result"] for p in passes if p["result"] is not None]
    if not done:
        fail("no pass finished")
    reference = done[0]["cells"]
    attempted = failed = 0
    for p in passes:
        cells = p["result"]["cells"] if p["result"] else None
        attempted += len(reference)
        if cells is None or len(cells) != len(reference):
            failed += len(reference)
            continue
        for cell, ref in zip(cells, reference):
            why = cell["error"] if not cell["ok"] else ""
            if not why and cell["fingerprint"] != ref["fingerprint"]:
                why = "outputs differ from the first pass"
            if why:
                failed += 1
                kind = "traced" if p["traced"] else "untraced"
                print(f"perfbench: {cell['app']}/{cell['protocol']} "
                      f"({kind} pass) failed: {why}", file=sys.stderr)
    return attempted, failed


def end_to_end(passes):
    ok = [p for p in passes if p["result"] is not None]

    def med(fn):
        return statistics.median(fn(p) for p in ok)

    return {
        "wall_s": (med(lambda p: p["wall_s"]), "s"),
        "setup_s": (med(lambda p: p["result"]["apps_setup_s"] +
                        p["result"]["cluster_ctor_s"]), "s"),
        "run_s": (med(lambda p: p["result"]["run_s"]), "s"),
        "cpu_s": (med(lambda p: p["cpu_s"]), "s"),
        "peak_rss_mb": (med(lambda p: p["peak_rss_mb"]), "MB"),
    }


def per_layer(passes, primitives):
    traced = [p for p in passes if p["traced"] and p["result"] is not None]
    untraced = [p for p in passes if not p["traced"] and p["result"]]
    if not traced or not untraced:
        fail("a traced run needs a finished traced and untraced pass")

    def med(fn):
        return statistics.median(fn(p["result"]) for p in traced)

    first = traced[0]["result"]
    m = {
        "apps.setup_s": (med(lambda r: r["apps_setup_s"]), "s"),
        "dsm.cluster_ctor_s": (med(lambda r: r["cluster_ctor_s"]), "s"),
        "dsm.cluster_run_s": (med(lambda r: r["run_s"]), "s"),
        "dsm.cluster_run.self_s": (
            med(lambda r: r["run_s"] - r["hooks_union_in_run_s"]), "s"),
        "protocols.hooks_union_s": (
            med(lambda r: r["hooks_union_in_run_s"]), "s"),
        "harness.run_sequential_s": (med(lambda r: r["sequential_s"]), "s"),
    }
    for hook, totals in first["hooks"].items():
        m[f"protocols.{hook}.calls"] = (totals["calls"], "count")
        m[f"protocols.{hook}.busy_s"] = (
            med(lambda r, h=hook: r["hooks"][h]["busy_s"]), "s")
    diffs = first["counts"]["dsm.diffs_created"]
    arrive_busy = m["protocols.barrier_arrive.busy_s"][0]
    m["protocols.barrier_arrive.ns_per_diff"] = (
        arrive_busy * 1e9 / diffs if diffs else 0.0, "ns")
    for name, value in first["counts"].items():
        if name == "sim.network.bytes":
            m["sim.network.kbytes"] = (value / 1024.0, "count")
        else:
            m[name] = (value, "count")
    m["sim.virtual_s"] = (first["virtual_ns"] * 1e-9, "virtual_s")
    m["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced) -
        statistics.median(p["wall_s"] for p in untraced), "s")
    for name, value in primitives.items():
        m[name] = (value, "ns")
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault-seed", type=int, default=42,
                        help="fault-plan seed (async_straggler)")
    args = parser.parse_args()
    if args.seed < 0 or args.fault_seed < 0 or args.seconds < 1:
        fail("seeds must be >= 0 and --seconds >= 1")

    driver = build()
    passes = run_passes(driver, args)
    attempted, failed = check(passes)

    host = dict(next(p["result"]["host"] for p in passes if p["result"]))
    host.update(commit=git_commit(), workload=args.workload, seed=args.seed,
                fault_seed=args.fault_seed, seconds=args.seconds)
    print(json.dumps({"host": host}))
    print(json.dumps({"passes": [
        {k: p[k] for k in ("traced", "wall_s", "cpu_s", "peak_rss_mb")} |
        {"failed": sum(not c["ok"] for c in p["result"]["cells"])
         if p["result"] else None}
        for p in passes]}))

    if args.trace:
        prims, _, _ = run_driver([driver, "--primitives",
                                  "--seed", str(args.seed)], RUN_LIMIT_S)
        if prims is None:
            fail("primitive rates did not run")
        metrics = per_layer(passes, prims["primitives"])
    else:
        metrics = end_to_end(passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
