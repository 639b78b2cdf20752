#!/usr/bin/env python3
"""Run one hpccsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hpl_delta --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the hpccbench program plus the hpccsim libraries, from
source) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs the workload as a series of passes, one process per pass, for
about --seconds seconds (at least one pass, never a pass that would
overrun the budget after the first). Each pass sets the workload up, runs
every operation, and checks every operation's simulated output.

--trace 0 prints the end-to-end metrics, medians over the passes. Host
times are stated at a nominal host speed: while a pass runs, a probe of
the benchmark's own (a fixed kernel, no hpccsim code) interrupts the
running thread every 25 ms of CPU time and times itself there, and each
of the pass's host times, less the probes' own time, is multiplied by
PROBE_NOMINAL_S / (mean probe time of the pass); set-up time, which
precedes the timer, is scaled by a burst of probes run right after it.
A host made slower by other tenants slows the probe and the workload
alike and cancels; a slower program does not. The times as measured
are printed too.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced passes; the traced passes also write a Chrome
trace_event file (loads in Perfetto) next to the build.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. perfbench/METRICS.md is the
catalog of workloads and metrics.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CALIBRATION = os.path.join("bench", "calibration.json")

# name -> unit of the simulated work counted by work_per_s
WORKLOADS = {
    "hpl_delta": "events",
    "flit_mesh": "flit-hops",
    "grid_day": "requests",
    "platform_month": "jobs",
}

# (name, unit, better). failed_ops_pct is reported as ok_ops_pct, which is
# never 0, so a share of its median is always defined.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ok_ops_pct", "%", "higher"),
]

PER_LAYER = [
    ("core.events", "count", "lower"),
    ("core.peak_queue_depth", "count", "lower"),
    ("core.host_ns_per_event", "ns", "lower"),
    ("nx.machine_build_s", "s", "lower"),
    ("nx.messages", "count", "lower"),
    ("nx.bytes", "bytes", "lower"),
    ("nx.payload_pool_sized", "count", "lower"),
    ("nx.recv_wait_share", "ratio", "lower"),
    ("linalg.lu_s", "s", "lower"),
    ("linalg.derive_s", "s", "lower"),
    ("linalg.replay_s", "s", "lower"),
    ("linalg.schedule_gen_share", "ratio", "lower"),
    ("linalg.skeleton_ops", "count", "lower"),
    ("linalg.replay_ops_per_s", "1/s", "higher"),
    ("linalg.skeleton_mb", "MiB", "lower"),
    ("linalg.gflops_n25000", "GFLOPS", "higher"),
    ("mesh.messages", "count", "lower"),
    ("mesh.stalls", "count", "lower"),
    ("mesh.contention_us_mean", "us", "lower"),
    ("mesh.flit.build_s", "s", "lower"),
    ("mesh.flit.dense_s", "s", "lower"),
    ("mesh.flit.sparse_s", "s", "lower"),
    ("mesh.flit.host_ns_per_hop.dense", "ns", "lower"),
    ("mesh.flit.host_ns_per_hop.sparse", "ns", "lower"),
    ("mesh.flit.link_flits", "count", "lower"),
    ("mesh.flit.cycles", "count", "lower"),
    ("mesh.flit.cycles_skipped", "count", "higher"),
    ("mesh.flit.skip_ratio", "ratio", "higher"),
    ("mesh.flit.router_visits", "count", "lower"),
    ("mesh.flit.visits_per_hop", "ratio", "lower"),
    ("mesh.flit.ffwd_flits", "count", "higher"),
    ("mesh.flit.shard_windows", "count", "lower"),
    ("mesh.flit.barrier_waits", "count", "lower"),
    ("mesh.flit.boundary_flits", "count", "lower"),
    ("wan.flow.recomputes", "count", "lower"),
    ("wan.flow.rate_updates", "count", "lower"),
    ("wan.flow.stale_events", "count", "lower"),
    ("wan.flow.stale_ratio", "ratio", "lower"),
    ("wan.flow.active_peak", "count", "lower"),
    ("wan.flow.host_us_per_recompute", "us", "lower"),
    ("grid.build_s", "s", "lower"),
    ("grid.run_s", "s", "lower"),
    ("grid.requests", "count", "higher"),
    ("grid.cache_hit_ratio", "ratio", "higher"),
    ("grid.flows_completed", "count", "higher"),
    ("grid.mean_slowdown", "ratio", "lower"),
    ("sched.workload_build_s", "s", "lower"),
    ("sched.run_s.uncoordinated", "s", "lower"),
    ("sched.run_s.fifo-coop", "s", "lower"),
    ("sched.run_s.ordered-coop", "s", "lower"),
    ("sched.jobs", "count", "higher"),
    ("sched.backfilled", "count", "higher"),
    ("sched.waste_pct.uncoordinated", "%", "lower"),
    ("sched.waste_pct.fifo-coop", "%", "lower"),
    ("sched.waste_pct.ordered-coop", "%", "lower"),
    ("io.bytes_completed", "bytes", "lower"),
    ("io.peak_active", "count", "lower"),
    ("fault.crashes_hit", "count", "lower"),
    ("fault.rollbacks", "count", "lower"),
    ("sched.ckpts_aborted", "count", "lower"),
    ("obs.spans", "count", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("obs.span_coverage_pct", "%", "higher"),
    ("host.probe_us", "us", "lower"),
]

# The probe's time, in seconds, on the nominal host that scaled host
# times are stated at: its typical time on a quiet 4-core Intel Xeon
# (Sapphire Rapids, KVM guest) with gcc 12.2.0, RelWithDebInfo.
PROBE_NOMINAL_S = 0.00050

# setup_s is a median over at least this many set-ups per run; passes too
# long to give that many are topped up with set-up-only processes.
MIN_SETUP_SAMPLES = 15
# Coverage target for the traced passes' top-level spans (share of wall_s).
MIN_SPAN_COVERAGE_PCT = 90.0


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure (once) and build hpccbench; returns the executable."""
    for need in (os.path.join("src", "CMakeLists.txt"), CALIBRATION):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError(f"hpccsim source file {need} not found under "
                             f"{ROOT}; run from a full checkout")
    bdir = build_dir()
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", bdir, "--target", "hpccbench", "--parallel",
           jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        raise BenchError("build failed")
    return os.path.join(bdir, "hpccbench")


def run_pass(exe, args, trace_path=None, setup_only=False):
    """One hpccbench process; returns its record plus the host-side
    measurements (wall, CPU, peak RSS, set-up time from spawn)."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        cmd.append("--small")
    if setup_only:
        cmd.append("--setup-only")
    if trace_path:
        cmd += ["--trace-out", trace_path]
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 instead of wait: it also returns the child's own rusage.
    _, status, usage = os.wait4(proc.pid, 0)
    wall = (time.monotonic_ns() - t0) * 1e-9
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"hpccbench exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("hpccbench printed no result")
    rec = json.loads(lines[-1])
    # steady_clock and time.monotonic both read CLOCK_MONOTONIC, so the
    # set-up time below runs from process spawn to the first simulated
    # event.
    rec["setup_from_spawn_s"] = (rec["setup_end_ns"] - t0) * 1e-9
    rec["wall_s"] = wall
    rec["cpu_s"] = usage.ru_utime + usage.ru_stime
    rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB
    scale_host_times(rec)
    for failure in rec["failures"]:
        log(f"FAILED {failure}")
    return rec


def scale_host_times(rec):
    """Add the pass's host times at nominal host speed (key + "_n"). The
    probes' own time is taken out of wall and CPU time first (run_s
    comes without it). A pass too short for a timer probe is scaled by
    its burst."""
    if rec["burst_mean_s"] <= 0.0:
        raise BenchError("hpccbench took no host-speed probe")
    burst = PROBE_NOMINAL_S / rec["burst_mean_s"]
    factor = (PROBE_NOMINAL_S / rec["probe_mean_s"] if rec["probes"]
              else burst)
    rec["probe_us"] = rec["probe_mean_s"] * 1e6
    rec["setup_s_n"] = rec["setup_from_spawn_s"] * burst
    rec["run_s_n"] = rec["run_s"] * factor
    rec["wall_s_n"] = (rec["wall_s"] - rec["probe_total_s"]) * factor
    rec["cpu_s_n"] = (rec["cpu_s"] - rec["probe_total_s"]) * factor


def run_passes(exe, args):
    """Passes until the time budget is spent. With tracing, passes
    alternate untraced/traced, starting untraced."""
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir,
                              f"{args.workload}-seed{args.seed}.json")
    plain, traced = [], []
    start = time.monotonic()
    while True:
        tracing = args.trace and len(traced) < len(plain)
        rec = run_pass(exe, args, trace_path if tracing else None)
        (traced if tracing else plain).append(rec)
        if args.trace and not traced:
            continue
        elapsed = time.monotonic() - start
        per_pass = statistics.median(r["wall_s"] for r in plain + traced)
        if elapsed + per_pass > args.seconds:
            return plain, traced, trace_path


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def end_to_end(exe, args, plain):
    setups = list(plain)
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_pass(exe, args, setup_only=True))
    attempted = sum(r["attempted"] for r in plain)
    failed = sum(len(r["failures"]) for r in plain)
    values = {
        "setup_s": (median_of(setups, "setup_s_n"), len(setups)),
        "run_s": (median_of(plain, "run_s_n"), len(plain)),
        "wall_s": (median_of(plain, "wall_s_n"), len(plain)),
        "work_per_s": (statistics.median(r["work"] / r["run_s_n"]
                                         for r in plain), len(plain)),
        "cpu_s": (median_of(plain, "cpu_s_n"), len(plain)),
        "peak_rss_mb": (median_of(plain, "peak_rss_mb"), len(plain)),
        "ok_ops_pct": (100.0 * (attempted - failed) / attempted, attempted),
    }
    unit = WORKLOADS[args.workload]
    print(f"{'metric':<16} {'value':>14}  {'unit':<16} samples")
    for name, u, _ in END_TO_END:
        value, n = values[name]
        shown = f"{unit}/s" if name == "work_per_s" else u
        print(f"{name:<16} {value:>14.6g}  {shown:<16} {n}")
    print(f"{'failed_ops_pct':<16} {100.0 * failed / attempted:>14.6g}  "
          f"{'%':<16} {attempted}")
    print("host times above are at nominal host speed; as measured:")
    for name, records in (("setup_s", setups), ("run_s", plain),
                          ("wall_s", plain), ("cpu_s", plain)):
        key = "setup_from_spawn_s" if name == "setup_s" else name
        print(f"{name + '_raw':<16} {median_of(records, key):>14.6g}  "
              f"{'s':<16} {len(records)}")
    print(f"{'host.probe_us':<16} {median_of(plain, 'probe_us'):>14.6g}  "
          f"{'us':<16} {len(plain)}  (nominal {PROBE_NOMINAL_S * 1e6:g})")
    return {name: values[name][0] for name, _, _ in END_TO_END}


def per_layer(plain, traced, trace_path):
    names = [name for name, _, _ in PER_LAYER]
    values = dict.fromkeys(names, 0.0)
    for name in traced[0]["metrics"]:
        if name not in values:
            raise BenchError(f"hpccbench reported unknown metric {name}")
        values[name] = statistics.median(r["metrics"][name] for r in traced)
    values["obs.spans"] = median_of(traced, "spans")
    values["obs.trace_overhead_pct"] = 100.0 * (
        median_of(traced, "run_s_n") / median_of(plain, "run_s_n") - 1.0)
    values["host.probe_us"] = median_of(traced, "probe_us")
    coverage = 100.0 * statistics.median(r["top_level_s"] / r["wall_s"]
                                         for r in traced)
    values["obs.span_coverage_pct"] = coverage
    if coverage < MIN_SPAN_COVERAGE_PCT:
        log(f"WARNING: top-level spans cover {coverage:.1f}% of wall_s")
    print(f"per-layer metrics: median of {len(traced)} traced pass(es); "
          f"trace: {os.path.relpath(trace_path, ROOT)}")
    for name, unit, _ in PER_LAYER:
        print(f"{name:<36} {values[name]:>16.6g}  {unit}")
    return values


def git_commit():
    """HEAD's commit, read from .git without running git (the checkout
    may not be a repository)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1992,
                    help="workload seed (1992 reproduces the shipped "
                         "exhibits and enables their golden checks)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="time budget of the measured passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="self-test size: small inputs, no goldens")
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be in [0, 2**64)")

    try:
        exe = build()
        plain, traced, trace_path = run_passes(exe, args)
        first = plain[0]
        print(json.dumps({
            "host": {"nproc": os.cpu_count(), "compiler": first["compiler"],
                     "build_type": first["build_type"],
                     "commit": git_commit()},
            "workload": args.workload, "seed": args.seed,
            "threads": first["threads"], "passes": len(plain),
            "traced_passes": len(traced)}))
        if args.trace:
            metrics, units = per_layer(plain, traced, trace_path), PER_LAYER
        else:
            metrics, units = end_to_end(exe, args, plain), END_TO_END
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 1

    records = plain + traced
    attempted = sum(r["attempted"] for r in records)
    failed = sum(len(r["failures"]) for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
