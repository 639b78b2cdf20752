#!/usr/bin/env python3
"""Gate bench metrics against the committed baselines.

Reads every ``*.json`` bench-metrics file (the shared --json schema, see
docs/METRICS.md) from a directory and compares it with
``bench/baselines.json``:

* ``sim_time_s`` and the ``GATED_METRICS`` headline numbers are
  simulation-deterministic, so they are gated exactly: any relative
  drift above 1e-9 (floating-point print noise, nothing more) in either
  direction FAILS the gate — the model changed and the change must be
  owned (re-baseline with ``--update``).
* ``wall_time_s`` is host-dependent: drift only prints a warning.
* Benches present in the metrics directory but missing from the
  baselines (or vice versa) fail, so the baseline file cannot silently
  rot as benches are added or removed.

Usage:
    check_metrics.py <metrics-dir> [--baselines bench/baselines.json]
                     [--wall-warn 0.50] [--update]
"""

import argparse
import json
import pathlib
import sys


# Simulation-deterministic headline metrics, gated exactly like sim_time_s:
# the fig1 n=25,000 operating point ("13 GFLOPS ... OF ORDER 25,000"),
# the shared-platform month's waste per checkpoint-ordering strategy
# (the cooperative-vs-Young/Daly comparison must not drift silently),
# and the A12 federation day's transfer counts and per-policy slowdown
# (any change to the fluid max-min engine's results shows up here).
GATED_METRICS = (
    "gflops_n25000",
    "sim_time_n25000_s",
    "waste_pct_uncoordinated",
    "waste_pct_fifo_coop",
    "waste_pct_ordered_coop",
    "flows_total",
    "requests_total",
    "widest_mean_slowdown",
    "least_loaded_mean_slowdown",
)

# Relative drift allowed on deterministic values: exact up to the last
# digits of a printed double.
EXACT_TOLERANCE = 1e-9


def load_metrics(metrics_dir: pathlib.Path, failures: list) -> dict:
    """Scan every metrics file, recording malformed ones in ``failures``.

    A bad file no longer aborts the scan: all load problems are
    collected alongside the drift failures so one run reports every
    out-of-band metric and every unreadable file together.
    """
    current = {}
    for path in sorted(metrics_dir.glob("*.json")):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            failures.append(f"{path}: unreadable metrics file ({e})")
            continue
        # v2 added the optional top-level "threads" field; both versions
        # carry the gated keys unchanged.
        if doc.get("schema_version") not in (1, 2):
            failures.append(f"{path}: unknown schema_version "
                            f"{doc.get('schema_version')!r}")
            continue
        if "bench" not in doc:
            failures.append(f"{path}: missing 'bench' name")
            continue
        entry = {
            "sim_time_s": doc.get("sim_time_s", 0.0),
            "wall_time_s": doc.get("wall_time_s", 0.0),
        }
        # Named deterministic headline metrics are gated like sim_time_s
        # (the paper's n=25,000 point must not drift silently).
        for key in GATED_METRICS:
            if key in doc.get("metrics", {}):
                entry[key] = doc["metrics"][key]
        current[doc["bench"]] = entry
    if not current and not failures:
        failures.append(f"no *.json metrics found in {metrics_dir}")
    return current


def rel_drift(new: float, old: float) -> float:
    if old == 0.0:
        return 0.0 if new == 0.0 else float("inf")
    return abs(new - old) / old


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("metrics_dir", type=pathlib.Path)
    ap.add_argument("--baselines", type=pathlib.Path,
                    default=pathlib.Path("bench/baselines.json"))
    ap.add_argument("--wall-warn", type=float, default=0.50,
                    help="relative wall_time_s drift that prints a warning")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baselines file from the current run")
    args = ap.parse_args()

    failures = []
    current = load_metrics(args.metrics_dir, failures)

    if args.update:
        if failures:
            # Never adopt a partial scan as the new baseline.
            for f in failures:
                print(f"FAIL {f}")
            print(f"\nrefusing --update: {len(failures)} metrics file(s) "
                  f"failed to load")
            return 1
        with open(args.baselines, "w") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(current)} baselines to {args.baselines}")
        return 0

    with open(args.baselines) as fh:
        baselines = json.load(fh)
    for bench in sorted(set(baselines) | set(current)):
        if bench not in current:
            failures.append(f"{bench}: in baselines but produced no metrics")
            continue
        if bench not in baselines:
            failures.append(f"{bench}: new bench, not in baselines "
                            f"(run with --update to adopt)")
            continue
        new, old = current[bench], baselines[bench]

        sim_drift = rel_drift(new["sim_time_s"], old["sim_time_s"])
        if sim_drift > EXACT_TOLERANCE:
            failures.append(
                f"{bench}: sim_time_s {old['sim_time_s']!r} -> "
                f"{new['sim_time_s']!r} ({sim_drift:.3g} relative drift; "
                f"deterministic, gated exactly)")
        else:
            print(f"ok   {bench}: sim_time_s {new['sim_time_s']:.6g}")

        for key in GATED_METRICS:
            if key not in old and key not in new:
                continue
            if (key in old) != (key in new):
                failures.append(f"{bench}: {key} "
                                f"{'dropped from' if key in old else 'new in'}"
                                f" this run (re-baseline with --update)")
                continue
            drift = rel_drift(new[key], old[key])
            if drift > EXACT_TOLERANCE:
                failures.append(
                    f"{bench}: {key} {old[key]!r} -> {new[key]!r} "
                    f"({drift:.3g} relative drift; deterministic, gated "
                    f"exactly)")
            else:
                print(f"ok   {bench}: {key} {new[key]:.6g}")

        wall_drift = rel_drift(new["wall_time_s"], old["wall_time_s"])
        if wall_drift > args.wall_warn:
            print(f"WARN {bench}: wall_time_s {old['wall_time_s']:.3g}s -> "
                  f"{new['wall_time_s']:.3g}s ({wall_drift:+.0%}); "
                  f"host-dependent, not gated")

    if failures:
        print()
        for f in failures:
            print(f"FAIL {f}")
        print(f"\n{len(failures)} metric gate failure(s). If the simulation "
              f"model changed intentionally, regenerate the baselines:\n"
              f"  tools/run_bench_metrics.sh <build-dir> <out-dir>\n"
              f"  tools/check_metrics.py <out-dir> --baselines "
              f"{args.baselines} --update")
        return 1
    print(f"\nall {len(current)} benches match their baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
