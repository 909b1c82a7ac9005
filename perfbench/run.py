"""minproc benchmark: run one workload (or all), check it, print its metrics.

    python3 perfbench/run.py --workload scene_60s --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --repeats 3

Run it from the root of a source checkout; it uses ``src/`` from there.
Every workload runs in fresh interpreters with one BLAS/OpenMP thread.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md in this directory for what each metric means.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True

import tracing  # noqa: E402  (after the bytecode switch)
from worker import CAL_REF_S  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scene_60s", "sweep_a_star", "solve_random")
# (name, unit) of every end-to-end metric an untraced run reports
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("asii_joint", "1"), ("log_penalty_joint", "1"))
SETUP_SAMPLES = 5
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.update(THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, timeout):
    """Run worker.py; returns (seconds from start to READY, last line)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=child_env())
    watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker {' '.join(argv)} failed with exit code {code}")
    lines = rest.strip().splitlines()
    return ready_s, lines[-1] if lines else ""


def rescale(seconds, calib):
    """``seconds`` at reference speed, given calibration times taken
    in the same process: seconds * CAL_REF_S / median(calib)."""
    return seconds * CAL_REF_S / statistics.median(calib)


def run_once(workload, seed, seconds, trace, tiny=False):
    """One measured run: set-up samples, then the workload's own process."""
    t0 = perf_counter()
    base = ["--workload", workload, "--seed", str(seed)]
    if tiny:
        base.append("--tiny")
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            left = TIME_LIMIT_S - (perf_counter() - t0)
            ready_s, line = spawn(base + ["--setup-only"], left)
            setups.append((ready_s, json.loads(line)["calib"]))
    left = TIME_LIMIT_S - (perf_counter() - t0)
    ready_s, line = spawn(base + ["--seconds", str(seconds),
                                  "--trace", str(int(trace))], left)
    res = json.loads(line)
    setups.append((ready_s, res["setup_calib"]))
    res["raw_setups"] = [s for s, _ in setups]
    res["setups"] = [rescale(s, c) for s, c in setups]
    return res


def summarize(res, trace):
    """The run's metrics as the JSON result object."""
    walls = res["walls"]
    if trace:
        layers = res.get("layers", {})
        metrics = {name: {"value": layers.get(name, math.nan), "unit": unit}
                   for name, unit, _ in tracing.LAYER_METRICS}
    else:
        values = {"setup_s": statistics.median(res["setups"]),
                  "wall_s": (statistics.median(res["ref_walls"])
                             if walls else math.nan),
                  "peak_rss_mb": res["peak_rss_mb"],
                  "asii_joint": res["asii_joint"],
                  "log_penalty_joint": res["log_penalty_joint"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    faults = list(res["faults"])
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            faults.append(f"metric {name} is not finite")
            m["value"] = None  # JSON has no NaN
    return {"correct": res["failed"] == 0 and not faults,
            "attempted": res["ops"], "failed": res["failed"],
            "metrics": metrics}, faults


def tail(values):
    """The highest of p90, p99 and p99.9 with at least ten samples
    beyond it, as (label, value), or None when there are too few."""
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            return f"p{p:g}", tracing.percentile(values, p)
    return None


def describe(name, values, unit):
    """One line: median, tail percentile and sample count."""
    if not values:
        return f"{name:<36s} {'n/a':>14s} {unit:<6s} (no samples)"
    med = statistics.median(values)
    t = tail(values)
    spread = f"{t[0]} {t[1]:.6g}" if t else "no tail percentile"
    return f"{name:<36s} {med:14.6g} {unit:<6s} (median of n={len(values)}, {spread})"


def environment():
    import importlib.metadata as md

    lines = sum(len(p.read_text().splitlines())
                for p in sorted((ROOT / "src" / "minproc").glob("*.py")))
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "threads": THREADS, "src_minproc_lines": lines,
           "machine": platform.machine()}
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            env[pkg] = None
    return env


def report(res, result, trace):
    """Print raw timings with their sample counts, then every metric."""
    print(describe("calibration job (raw)", res["calib"], "s"))
    if trace:
        print(describe("traced wall (raw)", res["traced_walls"], "s"))
    else:
        print(describe("set-up (raw)", res["raw_setups"], "s"))
        print(describe("wall (raw)", res["walls"], "s"))
    for name, m in result["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:<36s} {value:>14s} {m['unit']}")


def single(args):
    trace = bool(args.trace)
    res = run_once(args.workload, args.seed, args.seconds, trace, args.tiny)
    result, faults = summarize(res, trace)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} operations, {result['failed']} failed")
    report(res, result, trace)
    for f in faults:
        print(f"FAULT {f}")
    print(json.dumps(result))


def summarize_workload(plain, traced):
    """Print and return one workload's figures over all its runs."""
    results = [r for _, r in plain + traced]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    entry = {"error_rate": failed / attempted, "end_to_end": {},
             "per_layer": {}}
    print(f"{attempted} operations, {failed} failed, error_rate "
          f"{entry['error_rate']:.6g}")
    if not all(r["correct"] for r in results):
        return entry
    for name, unit in END_TO_END:
        values = [r["metrics"][name]["value"] for _, r in plain]
        print(describe(name, values, unit))
        entry["end_to_end"][name] = {"median": statistics.median(values),
                                     "values": values}
    entry["raw_medians_s"] = {
        key: statistics.median(statistics.median(res[key]) for res, _ in plain)
        for key in ("raw_setups", "walls", "calib")}
    for name, unit, _ in tracing.LAYER_METRICS:
        values = [r["metrics"][name]["value"] for _, r in traced]
        print(describe(name, values, unit))
        entry["per_layer"][name] = statistics.median(values)

    layers = entry["per_layer"]
    untraced = statistics.median(statistics.median(res["walls"]) for res, _ in traced)
    wall = statistics.median(statistics.median(res["traced_walls"]) for res, _ in traced)
    shares = {"scene+stft": sum(v for k, v in layers.items() if k.endswith("_s")
                                and k.startswith(("scene.", "stft."))) / wall,
              "solver": sum(v for k, v in layers.items() if k.endswith("_s")
                            and k.startswith("solver.")) / wall}
    entry["traced_wall_s"] = wall
    entry["self_time_share"] = shares
    overhead = layers["trace.overhead_s"]
    print(f"tracing overhead {overhead:.4g} s per repetition on an untraced "
          f"wall of {untraced:.4g} s ({100.0 * overhead / untraced:.1f}%)")
    print("self time as a share of the traced wall: " + ", ".join(
        f"{k} {100.0 * v:.1f}%" for k, v in shares.items()))
    return entry


def every(args):
    """All workloads, each untraced then traced, over --repeats seeds."""
    env = environment()
    print(json.dumps(env))
    record = {"environment": env, "seconds": args.seconds,
              "seeds": list(range(args.seed, args.seed + args.repeats)),
              "workloads": {}}
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        runs = {False: [], True: []}
        for seed in record["seeds"]:
            for trace in (False, True):
                res = run_once(workload, seed, args.seconds, trace, args.tiny)
                result, faults = summarize(res, trace)
                runs[trace].append((res, result))
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for f in faults:
                    print(f"FAULT {workload} seed {seed}: {f}")
        print(f"== {workload}")
        entry = {"params": runs[False][0][0]["params"],
                 **summarize_workload(runs[False], runs[True])}
        record["workloads"][workload] = entry
        for name, unit in END_TO_END:
            if name in entry["end_to_end"]:
                combined["metrics"][f"{workload}.{name}"] = {
                    "value": entry["end_to_end"][name]["median"], "unit": unit}
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="with --workload all: seeds seed .. seed+repeats-1")
    parser.add_argument("--record", metavar="PATH",
                        help="with --workload all: also write the results "
                             "and the environment as JSON")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test input sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "minproc" / "__init__.py").is_file():
        print(f"error: no minproc sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            every(args)
        else:
            single(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
