"""One workload in one fresh interpreter; started by run.py, not by hand.

Prints ``READY`` once the declared set-up is done (run.py times the
interval from process start to that line as set-up time), then runs the
timed body repeatedly for the requested number of seconds and prints
one JSON line with every sample it took.  A fixed calibration job,
timed during and after each repetition, tells how fast the machine was
running at the time.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

MIN_REPS = 3
MAX_FAULTS = 20
CAL_REPEATS = 3
# Times are rescaled to the machine speed at which the calibration job
# takes this long (see README.md, "Machine speed").
CAL_REF_S = 0.025


class Calibrator:
    """Times a fixed job that calls no minproc code, to tell how fast the
    machine runs at the moment.

    The job is ``UNITS`` units; a unit mixes the kinds of work the
    workloads do: 75 interpreter-bound calls on 2001-point arrays, an FFT
    of 250 frames of 512 samples and an ``lfilter`` of 160 000 samples.
    Its arrays take a few MB.
    """

    UNITS = 8

    def __init__(self):
        import numpy as np
        from scipy import signal

        rng = np.random.default_rng(0)
        self._np = np
        self._signal = signal
        self._frames = rng.standard_normal((250, 512))
        self._samples = rng.standard_normal(160000)
        self._filter = signal.butter(2, 0.1)
        self.samples = []  # job times, in seconds
        self.spent = 0.0  # seconds spent in ticks

    def _unit(self):
        np = self._np
        start = perf_counter()
        for _ in range(75):
            grid = np.linspace(0.0, 1.0, 2001)
            np.flatnonzero(grid * grid > 0.5)
        np.fft.rfft(self._frames, axis=1)
        self._signal.lfilter(*self._filter, self._samples)
        return perf_counter() - start

    def job(self):
        """Time the whole job once and keep the sample."""
        self.samples.append(sum(self._unit() for _ in range(self.UNITS)))

    def tick(self):
        """Time one unit between chunks of a body, as a job-time sample.

        Bodies call this so that the machine's speed is sampled while
        they run; the tick's own time is kept in ``spent``.
        """
        start = perf_counter()
        self.samples.append(self.UNITS * self._unit())
        self.spent += perf_counter() - start

    def take(self):
        """Return the samples since the last take and start afresh."""
        samples, self.samples, self.spent = self.samples, [], 0.0
        return samples


def measure(work, seconds, trace, spans_path, cal):
    """Warm up once, then alternate traced and untraced repetitions
    (traced ones only when ``trace``) until ``seconds`` have passed.

    Each repetition's wall time excludes the calibration ticks inside it
    and is also rescaled to reference speed with the calibration samples
    taken during it and right after it.
    """
    import tracing

    tracer = tracing.Tracer() if trace else None
    walls, ref_walls, traced_walls, layer_runs, calib = [], [], [], [], []
    ops = failed = 0
    faults = []
    quality = None
    peak_rss_mb = math.nan
    deadline = perf_counter() + seconds
    rep = 0
    while True:
        traced = trace and rep % 2 == 1
        if traced:
            tracer.begin(rep)
        cal.take()
        start = perf_counter()
        try:
            output = work.body(cal.tick)
        except Exception:  # a failing body is a measured outcome
            output = None
            faults.append(traceback.format_exc(limit=3))
        finally:
            wall = perf_counter() - start - cal.spent
            if traced:
                tracer.end()
        if output is not None:
            try:
                outcome = work.check(output)
            except Exception:  # unreadable output fails the repetition
                output = None
                faults.append(traceback.format_exc(limit=3))
        if output is None:
            ops += work.ops_per_rep
            failed += work.ops_per_rep
            break
        for _ in range(CAL_REPEATS):
            cal.job()
        samples = cal.take()
        calib.extend(samples)
        ops += outcome.ops
        failed += outcome.failed
        faults.extend(outcome.faults)
        got = (outcome.asii_joint, outcome.log_penalty_joint)
        if quality is None:
            quality = got
        elif got != quality:
            failed += 1
            faults.append(f"rep {rep}: quality {got} differs from {quality}")
        if rep == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        elif traced:
            traced_walls.append(wall)
            layer_runs.append(tracer.layer_metrics())
        else:
            walls.append(wall)
            ref_walls.append(wall * CAL_REF_S / statistics.median(samples))
        rep += 1
        enough = len(walls) >= MIN_REPS and (not trace or len(traced_walls) >= MIN_REPS)
        if enough and perf_counter() >= deadline:
            break

    result = {
        "walls": walls,
        "ref_walls": ref_walls,
        "traced_walls": traced_walls,
        "calib": calib,
        "ops": ops,
        "failed": failed,
        "faults": faults[:MAX_FAULTS],
        "peak_rss_mb": peak_rss_mb,
        "asii_joint": quality[0] if quality else math.nan,
        "log_penalty_joint": quality[1] if quality else math.nan,
    }
    if trace and layer_runs:
        layers = {k: statistics.median(run[k] for run in layer_runs)
                  for k in layer_runs[0]}
        layers["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(walls))
        result["layers"] = layers
        tracer.write(spans_path)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    tmp = root / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        import workloads

        work = workloads.WORKLOADS[args.workload](args.seed, args.tiny, tmp)
        print("READY", flush=True)
        cal = Calibrator()
        for _ in range(CAL_REPEATS):
            cal.job()
        setup_calib = cal.take()
        if args.setup_only:
            print(json.dumps({"calib": setup_calib}), flush=True)
            return 0
        spans = root / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.csv"
        result = measure(work, args.seconds, bool(args.trace), spans, cal)
        result["setup_calib"] = setup_calib
        result["params"] = work.params
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another worker still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
