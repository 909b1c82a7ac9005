"""Span recorder and timing wrappers for the traced benchmark run.

No file of the package changes.  Instead, every public function worth
timing is replaced, for the duration of one traced repetition, under
each module-global name its callers look it up by: ``solve_band`` finds
``grid_solve`` as a global of ``minproc.solver``, ``synthesize_scene``
finds ``analyze`` as a global of ``minproc.scene``, and so on.  Nested
calls therefore produce nested spans, and a layer's self time is its
span's duration minus the part covered by its child spans.
"""

import csv
import importlib
import os
from collections import Counter
from time import perf_counter

# (module, global name, span name): every lookup site of a timed function.
SITES = (
    ("minproc.cli", "main", "cli.main"),
    ("minproc.cli", "synthesize_scene", "scene.synthesize_scene"),
    ("minproc.scene", "synthesize_scene", "scene.synthesize_scene"),
    ("minproc.scene", "make_source", "scene.make_source"),
    ("minproc.scene", "analyze", "stft.analyze"),
    ("minproc.scene", "synthesize", "stft.synthesize"),
    ("minproc.pipeline", "synthesize", "stft.synthesize"),
    ("minproc.cli", "write_wav", "stft.write_wav"),
    ("minproc.cli", "build_beamformers", "beamform.build_beamformers"),
    ("minproc.beamform", "build_beamformers", "beamform.build_beamformers"),
    ("minproc.pipeline", "apply_beamformer", "beamform.apply_beamformer"),
    ("minproc.cli", "build_filterbank", "filterbank.build_filterbank"),
    ("minproc.filterbank", "build_filterbank", "filterbank.build_filterbank"),
    ("minproc.pipeline", "band_terms", "solver.band_terms"),
    ("minproc.pipeline", "solve_band", "solver.solve_band"),
    ("minproc.solver", "solve_band", "solver.solve_band"),
    ("minproc.solver", "grid_solve", "solver.grid_solve"),
    ("minproc.solver", "boundary_solution", "solver.boundary_solution"),
    ("minproc.solver", "fallback_c1", "solver.fallback"),
    ("minproc.solver", "fallback_c2", "solver.fallback"),
    ("minproc.solver", "fallback_both", "solver.fallback"),
    ("minproc.cli", "run_joint", "pipeline.run_joint"),
    ("minproc.pipeline", "run_joint", "pipeline.run_joint"),
    ("minproc.cli", "run_blind_concat", "pipeline.run_blind_concat"),
    ("minproc.pipeline", "run_blind_concat", "pipeline.run_blind_concat"),
    ("minproc.cli", "run_unprocessed", "pipeline.run_unprocessed"),
    ("minproc.pipeline", "run_unprocessed", "pipeline.run_unprocessed"),
    ("minproc.pipeline", "recombine", "pipeline.recombine"),
    ("minproc.cli", "render", "pipeline.render"),
    ("minproc.pipeline", "render", "pipeline.render"),
    ("minproc.cli", "evaluate", "metrics.evaluate"),
    ("minproc.metrics", "evaluate", "metrics.evaluate"),
)

# spans reported as self time (<name>_s)
TIMED = (
    "scene.synthesize_scene", "scene.make_source",
    "stft.analyze", "stft.synthesize", "stft.write_wav",
    "beamform.build_beamformers", "beamform.apply_beamformer",
    "filterbank.build_filterbank",
    "solver.solve_band", "solver.grid_solve", "solver.boundary_solution",
    "solver.fallback", "solver.band_terms",
    "pipeline.run_joint", "pipeline.run_blind_concat",
    "pipeline.run_unprocessed", "pipeline.recombine", "pipeline.render",
    "metrics.evaluate", "cli.main",
)

# spans reported as call counts (<name>_calls)
COUNTED = (
    "scene.synthesize_scene", "scene.make_source",
    "stft.analyze", "stft.synthesize",
    "beamform.build_beamformers", "beamform.apply_beamformer",
    "filterbank.build_filterbank",
    "solver.solve_band", "solver.band_terms", "solver.fallback",
    "metrics.evaluate",
)

STATUSES = ("Feasible", "C1Infeasible", "C2Infeasible", "BothInfeasible")


def _metric_table():
    table = [(f"{name}_s", "s", "lower") for name in TIMED]
    table += [(f"{name}_calls", "count", "lower") for name in COUNTED]
    table += [
        ("scene.reuse_ratio", "ratio", "higher"),
        ("stft.frames", "count", "lower"),
        ("stft.bytes_written", "B", "lower"),
        ("solver.band_p50_us", "us", "lower"),
        ("solver.band_p99_us", "us", "lower"),
        ("solver.boundary_wins_ratio", "ratio", "higher"),
        ("solver.status.Feasible", "count", "higher"),
        ("solver.status.C1Infeasible", "count", "lower"),
        ("solver.status.C2Infeasible", "count", "lower"),
        ("solver.status.BothInfeasible", "count", "lower"),
        ("cli.points", "count", "higher"),
        ("cli.files_written", "count", "lower"),
        ("cli.bytes_written", "B", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return tuple(table)


# (name, unit, better) of every per-layer metric a traced run reports
LAYER_METRICS = _metric_table()


def _count_analyze(tracer, args, result):
    tracer.counts["stft.frames"] += result.channels * result.frames


def _count_synthesize(tracer, args, result):
    data = getattr(args[0], "data", args[0])
    tracer.counts["stft.frames"] += data.shape[0] * data.shape[1]


def _count_wav(tracer, args, result):
    tracer.counts["stft.bytes_written"] += os.path.getsize(args[0])


def _note_scene(tracer, args, result):
    tracer.scene_keys.add((repr(args[0]), repr(args[1])))


def _note_boundary(tracer, args, result):
    tracer.last_boundary = result


def _note_solution(tracer, args, result):
    tracer.counts[f"solver.status.{result.status.value}"] += 1
    # the closed-form candidate settles the band: the grid was wasted work
    cand = tracer.last_boundary
    if cand is not None and (cand.alpha, cand.gain) == (result.alpha, result.gain):
        tracer.counts["boundary_wins"] += 1


def _count_artifacts(tracer, args, result):
    argv = list(args[0])
    root = argv[argv.index("--out") + 1]
    points = set()
    for top, _, files in os.walk(root):
        for name in files:
            tracer.counts["cli.files_written"] += 1
            tracer.counts["cli.bytes_written"] += os.path.getsize(
                os.path.join(top, name))
    metrics_csv = os.path.join(root, "metrics.csv")
    if os.path.exists(metrics_csv):
        with open(metrics_csv, newline="") as fh:
            for row in csv.DictReader(fh):
                points.add((row["sweep_key"], row["sweep_value"]))
    tracer.counts["cli.points"] += len(points)


# counts taken where the work happens, after the wrapped call returns
HOOKS = {
    "stft.analyze": _count_analyze,
    "stft.synthesize": _count_synthesize,
    "stft.write_wav": _count_wav,
    "scene.synthesize_scene": _note_scene,
    "solver.boundary_solution": _note_boundary,
    "solver.solve_band": _note_solution,
    "cli.main": _count_artifacts,
}


def percentile(values, p):
    """Linearly interpolated p-th percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = (len(ordered) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


class Tracer:
    """Records perf_counter spans (name, start, end, parent, run id).

    Spans stay in memory; ``write`` stores all of them at the end.
    """

    def __init__(self):
        self.run_id = -1
        self.spans = []
        self.archive = []
        self.counts = Counter()
        self.scene_keys = set()
        self.last_boundary = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        def timed(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, result)
            return result

        timed.__wrapped__ = fn
        return timed

    def begin(self, run_id):
        """Start a traced repetition and install every wrapper."""
        self.run_id = run_id
        self.spans.clear()
        self.counts.clear()
        self.scene_keys.clear()
        self.last_boundary = None
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def end(self):
        """Restore the package's own functions."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def layer_metrics(self):
        """Per-layer metrics of the repetition since ``begin``."""
        spans = self.spans
        self.archive.extend((self.run_id, *span) for span in spans)
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s, calls, band_us = Counter(), Counter(), []
        for (name, start, end, _), child in zip(spans, covered):
            self_s[name] += end - start - child
            calls[name] += 1
            if name == "solver.solve_band":
                band_us.append((end - start) * 1e6)

        out = {f"{name}_s": self_s[name] for name in TIMED}
        out.update({f"{name}_calls": calls[name] for name in COUNTED})
        for key in ("stft.frames", "stft.bytes_written", "cli.points",
                    "cli.files_written", "cli.bytes_written"):
            out[key] = self.counts[key]
        for status in STATUSES:
            key = f"solver.status.{status}"
            out[key] = self.counts[key]
        scenes = calls["scene.synthesize_scene"]
        bands = calls["solver.solve_band"]
        # a ratio whose base is zero does not apply and reads 0
        out["scene.reuse_ratio"] = len(self.scene_keys) / scenes if scenes else 0.0
        out["solver.boundary_wins_ratio"] = (
            self.counts["boundary_wins"] / bands if bands else 0.0)
        out["solver.band_p50_us"] = percentile(band_us, 50.0)
        out["solver.band_p99_us"] = percentile(band_us, 99.0)
        return out

    def write(self, path):
        """Store every recorded span as CSV, one row per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run", "name", "start", "end", "parent"])
            writer.writerows(self.archive)
