"""Batch driver: run scenarios from flat config files, sweep parameters,
emit WAV/CSV/JSON artifacts, and explain band-solution tables.

Config files are flat ``key = value`` text: numbers, ``true``/``false``,
``inf``, bare strings, and bracketed arrays (nested once for positions).
Every key has a default, so an empty file is a valid scenario.  Exit
codes: 0 success, 2 usage or config error, 3 I/O error while writing.
"""

import argparse
import csv
import dataclasses
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .beamform import build_beamformers
from .filterbank import (allocate_targets, build_filterbank,
                         load_band_importance)
from .metrics import evaluate
from .pipeline import (Method, render, run_blind_concat, run_joint,
                       run_unprocessed)
from .scene import DB_LIMIT, SceneConfig, synthesize_scene
from .solver import (DELTA_N_DB, DELTA_U_DB, BandStatus, band_rows,
                     boost_fraction, constraint_bounds, snr_margin)
from .stft import FrameParams, _frame_count, write_wav

__all__ = ["RunConfig", "parse_config", "main"]

METHOD_NAMES = tuple(m.value for m in Method)

# the most points one --sweep may run; every point is validated before
# the first is run
MAX_SWEEP_POINTS = 10_000

BAND_COLUMNS = ["band", "center_hz", "alpha", "gain", "status", "penalty",
                "xi", "target_xi", "c1_ratio", "c2_ratio"]


@dataclass
class RunConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    frame_ms: float = 32.0
    mu_ref: float = 0.0
    mu_nr: float = 5.0
    a_star: float = 0.7
    delta_u_db: float = DELTA_U_DB
    delta_n_db: float = DELTA_N_DB
    n_bands: int = 30
    f_lo: float = 150.0
    f_hi: float = 8000.0
    importance_file: str = ""
    methods: list = field(default_factory=lambda: list(METHOD_NAMES))
    output_dir: str = "runs"

    def validate(self):
        """Raise ValueError for any bad value; returns the FrameParams and
        Filterbank the checks build, so a run builds them once."""
        if not 0.0 <= float(self.mu_ref) < float(self.mu_nr):
            raise ValueError("mu_ref must be nonnegative and below mu_nr "
                             "(reference keeps low distortion)")
        if not isinstance(self.methods, list) or not self.methods:
            raise ValueError("methods must be a nonempty list of names")
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise ValueError(f"unknown method: {m}")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError("methods must not repeat a name")
        if type(self.n_bands) is not int:
            raise ValueError("n_bands must be an integer")
        # delta_u_db sets constraint_bounds's C2 cap; +-inf stay meaningful
        if not (math.isinf(self.delta_u_db)
                or abs(self.delta_u_db) <= DB_LIMIT):
            raise ValueError(f"delta_u_db must lie within +-{DB_LIMIT:g} dB")
        boost_fraction(self.delta_n_db)  # ValueError unless positive
        self.scene.validate()
        # band layout, importance and target errors surface here, before
        # any write
        params = FrameParams.from_ms(self.scene.sample_rate, self.frame_ms)
        _frame_count(round(self.scene.duration * self.scene.sample_rate),
                     params)  # ValueError if shorter than one frame
        if not isinstance(self.importance_file, str):
            raise ValueError("importance_file must be a path")
        importance = None
        if self.importance_file:
            try:
                importance = load_band_importance(self.importance_file)
            except OSError as exc:
                raise ValueError(
                    f"cannot read importance_file: {exc}") from None
        fb = build_filterbank(params, self.n_bands, self.f_lo, self.f_hi,
                              importance)
        allocate_targets(self.a_star, fb)
        return params, fb


_RUN_KEYS = {f.name for f in dataclasses.fields(RunConfig)} - {"scene"}
_SCENE_KEYS = {f.name for f in dataclasses.fields(SceneConfig)}
_INT_KEYS = {f.name for f in dataclasses.fields(RunConfig)
             + dataclasses.fields(SceneConfig) if f.type is int}


def _parse_value(text):
    """One config value: number, bool, inf, bracketed array, bare string."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        parts, depth, start = [], 0, 0
        for i, ch in enumerate(inner):
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(inner[start:i])
                start = i + 1
        parts.append(inner[start:])
        return [_parse_value(p) for p in parts]
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)  # handles inf / -inf / nan spellings
    except ValueError:
        pass
    return text


def parse_pairs(text):
    """Parse flat config text into its key/value pairs, in file order."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in pairs:
            raise ValueError(f"line {lineno}: duplicate key {key}")
        pairs[key] = _parse_value(value)
    return pairs


def config_from_pairs(pairs):
    """The validated RunConfig of ``pairs`` over the defaults, with the
    FrameParams and Filterbank its validation built."""
    cfg = RunConfig()
    for key, value in pairs.items():
        if key in _SCENE_KEYS:
            setattr(cfg.scene, key, value)
        elif key in _RUN_KEYS:
            setattr(cfg, key, value)
        else:
            raise ValueError(f"unknown config key: {key}")
    try:
        return (cfg, *cfg.validate())
    except OverflowError as exc:  # an integer literal beyond float range
        raise ValueError(f"a number is beyond float range: {exc}") from None


def parse_config(text):
    """Parse flat config text into a validated RunConfig."""
    return config_from_pairs(parse_pairs(text))[0]


def config_echo(cfg):
    """Flat, fully resolved key/value view of a config.

    Feeding these pairs back through config_from_pairs reproduces the
    run, so the manifest echo is lossless.
    """

    def plain(v):
        return [plain(x) for x in v] if isinstance(v, (tuple, list)) else v

    out = {}
    for key in sorted(_SCENE_KEYS):
        out[key] = plain(getattr(cfg.scene, key))
    for key in sorted(_RUN_KEYS):
        out[key] = plain(getattr(cfg, key))
    return out


def _constraint_ratios(result, delta_u_db):
    """How close each band's delivered point sits to C1 and C2 (1.0 =
    tight); inf where the bound is zero.  Each band's bounds are
    solver.constraint_bounds's, taken in Python floats."""
    table, g2 = result.table, result.gains**2
    rhs, cap = np.array([constraint_bounds(t, delta_u_db)
                         for t in band_rows(table)]).T
    c1 = np.divide(g2 * snr_margin(table, result.alphas), rhs,
                   out=np.full_like(rhs, np.inf), where=rhs > 0.0)
    c2 = np.divide(g2 * table.noise_power(result.alphas), cap,
                   out=np.full_like(rhs, np.inf), where=cap > 0.0)
    return c1, c2


def _write_csv(path, columns):
    """Write ``columns``, a dict of equal-length sequences, as a headed
    CSV table.  csv writes each value with str, which for a float is its
    shortest round-tripping repr, so every value reads back exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*columns.values()))


def _run_methods(cfg, params, fb, scene, out_dir):
    """Run the configured methods on one synthesized ``scene``, a
    ``(signals, stats)`` pair that is only read; returns metric rows."""
    signals, stats = scene
    bset = build_beamformers(stats, cfg.mu_ref, cfg.mu_nr)

    out_dir.mkdir(parents=True, exist_ok=True)
    rate = cfg.scene.sample_rate
    write_wav(out_dir / "x_mic1.wav", rate, signals.x)

    rows = []
    for name in cfg.methods:
        if name == "joint":
            res = run_joint(stats, bset, fb, cfg.a_star, cfg.delta_u_db,
                            cfg.delta_n_db)
        elif name == "blind":
            res = run_blind_concat(stats, bset, fb, cfg.a_star)
        else:
            res = run_unprocessed(stats, fb, cfg.a_star)
        y, z = render(signals, res, params)
        report = evaluate(stats, res, fb)

        write_wav(out_dir / f"y_{name}.wav", rate, y)
        write_wav(out_dir / f"z_{name}.wav", rate, z)
        c1, c2 = _constraint_ratios(res, cfg.delta_u_db)
        # a BandStatus writes as its value
        bands = dict(zip(BAND_COLUMNS, [
            range(fb.n_bands), fb.centers_hz.tolist(), res.alphas.tolist(),
            res.gains.tolist(), res.statuses.tolist(),
            [s.penalty for s in res.band_solutions], report.xi.tolist(),
            res.table.target_snr.tolist(), c1.tolist(), c2.tolist()]))
        _write_csv(out_dir / f"bands_{name}.csv", bands)
        _write_csv(out_dir / f"bins_{name}.csv", {
            "bin": range(res.w_mp.shape[0]),
            "freq_hz": fb.bin_freqs.tolist(),
            "w_norm": np.linalg.norm(res.w_mp, axis=1).tolist(),
            "gain": res.g_mp.tolist()})

        rows.append({
            "method": name,
            "asii": float(report.asii),
            "broadband_out_snr_db": float(report.broadband_out_snr_db),
            # n_feasible, n_c1_infeasible, n_c2_infeasible, n_both_infeasible
            **{f"n_{s.name.lower()}": bands["status"].count(s)
               for s in BandStatus},
            # Python floats added left to right, as the column lists them
            "penalty_total": sum(bands["penalty"]),
        })
    return rows


def _parse_sweep(spec):
    """``key=lo:step:hi`` -> (key, {directory label: value}); integral
    values of an integer key, such as ``n_bands`` or ``seed``, are ints."""
    key, _, grid = spec.partition("=")
    key = key.strip()
    try:
        lo, step, hi = (float(p) for p in grid.split(":"))
    except ValueError:
        raise ValueError("sweep must be key=lo:step:hi") from None
    if not all(math.isfinite(p) for p in (lo, step, hi)):
        raise ValueError("sweep lo, step and hi must be finite")
    if step <= 0.0 or hi < lo:
        raise ValueError("sweep must advance from lo to hi")
    # floor((hi - lo) / step) + 1 points; an overflowing span counts as
    # too many
    if (hi - lo) / step >= MAX_SWEEP_POINTS:
        raise ValueError(f"sweep has more than {MAX_SWEEP_POINTS} points")
    points = {}
    v = lo
    while v <= hi + 1e-9 * step:
        value = round(v, 12)
        if key in _INT_KEYS and value.is_integer():
            value = int(value)
        # labels keep six significant digits; this also ends a step too
        # small to move v
        label = value if type(value) is int else format(value, "g")
        if label in points:
            raise ValueError(f"sweep points share the directory "
                             f"{key}_{label}; use a coarser step")
        points[label] = value
        v += step
    return key, points


def cmd_run(args):
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        # the overrides replace the file's values before validation
        pairs = parse_pairs(text)
        if args.seed is not None:
            pairs["seed"] = args.seed
        if args.methods is not None:
            pairs["methods"] = [m.strip() for m in args.methods.split(",")]
        if args.out is not None:
            pairs["output_dir"] = args.out
        # the base config is validated even under a sweep: the manifest
        # echoes it
        cfg, params, fb = config_from_pairs(pairs)
        out_root = Path(cfg.output_dir)
        points, sweep = [("", "", (cfg, params, fb), out_root)], None
        if args.sweep:
            key, grid = _parse_sweep(args.sweep)
            sweep = {"key": key, "values": list(grid.values())}
            # the key must exist and every point must make sense
            points = [(key, repr(v), config_from_pairs({**pairs, key: v}),
                       out_root / f"{key}_{label}")
                      for label, v in grid.items()]
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        metric_rows = []
        # consecutive points with equal scene inputs share one synthesis;
        # only the last scene is held
        scene_inputs = scene = None
        for key, value, (point, params, fb), out_dir in points:
            if (point.scene, params) != scene_inputs:
                scene = None  # release the previous scene first
                scene = synthesize_scene(point.scene, params)
                scene_inputs = (point.scene, params)
            for row in _run_methods(point, params, fb, scene, out_dir):
                metric_rows.append({"sweep_key": key, "sweep_value": value,
                                    **row})

        out_root.mkdir(parents=True, exist_ok=True)
        _write_csv(out_root / "metrics.csv",
                   {k: [r[k] for r in metric_rows] for k in metric_rows[0]})

        manifest = {
            "version": __version__,
            "seed": cfg.scene.seed,
            "config": config_echo(cfg),
            "sweep": sweep,
            "methods": cfg.methods,
        }
        with open(out_root / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a valid scene too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


def _describe(row, joint):
    """One band's line; only the joint solver's table gets notes on the
    solver's steps."""
    status = row["status"]
    alpha, gain = float(row["alpha"]), float(row["gain"])
    penalty = float(row["penalty"])
    c1, c2 = float(row["c1_ratio"]), float(row["c2_ratio"])
    tags = [f"C{i} tight" for i, c in ((1, c1), (2, c2))
            if abs(c - 1.0) <= 1e-6]
    if not joint:
        # blind and unprocessed bands report only whether the target
        # was met
        way = "reference passthrough" if penalty <= 1e-12 else "processed"
        note = f"{way}, target {'met' if status == 'Feasible' else 'missed'}"
    elif status == "Feasible" and penalty <= 1e-12:
        note = "minimum processing: reference passthrough"
    elif status == "Feasible":
        note = "processed within constraints"
    elif status == "C1Infeasible":
        note = "target unreachable: best-SNR fallback with bounded boost"
    elif status == "C2Infeasible":
        note = "noise cap unreachable: unit gain, closest SNR"
    else:
        note = f"degraded at the noise cap (g^2*noise/cap = {c2:.9f})"
    tag = f"  [{', '.join(tags)}]" if tags else ""
    return (f"band {int(row['band']):2d}  {float(row['center_hz']):7.1f} Hz  "
            f"alpha={alpha:6.4f}  g={gain:9.4f}  {status:<15s} "
            f"penalty={penalty:.3e}  {note}{tag}")


def cmd_explain(args):
    try:
        with open(args.csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read CSV: {exc}", file=sys.stderr)
        return 2
    if not rows or any(c not in rows[0] for c in BAND_COLUMNS):
        print("error: not a band-solution CSV", file=sys.stderr)
        return 2
    # the run layout names the joint solver's table bands_joint.csv
    joint = Path(args.csv).name == "bands_joint.csv"
    try:
        for row in rows:
            # DictReader keys a row's extra fields under None and fills
            # its missing ones with None
            if None in row or None in row.values():
                raise ValueError("field count differs from the header")
            print(_describe(row, joint))
    except (KeyError, ValueError) as exc:
        print(f"error: malformed CSV row: {exc}", file=sys.stderr)
        return 2
    counts = Counter(row["status"] for row in rows)
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    print(f"{len(rows)} bands ({summary})")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minproc",
        description="Joint far-end/near-end speech enhancement runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--sweep", metavar="key=lo:step:hi",
                       help="run a grid over one numeric config key")
    p_run.add_argument("--methods", metavar="a,b,...",
                       help="comma-separated subset of "
                            f"{{{','.join(METHOD_NAMES)}}}")
    p_run.add_argument("--out", metavar="DIR", help="output directory")
    p_run.add_argument("--seed", type=int, help="override the scene seed")
    p_run.set_defaults(func=cmd_run)

    p_explain = sub.add_parser("explain",
                               help="describe a band-solution CSV")
    p_explain.add_argument("csv", help="bands_<method>.csv from a run")
    p_explain.set_defaults(func=cmd_explain)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
