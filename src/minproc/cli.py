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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .beamform import build_beamformers
from .filterbank import (allocate_targets, build_filterbank,
                         load_band_importance)
from .metrics import evaluate
from .pipeline import render, run_blind_concat, run_joint, run_unprocessed
from .scene import DB_LIMIT, SceneConfig, synthesize_scene
from .solver import BandStatus, constraint_bounds, snr_margin
from .stft import FrameParams, write_wav

__all__ = ["RunConfig", "parse_config", "main"]

METHOD_NAMES = ("joint", "blind", "unprocessed")

BAND_COLUMNS = ["band", "center_hz", "alpha", "gain", "status", "penalty",
                "xi", "target_xi", "c1_ratio", "c2_ratio"]


@dataclass
class RunConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    frame_ms: float = 32.0
    mu_ref: float = 0.0
    mu_nr: float = 5.0
    a_star: float = 0.7
    delta_u_db: float = 12.0
    delta_n_db: float = 10.0
    n_bands: int = 30
    f_lo: float = 150.0
    f_hi: float = 8000.0
    importance_file: str = ""
    methods: list = field(default_factory=lambda: list(METHOD_NAMES))
    output_dir: str = "runs"

    def validate(self):
        if not self.mu_ref < self.mu_nr:
            raise ValueError("mu_ref must be below mu_nr "
                             "(reference keeps low distortion)")
        if not self.methods:
            raise ValueError("methods must not be empty")
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise ValueError(f"unknown method: {m}")
        if type(self.n_bands) is not int:
            raise ValueError("n_bands must be an integer")
        # the C2 cap is sigma_n2 * 10^(delta_u_db/10); +-inf stay meaningful
        if not (math.isinf(self.delta_u_db)
                or abs(self.delta_u_db) <= DB_LIMIT):
            raise ValueError(f"delta_u_db must lie within +-{DB_LIMIT:g} dB")
        # fallback_c1's boost fraction 10^(-delta_n_db/10) must lie in
        # (0, 1); max() keeps the power from overflowing
        if not 0.0 < 10.0 ** (-max(self.delta_n_db, 0.0) / 10.0) < 1.0:
            raise ValueError("delta_n_db must be positive")
        if type(self.scene.seed) is not int or self.scene.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        self.scene.validate()
        # band layout, importance and target errors surface here, before
        # any write
        params = FrameParams.from_ms(self.scene.sample_rate, self.frame_ms)
        if round(self.scene.duration * self.scene.sample_rate) \
                < params.frame_len:
            raise ValueError("insufficient samples: duration is shorter "
                             "than one frame")
        allocate_targets(self.a_star, build_filterbank(
            params, self.n_bands, self.f_lo, self.f_hi, self.importance()))

    def importance(self):
        """The band-importance table, or None for uniform weights."""
        if not isinstance(self.importance_file, str):
            raise ValueError("importance_file must be a path")
        if not self.importance_file:
            return None
        try:
            return load_band_importance(self.importance_file)
        except OSError as exc:
            raise ValueError(f"cannot read importance_file: {exc}") from None


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


def parse_config(text):
    """Parse flat config text into a validated RunConfig."""
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
    return config_from_pairs(pairs)


def _set_key(cfg, key, value):
    if key in _SCENE_KEYS:
        setattr(cfg.scene, key, value)
    elif key in _RUN_KEYS:
        setattr(cfg, key, value)
    else:
        raise ValueError(f"unknown config key: {key}")


def config_from_pairs(pairs):
    cfg = RunConfig()
    for key, value in pairs.items():
        _set_key(cfg, key, value)
    cfg.validate()
    return cfg


def config_echo(cfg):
    """Flat, fully resolved key/value view of a config.

    Feeding these pairs back through config_from_pairs reproduces the
    run, so the manifest echo is lossless.
    """

    def plain(v):
        if isinstance(v, (tuple, list)):
            return [plain(x) for x in v]
        if isinstance(v, (np.floating, np.integer)):
            return v.item()
        return v

    out = {}
    for key in sorted(_SCENE_KEYS):
        out[key] = plain(getattr(cfg.scene, key))
    for key in sorted(_RUN_KEYS):
        out[key] = plain(getattr(cfg, key))
    return out


def _constraint_ratios(terms, sol, delta_u_db):
    """How close the delivered point sits to C1 and C2 (1.0 = tight)."""
    g2 = sol.gain**2
    rhs1, cap = constraint_bounds(terms, delta_u_db)
    lhs1 = g2 * snr_margin(terms, sol.alpha)
    c1 = lhs1 / rhs1 if rhs1 > 0.0 else float("inf")
    lhs2 = g2 * terms.noise_power(sol.alpha)
    c2 = lhs2 / cap if cap > 0.0 else float("inf")
    return c1, c2


def _write_band_csv(path, result, fb, delta_u_db):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BAND_COLUMNS)
        for j, (sol, terms) in enumerate(zip(result.band_solutions,
                                             result.terms)):
            c1, c2 = _constraint_ratios(terms, sol, delta_u_db)
            writer.writerow([j, repr(float(fb.centers_hz[j])),
                             repr(sol.alpha), repr(sol.gain),
                             sol.status.value, repr(sol.penalty),
                             repr(sol.xi), repr(float(result.target_snrs[j])),
                             repr(float(c1)), repr(float(c2))])


def _write_bin_csv(path, result, fb):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin", "freq_hz", "w_norm", "gain"])
        norms = np.linalg.norm(result.w_mp, axis=1)
        for k in range(result.w_mp.shape[0]):
            writer.writerow([k, repr(float(fb.bin_freqs[k])),
                             repr(float(norms[k])),
                             repr(float(result.g_mp[k]))])


def _run_methods(cfg, params, scene, importance, out_dir):
    """Run the configured methods on one synthesized ``scene``, a
    ``(signals, stats)`` pair that is only read; returns metric rows."""
    signals, stats = scene
    bset = build_beamformers(stats, cfg.mu_ref, cfg.mu_nr)
    fb = build_filterbank(params, cfg.n_bands, cfg.f_lo, cfg.f_hi, importance)

    out_dir.mkdir(parents=True, exist_ok=True)
    rate = cfg.scene.sample_rate
    write_wav(out_dir / "x_mic1.wav", rate, signals.x[0])

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
        _write_band_csv(out_dir / f"bands_{name}.csv", res, fb,
                        cfg.delta_u_db)
        _write_bin_csv(out_dir / f"bins_{name}.csv", res, fb)

        statuses = [s.status for s in res.band_solutions]
        rows.append({
            "method": name,
            "asii": repr(float(report.asii)),
            "broadband_out_snr_db": repr(float(report.broadband_out_snr_db)),
            "n_feasible": statuses.count(BandStatus.FEASIBLE),
            "n_c1_infeasible": statuses.count(BandStatus.C1_INFEASIBLE),
            "n_c2_infeasible": statuses.count(BandStatus.C2_INFEASIBLE),
            "n_both_infeasible": statuses.count(BandStatus.BOTH_INFEASIBLE),
            "penalty_total": repr(float(sum(s.penalty
                                            for s in res.band_solutions))),
        })
    return rows


def _parse_sweep(spec):
    """``key=lo:step:hi`` -> (key, values); integral values of an integer
    key become ints, so ``n_bands`` and ``seed`` can be swept."""
    key, _, grid = spec.partition("=")
    key = key.strip()
    try:
        lo, step, hi = (float(p) for p in grid.split(":"))
    except ValueError:
        raise ValueError("sweep must be key=lo:step:hi") from None
    if step <= 0.0 or hi < lo:
        raise ValueError("sweep must advance from lo to hi")
    values = []
    v = lo
    while v <= hi + 1e-9 * step:
        values.append(round(v, 12))
        v += step
    if key in _INT_KEYS:
        values = [int(x) if x.is_integer() else x for x in values]
    return key, values


def cmd_run(args):
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        if args.seed is not None:
            cfg.scene.seed = args.seed
        if args.methods is not None:
            cfg.methods = [m.strip() for m in args.methods.split(",")]
        if args.out is not None:
            cfg.output_dir = args.out
        cfg.validate()
        out_root = Path(cfg.output_dir)
        points, sweep = [("", "", cfg, out_root)], None
        if args.sweep:
            key, values = _parse_sweep(args.sweep)
            sweep = {"key": key, "values": values}
            # the key must exist and every point must make sense
            points = []
            for v in values:
                point = dataclasses.replace(
                    cfg, scene=dataclasses.replace(cfg.scene))
                _set_key(point, key, v)
                point.validate()
                label = v if type(v) is int else format(v, "g")
                out_dir = out_root / f"{key}_{label}"
                # labels keep six significant digits; a finer grid
                # would write two points into one directory
                if any(out_dir == d for *_, d in points):
                    raise ValueError(f"sweep points share the directory "
                                     f"{out_dir.name}; use a coarser step")
                points.append((key, repr(v), point, out_dir))
        # a sweep over importance_file fails validation, so one table
        # serves every point
        importance = cfg.importance()
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        metric_rows = []
        # consecutive points with equal scene inputs share one synthesis;
        # only the last scene is held
        scene_inputs = scene = None
        for key, value, point, out_dir in points:
            params = FrameParams.from_ms(point.scene.sample_rate,
                                         point.frame_ms)
            if (point.scene, params) != scene_inputs:
                scene = None  # release the previous scene first
                scene = synthesize_scene(point.scene, params)
                scene_inputs = (point.scene, params)
            for row in _run_methods(point, params, scene, importance,
                                    out_dir):
                metric_rows.append({"sweep_key": key, "sweep_value": value,
                                    **row})

        out_root.mkdir(parents=True, exist_ok=True)
        with open(out_root / "metrics.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(metric_rows[0]))
            writer.writeheader()
            writer.writerows(metric_rows)

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
    return 0


def _describe(row):
    status = row["status"]
    alpha, gain = float(row["alpha"]), float(row["gain"])
    penalty = float(row["penalty"])
    c1, c2 = float(row["c1_ratio"]), float(row["c2_ratio"])
    tags = []
    if abs(c1 - 1.0) <= 1e-6:
        tags.append("C1 tight")
    if abs(c2 - 1.0) <= 1e-6:
        tags.append("C2 tight")
    if status == "Feasible" and penalty <= 1e-12:
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
        with open(args.csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        print(f"error: cannot read CSV: {exc}", file=sys.stderr)
        return 2
    if not rows or any(c not in rows[0] for c in BAND_COLUMNS):
        print("error: not a band-solution CSV", file=sys.stderr)
        return 2
    try:
        for row in rows:
            print(_describe(row))
    except (KeyError, ValueError) as exc:
        print(f"error: malformed CSV row: {exc}", file=sys.stderr)
        return 2
    counts = {}
    for row in rows:
        counts[row["status"]] = counts.get(row["status"], 0) + 1
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
