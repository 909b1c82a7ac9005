"""The benchmark's workloads: declared set-up, timed body, correctness checks.

Each workload is built from the seed alone, so one seed always gives
the same inputs.  ``body(tick)`` is the timed part; a body made of many
small steps calls ``tick()`` between them so that the machine's speed is
sampled while it runs (see worker.Calibrator).  ``check`` runs after the
timer stops and returns an ``Outcome``: how many operations were
attempted and failed, the quality of the joint method, and a message
per fault found.  Checks recompute what they can with the benchmark's
own arithmetic instead of reading it back from the program.
"""

import csv
import math
import shutil
from dataclasses import dataclass, field

import numpy as np
from scipy.io import wavfile

from minproc import beamform, cli, filterbank, metrics, pipeline, scene, solver
from minproc.solver import DELTA_U_DB, REL_TOL, SolverTerms
from minproc.stft import FrameParams

METHODS = ("joint", "blind", "unprocessed")


@dataclass
class Outcome:
    ops: int
    failed: int = 0
    asii_joint: float = math.nan
    log_penalty_joint: float = math.nan
    faults: list = field(default_factory=list)

    def record(self, label, faults):
        """Count one operation as failed if it has any fault."""
        if faults:
            self.failed += 1
            self.faults.extend(f"{label}: {f}" for f in faults)


def _quad(alpha, at_one, at_zero, cross):
    return at_one * alpha * alpha + at_zero * (1.0 - alpha) ** 2 \
        + cross * alpha * (1.0 - alpha)


def band_faults(terms, alpha, gain, status, joint):
    """Faults of one band decision.

    alpha lies in [0, 1] and g >= 1 except on BothInfeasible bands; a
    Feasible joint band also satisfies C1 and C2 to REL_TOL.
    """
    faults = []
    if not 0.0 <= alpha <= 1.0:
        faults.append(f"alpha {alpha!r} outside [0, 1]")
    if status != "BothInfeasible" and not gain >= 1.0 - REL_TOL:
        faults.append(f"gain {gain!r} below 1 on a {status} band")
    if joint and status == "Feasible":
        t = terms
        ds = _quad(alpha, t.ds_ref, t.ds_nr, t.ds_cross)
        du = _quad(alpha, t.du_ref, t.du_nr, t.du_cross)
        rhs = t.sigma_n2 * t.target_snr
        cap = t.sigma_n2 * 10.0 ** (DELTA_U_DB / 10.0)
        g2 = gain * gain
        if not g2 * (ds - du * t.target_snr) >= rhs * (1.0 - REL_TOL):
            faults.append("Feasible band misses C1")
        if not g2 * du <= cap * (1.0 + REL_TOL):
            faults.append("Feasible band breaks C2")
    return faults


def log_penalty(alphas, gains):
    """Mean of ln(1 + (1-alpha)^2 + (1-g)^2) over bands.

    The plain mean penalty is ruled by the few bands with gains in the
    hundreds, so it swings by tens of percent from seed to seed; the
    logarithm keeps each band's order and the mean steady.
    """
    a = np.asarray(alphas, dtype=float)
    g = np.asarray(gains, dtype=float)
    return float(np.mean(np.log1p((1.0 - a) ** 2 + (1.0 - g) ** 2)))


def _finite_faults(name, samples):
    return [] if np.all(np.isfinite(samples)) else [f"{name} has non-finite samples"]


def _asii_faults(value):
    return [] if 0.0 <= value <= 1.0 else [f"ASII {value!r} outside [0, 1]"]


class SceneRun:
    """scene_60s: the library path on one 60 s scene, no file I/O."""

    name = "scene_60s"
    ops_per_rep = len(METHODS)
    params = {"duration_s": 60.0, "methods": METHODS, "file_io": False}

    def __init__(self, seed, tiny, tmp):
        self.cfg = scene.SceneConfig(duration=1.0 if tiny else 60.0, seed=seed)
        self.frame = FrameParams.from_ms(self.cfg.sample_rate)

    def body(self, tick):
        signals, stats = scene.synthesize_scene(self.cfg, self.frame)
        tick()
        bset = beamform.build_beamformers(stats)
        fb = filterbank.build_filterbank(self.frame)
        results = [pipeline.run_joint(stats, bset, fb),
                   pipeline.run_blind_concat(stats, bset, fb),
                   pipeline.run_unprocessed(stats, fb)]
        for res in results:
            pipeline.render(signals, res, self.frame)
            metrics.evaluate(stats, res, fb)
        tick()
        return results

    def check(self, results):
        out = Outcome(self.ops_per_rep)
        for res in results:
            joint = res.method is pipeline.Method.JOINT
            faults = _finite_faults("y", res.y) + _finite_faults("z", res.z)
            faults += _asii_faults(res.report.asii)
            for j, (t, s) in enumerate(zip(res.terms, res.band_solutions)):
                faults += [f"band {j}: {f}" for f in
                           band_faults(t, s.alpha, s.gain, s.status.value, joint)]
            out.record(res.method.value, faults)
            if joint:
                out.asii_joint = res.report.asii
                out.log_penalty_joint = log_penalty(res.alphas, res.gains)
        return out


class SweepRun:
    """sweep_a_star: the documented batch use, a 5-point CLI sweep."""

    name = "sweep_a_star"
    SWEEP = "a_star=0.5:0.1:0.9"
    A_STARS = (0.5, 0.6, 0.7, 0.8, 0.9)
    ops_per_rep = len(A_STARS) * len(METHODS)
    params = {"duration_s": 10.0, "sweep": SWEEP, "methods": METHODS}

    def __init__(self, seed, tiny, tmp):
        self.seed = seed
        self.tmp = tmp
        self.config = tmp / "sweep.cfg"
        self.config.write_text(
            f"duration = {1.0 if tiny else 10.0}\n"
            "fe_noise_kind = babble_like\nfe_snr_db = 0\n"
            "ne_noise_kind = car_like\nne_snr_db = -30\n"
            "n_bands = 30\nmethods = [joint, blind, unprocessed]\n")
        self.reps = 0
        self.out = None
        self._terms = None

    def body(self, tick):
        self.reps += 1
        self.out = self.tmp / f"out{self.reps}"
        return cli.main(["run", str(self.config), "--sweep", self.SWEEP,
                         "--seed", str(self.seed), "--out", str(self.out)])

    def _joint_terms(self):
        """Band terms per sweep point, from the same config, untimed."""
        if self._terms is None:
            cfg = cli.parse_config(self.config.read_text())
            cfg.scene.seed = self.seed
            params = FrameParams.from_ms(cfg.scene.sample_rate, cfg.frame_ms)
            _, stats = scene.synthesize_scene(cfg.scene, params)
            bset = beamform.build_beamformers(stats, cfg.mu_ref, cfg.mu_nr)
            fb = filterbank.build_filterbank(params, cfg.n_bands, cfg.f_lo,
                                             cfg.f_hi)
            self._terms = {}
            for a_star in self.A_STARS:
                _, snrs = filterbank.allocate_targets(a_star, fb)
                self._terms[a_star] = [solver.band_terms(stats, bset, fb, j, snrs[j])
                                       for j in range(fb.n_bands)]
        return self._terms

    def check(self, code):
        try:
            return self._check(code)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def _check(self, code):
        out = Outcome(self.ops_per_rep)
        if code != 0:
            out.failed = out.ops
            out.faults.append(f"exit code {code}")
            return out
        points = {f"a_star_{a:g}": a for a in self.A_STARS}
        expected_root = set(points) | {"metrics.csv", "manifest.json"}
        found_root = {p.name for p in self.out.iterdir()}
        root_faults = [] if found_root == expected_root else [
            f"artifact set {sorted(found_root)} != {sorted(expected_root)}"]
        with open(self.out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.ops_per_rep:
            root_faults.append(f"{len(rows)} rows in metrics.csv, "
                               f"expected {self.ops_per_rep}")
        by_key = {(float(r["sweep_value"]), r["method"]): r for r in rows}

        expected = {"x_mic1.wav"} | {f"{kind}_{m}.{ext}" for m in METHODS
                                     for kind, ext in (("y", "wav"), ("z", "wav"),
                                                       ("bands", "csv"),
                                                       ("bins", "csv"))}
        asiis, alphas, gains = [], [], []
        terms = self._joint_terms()
        for dirname, a_star in points.items():
            sub = self.out / dirname
            found = {p.name for p in sub.iterdir()} if sub.is_dir() else set()
            point_faults = list(root_faults)
            if found != expected:
                point_faults.append(f"{dirname} holds {sorted(found)}")
                for m in METHODS:
                    out.record(f"{dirname}/{m}", point_faults)
                continue
            point_faults += _finite_faults("x_mic1.wav",
                                           wavfile.read(sub / "x_mic1.wav")[1])
            for m in METHODS:
                faults = list(point_faults)
                for kind in ("y", "z"):
                    faults += _finite_faults(f"{kind}_{m}.wav",
                                             wavfile.read(sub / f"{kind}_{m}.wav")[1])
                row = by_key.get((a_star, m))
                if row is None:
                    faults.append("no metrics.csv row")
                else:
                    faults += _asii_faults(float(row["asii"]))
                with open(sub / f"bands_{m}.csv", newline="") as fh:
                    bands = list(csv.DictReader(fh))
                joint = m == "joint"
                if len(bands) != len(terms[a_star]):
                    faults.append(f"{len(bands)} rows in bands_{m}.csv")
                for j, (t, b) in enumerate(zip(terms[a_star], bands)):
                    alpha, gain = float(b["alpha"]), float(b["gain"])
                    faults += [f"band {j}: {f}" for f in
                               band_faults(t, alpha, gain, b["status"], joint)]
                    if joint:
                        alphas.append(alpha)
                        gains.append(gain)
                if joint and row is not None:
                    asiis.append(float(row["asii"]))
                out.record(f"{dirname}/{m}", faults)
        if asiis:
            out.asii_joint = float(np.mean(asiis))
            out.log_penalty_joint = log_penalty(alphas, gains)
        return out


def random_terms(rng, n):
    """n band terms with the distribution of the test oracle's
    random_terms: log-uniform powers, cross terms 2*rho*sqrt(product)
    with |rho| < 0.95, and a target SNR log-uniform over 1e-2 .. 1e1."""
    powers = 10.0 ** rng.uniform(-4.0, 2.0, size=(n, 4))
    rho = rng.uniform(-0.95, 0.95, size=(n, 2))
    sigma_n2 = 10.0 ** rng.uniform(-4.0, 2.0, size=n)
    target = 10.0 ** rng.uniform(-2.0, 1.0, size=n)
    out = []
    for (ds_ref, ds_nr, du_ref, du_nr), (rho_s, rho_u), sn2, snr in zip(
            powers.tolist(), rho.tolist(), sigma_n2.tolist(), target.tolist()):
        out.append(SolverTerms(
            ds_ref=ds_ref, ds_nr=ds_nr,
            ds_cross=2.0 * rho_s * math.sqrt(ds_ref * ds_nr),
            du_ref=du_ref, du_nr=du_nr,
            du_cross=2.0 * rho_u * math.sqrt(du_ref * du_nr),
            sigma_n2=sn2, target_snr=snr))
    return out


class SolveRandom:
    """solve_random: solve_band on random terms that reach every status."""

    name = "solve_random"
    BANDS = 20000
    CHUNK = 500  # bands between calibration ticks, about 0.1 s
    params = {"bands": BANDS, "target_log10_span": (-2.0, 1.0)}

    def __init__(self, seed, tiny, tmp):
        self.terms = random_terms(np.random.default_rng(seed),
                                  300 if tiny else self.BANDS)
        self.ops_per_rep = len(self.terms)

    def body(self, tick):
        out = []
        for i in range(0, len(self.terms), self.CHUNK):
            out.extend(solver.solve_band(t) for t in self.terms[i:i + self.CHUNK])
            tick()
        return out

    def check(self, solutions):
        out = Outcome(self.ops_per_rep)
        xis = []
        for j, (t, s) in enumerate(zip(self.terms, solutions)):
            out.record(f"band {j}",
                       band_faults(t, s.alpha, s.gain, s.status.value, True))
            g2 = s.gain * s.gain
            ds = _quad(s.alpha, t.ds_ref, t.ds_nr, t.ds_cross)
            du = _quad(s.alpha, t.du_ref, t.du_nr, t.du_cross)
            den = g2 * du + t.sigma_n2
            xis.append(g2 * ds / den if den > 0.0 else 0.0)
        xi = np.asarray(xis)
        out.asii_joint = float(np.mean(xi / (1.0 + xi)))
        out.log_penalty_joint = log_penalty([s.alpha for s in solutions],
                                            [s.gain for s in solutions])
        return out


WORKLOADS = {w.name: w for w in (SceneRun, SweepRun, SolveRandom)}
