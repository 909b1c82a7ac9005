"""End-to-end tests for the batch runner and the explain command."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minproc.cli
from minproc.cli import (BAND_COLUMNS, METHOD_NAMES, config_echo,
                         config_from_pairs, main, parse_config)
from minproc.metrics import evaluate
from minproc.scene import SOURCE_KINDS
from minproc.solver import SolverTerms, band_rows, constraint_bounds

BASE = """
# short scene so the suite stays fast
duration = 1.0
fe_snr_db = 0
ne_snr_db = -30
seed = 3
"""

NOISE_FREE = """
duration = 1.0
fe_snr_db = inf
mic_selfnoise_snr_db = inf
ne_snr_db = inf
"""


def write_cfg(tmp_path, text=BASE, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_script(script, argv, timeout):
    """Python ``script`` with ``argv`` in a fresh process that imports
    this package, killed after ``timeout`` seconds."""
    src = str(Path(minproc.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          env=env, capture_output=True, text=True,
                          timeout=timeout)


# minproc's main under a 2 GiB address-space limit
LIMITED_RUN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from minproc import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_config_parsing_round_trip(tmp_path):
    cfg = parse_config("""
        duration = 2.5          # trailing comment
        seed = 7
        fe_noise_kind = car_like
        mic_selfnoise_snr_db = inf
        methods = [joint, unprocessed]
        mic_positions = [[0, 0, 1], [0.1, 0, 1]]
        a_star = 0.5
    """)
    assert cfg.scene.duration == 2.5
    assert cfg.scene.seed == 7
    assert cfg.scene.fe_noise_kind == "car_like"
    assert cfg.scene.mic_selfnoise_snr_db == float("inf")
    assert cfg.methods == ["joint", "unprocessed"]
    assert cfg.scene.mic_positions == [[0, 0, 1], [0.1, 0, 1]]
    assert cfg.a_star == 0.5


# (config text, the key its error names): geometry, physics, mu_ref,
# mu_nr, frame_ms, methods, importance_file and delta_n_db errors that
# must exit 2 before any write
REJECTED_KEYS = (
    ("talker_pos = [1.5, 2.0, 1.0]", "talker_pos"),
    ("noise_positions = [[1.5, 2.02, 1.0]]", "noise_positions"),
    ("talker_pos = [nan, 3.0, 1.0]", "talker_pos"),
    ("noise_positions = [[0.5, inf, 1.0]]", "noise_positions"),
    ("mic_positions = [[1.5, 2.0, -inf], [1.5, 2.02, 1.0]]",
     "mic_positions"),
    ("speed_of_sound = 0", "speed_of_sound"),
    ("speed_of_sound = nan", "speed_of_sound"),
    ("speed_of_sound = inf", "speed_of_sound"),
    ("speed_of_sound = -343", "speed_of_sound"),
    ("mu_ref = -1", "mu_ref"),
    ("mu_ref = -inf", "mu_ref"),
    ("mu_nr = nan", "mu_nr"),
    ("mu_nr = -inf", "mu_nr"),
    ("mu_nr = 0", "mu_nr"),
    ("mu_nr = -1", "mu_nr"),
    ("frame_ms = inf", "frame_ms"),
    ("frame_ms = nan", "frame_ms"),
    ("frame_ms = 0", "frame_ms"),
    ("frame_ms = 1e305", "frame_ms"),
    ("methods = joint", "methods"),
    ("methods = [joint, joint]", "methods"),
    ("importance_file = 3", "importance_file"),
    ("delta_n_db = -1", "delta_n_db"),
    # 10^(-inf / 10) = 0 leaves no boost fraction
    ("delta_n_db = inf", "delta_n_db"),
    ("mic_positions = [[0, 0, 0], [0.02, 0, 0]]\n"
     "talker_pos = [1e-160, 0, 0]", "talker_pos"),
    ("noise_positions = [[1e300, 0, 1]]", "noise_positions"),
    # so slow a medium that the phase 2*pi*f*r/c overflows
    ("speed_of_sound = 1e-305", "speed_of_sound"),
    # a scene whose float32 WAV would exceed the RIFF size limit
    ("duration = 1e12", "duration"),
    # a rate whose mono byte rate 4 * sample_rate overflows the WAV
    # header's 32-bit field
    ("duration = 0.0002\nsample_rate = 1073741824\nframe_ms = 0.1\n"
     "f_lo = 100000\nf_hi = 500000000", "sample_rate"),
)

# true and false are bare strings, which no numeric key takes
BOOLEANS = ("duration = true", "fe_snr_db = false", "ne_snr_db = true",
            "a_star = false", "mu_nr = true", "talker_pos = [1.5, 3.0, true]")

# integer literals beyond float range, one in each kind of float key
HUGE = "1" + "0" * 400
OVERFLOWING = tuple(f"{key} = {value}" for key, value in (
    ("speed_of_sound", HUGE), ("fe_snr_db", HUGE), ("delta_u_db", HUGE),
    ("delta_n_db", HUGE), ("frame_ms", HUGE), ("mu_nr", HUGE),
    ("duration", HUGE), ("sample_rate", HUGE),
    ("talker_pos", f"[{HUGE}, 3.0, 1.0]"),
    ("mic_positions", f"[[1.5, 2.0, -{HUGE}], [1.5, 2.02, 1.0]]")))


def test_config_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config("not_a_key = 1")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config("seed = 1\nseed = 2")
    with pytest.raises(ValueError, match="key = value"):
        parse_config("just some words")
    with pytest.raises(ValueError, match="mu_ref"):
        parse_config("mu_ref = 9\nmu_nr = 5")
    with pytest.raises(ValueError, match="methods"):
        parse_config("methods = []")
    # keys removed in 0.2.0, as a 0.1.0 manifest echoes them
    for text, match in (("grid_n = 2001", "unknown config key: grid_n"),
                        ("room_dims = [3.0, 4.0, 3.0]",
                         "unknown config key: room_dims"),
                        ("n_bands = 2.0", "n_bands"),
                        ("seed = -1", "seed"), ("seed = 1.5", "seed"),
                        ("n_bands = 200", "empty band"),
                        ("n_bands = 1", "at least two bands"),
                        ("talker_pos = [1.5, 3.0]", "talker position"),
                        ("noise_positions = [[1.5, 2.0]]", "noise position"),
                        ("a_star = 1.5", "target"),
                        ("fe_snr_db = -inf", "fe_snr_db"),
                        ("ne_snr_db = -inf", "ne_snr_db"),
                        ("mic_selfnoise_snr_db = -inf", "mic_selfnoise"),
                        ("fe_snr_db = 4000", "fe_snr_db"),
                        ("ne_snr_db = -4000", "ne_snr_db"),
                        ("mic_selfnoise_snr_db = 1e6", "mic_selfnoise"),
                        ("delta_u_db = 4000", "delta_u_db"),
                        ("delta_u_db = nan", "delta_u_db"),
                        ("duration = nan", "duration"),
                        ("duration = inf", "duration"),
                        ("duration = 0.01", "shorter than one frame"),
                        ("sample_rate = nan", "sample rate"),
                        ("sample_rate = 16000.0", "sample rate"),
                        *REJECTED_KEYS,
                        *((text, "beyond float range")
                          for text in OVERFLOWING)):
        with pytest.raises(ValueError, match=match):
            parse_config(text)
    # +inf keeps its meaning: that noise is absent
    assert parse_config("ne_snr_db = inf").scene.ne_snr_db == float("inf")


def test_run_writes_all_artifacts(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    expected = {"x_mic1.wav", "metrics.csv", "manifest.json"}
    for m in ("joint", "blind", "unprocessed"):
        expected |= {f"y_{m}.wav", f"z_{m}.wav",
                     f"bands_{m}.csv", f"bins_{m}.csv"}
    assert expected <= names
    rows = (out / "metrics.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 3  # header + one row per method


def test_same_seed_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", str(cfg), "--out", str(out_b)]) == 0
    for name in ("metrics.csv", "bands_joint.csv", "bins_blind.csv",
                 "y_joint.wav"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out_a), "--seed", "11"]) == 0
    assert main(["run", str(cfg), "--out", str(out_b), "--seed", "12"]) == 0
    assert (out_a / "y_joint.wav").read_bytes() \
        != (out_b / "y_joint.wav").read_bytes()


def test_sweep_rows_and_subdirs(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sweep"
    code = main(["run", str(cfg), "--out", str(out), "--methods",
                 "joint,blind", "--sweep", "fe_snr_db=-10:10:10"])
    assert code == 0
    for sub in ("fe_snr_db_-10", "fe_snr_db_0", "fe_snr_db_10"):
        assert (out / sub / "bands_joint.csv").exists()
        assert not (out / sub / "bands_unprocessed.csv").exists()
    rows = (out / "metrics.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 3 * 2  # three grid points, two methods
    assert rows[1].startswith("fe_snr_db,-10.0,joint,")


def test_sweep_over_integer_keys(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "bands"
    assert main(["run", str(cfg), "--out", str(out), "--methods", "joint",
                 "--sweep", "n_bands=20:5:30"]) == 0
    for n in (20, 25, 30):
        table = (out / f"n_bands_{n}" / "bands_joint.csv").read_text()
        assert len(table.strip().splitlines()) == 1 + n
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sweep"] == {"key": "n_bands", "values": [20, 25, 30]}

    # seed changes the scene, so no point may reuse another's
    out = tmp_path / "seeds"
    assert main(["run", str(cfg), "--out", str(out), "--methods",
                 "unprocessed", "--sweep", "seed=0:1:2"]) == 0
    inputs = {(out / f"seed_{s}" / "x_mic1.wav").read_bytes()
              for s in range(3)}
    assert len(inputs) == 3


def _freeze(obj):
    """Make every array of a (nested) dataclass read-only."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        elif dataclasses.is_dataclass(value):
            _freeze(value)


@pytest.fixture
def scene_calls(monkeypatch):
    """Record the CLI's synthesize_scene calls; the scenes it hands out
    are read-only, so an in-place write into a shared scene fails."""
    calls = []
    real = minproc.cli.synthesize_scene

    def frozen(cfg, params):
        calls.append(cfg)
        signals, stats = real(cfg, params)
        _freeze(signals)
        _freeze(stats)
        return signals, stats

    monkeypatch.setattr(minproc.cli, "synthesize_scene", frozen)
    return calls


@pytest.mark.parametrize("sweep, scenes", [("a_star=0.5:0.1:0.7", 1),
                                           ("fe_snr_db=-10:10:10", 3)])
def test_sweep_synthesizes_each_scene_once(tmp_path, scene_calls, sweep,
                                           scenes):
    cfg = write_cfg(tmp_path)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"),
                 "--sweep", sweep]) == 0
    assert len(scene_calls) == scenes


def test_reused_scene_matches_standalone_run(tmp_path, scene_calls):
    sweep = tmp_path / "sweep"
    assert main(["run", str(write_cfg(tmp_path)), "--out", str(sweep),
                 "--sweep", "a_star=0.5:0.1:0.7"]) == 0
    alone = tmp_path / "alone"
    cfg = write_cfg(tmp_path, BASE + "a_star = 0.7\n", name="alone.cfg")
    assert main(["run", str(cfg), "--out", str(alone)]) == 0
    assert len(scene_calls) == 2
    point = sweep / "a_star_0.7"  # the third point, on a reused scene
    names = sorted(p.name for p in point.iterdir())
    assert len(names) == 1 + 4 * 3  # x_mic1.wav plus four files a method
    for name in names:
        assert (point / name).read_bytes() == (alone / name).read_bytes()


@pytest.fixture
def filterbank_calls(monkeypatch):
    """Record the CLI's build_filterbank calls."""
    calls = []
    real = minproc.cli.build_filterbank

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(minproc.cli, "build_filterbank", recording)
    return calls


def test_sweep_builds_each_filterbank_once(tmp_path, filterbank_calls):
    # one for the base config, one for each point, none again to run it
    assert main(["run", str(write_cfg(tmp_path)), "--out",
                 str(tmp_path / "out"), "--methods", "unprocessed",
                 "--sweep", "a_star=0.5:0.1:0.9"]) == 0
    assert len(filterbank_calls) == 6


def test_overrides_replace_invalid_file_values(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("seed = 3", "seed = -1"))
    out = tmp_path / "seed"
    assert main(["run", str(cfg), "--out", str(out), "--seed", "3",
                 "--methods", "unprocessed"]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 3
    cfg = write_cfg(tmp_path, BASE + "methods = [joint, psycho]\n",
                    name="methods.cfg")
    assert main(["run", str(cfg), "--out", str(tmp_path / "methods"),
                 "--methods", "joint"]) == 0


def test_manifest_reproduces_run(tmp_path):
    cfg = write_cfg(tmp_path)
    out_a = tmp_path / "a"
    assert main(["run", str(cfg), "--out", str(out_a)]) == 0
    manifest = json.loads((out_a / "manifest.json").read_text())

    def fmt(v):
        if isinstance(v, list):
            return "[" + ", ".join(fmt(x) for x in v) + "]"
        if isinstance(v, bool):
            return "true" if v else "false"
        return repr(v) if isinstance(v, float) else str(v)

    lines = [f"{k} = {fmt(v)}" for k, v in manifest["config"].items()
             if k != "output_dir"]
    cfg2 = write_cfg(tmp_path, "\n".join(lines), name="echo.cfg")
    out_b = tmp_path / "b"
    assert main(["run", str(cfg2), "--out", str(out_b)]) == 0
    assert (out_a / "metrics.csv").read_bytes() \
        == (out_b / "metrics.csv").read_bytes()
    assert manifest["seed"] == 3
    assert manifest["sweep"] is None


def _levels(lo, hi):
    return st.one_of(st.floats(lo, hi), st.just(math.inf))


@st.composite
def valid_pairs(draw):
    """A few config keys set to valid values, the rest left default."""
    values = {
        "duration": st.floats(0.1, 5.0),
        "seed": st.integers(0, 2**31),
        "fe_noise_kind": st.sampled_from(sorted(SOURCE_KINDS)),
        "ne_noise_kind": st.sampled_from(sorted(SOURCE_KINDS)),
        "fe_snr_db": _levels(-300.0, 300.0),
        "ne_snr_db": _levels(-300.0, 300.0),
        "mic_selfnoise_snr_db": _levels(-300.0, 300.0),
        # above the default mics' plane z = 1, so never at a mic
        "talker_pos": st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0),
                                st.floats(2.0, 5.0)).map(list),
        "mu_ref": st.floats(0.0, 4.5),
        "mu_nr": st.one_of(st.floats(5.0, 1000.0), st.just(math.inf)),
        "a_star": st.floats(0.0, 0.99),
        "delta_u_db": st.one_of(st.floats(-300.0, 300.0),
                                st.sampled_from([math.inf, -math.inf])),
        "delta_n_db": st.floats(0.1, 100.0),
        "n_bands": st.integers(2, 30),
        "frame_ms": st.sampled_from([16.0, 32.0, 64.0]),
        "methods": st.lists(st.sampled_from(METHOD_NAMES), min_size=1,
                            unique=True),
        "output_dir": st.sampled_from(["runs", "out/a"]),
    }
    keys = draw(st.lists(st.sampled_from(sorted(values)), max_size=6,
                         unique=True))
    return {key: draw(values[key]) for key in keys}


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(pairs=valid_pairs())
def test_config_echo_round_trips(pairs):
    # the manifest echo, fed back as pairs, resolves to the same config
    echo = config_echo(config_from_pairs(pairs)[0])
    assert config_echo(config_from_pairs(echo)[0]) == echo


def test_exit_codes(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("duration = 1.0  # caf\u00e9\n".encode("latin-1"))
    out = tmp_path / "never"
    assert main(["run", str(latin1), "--out", str(out)]) == 2
    assert not out.exists()
    bad = write_cfg(tmp_path, "no_such_key = 1", name="bad.cfg")
    assert main(["run", str(bad)]) == 2
    ok = write_cfg(tmp_path)
    assert main(["run", str(ok), "--methods", "joint,psycho"]) == 2
    assert main(["run", str(ok), "--sweep", "fe_snr_db=0:1"]) == 2
    assert main(["run", str(ok), "--sweep", "methods=0:1:2"]) == 2
    assert main(["run", str(ok), "--seed", "-1"]) == 2
    assert main(["run", str(ok), "--sweep", "a_star=0.5:0.3:1.1"]) == 2
    # the manifest echoes the base config, so it must be valid even where
    # every sweep point replaces the value
    bad = write_cfg(tmp_path, BASE + "a_star = 1.0\n", name="bad.cfg")
    out = tmp_path / "never"
    assert main(["run", str(bad), "--out", str(out),
                 "--sweep", "a_star=0.5:0.2:0.9"]) == 2
    assert not out.exists()
    negative = tmp_path / "negative.txt"
    negative.write_text("200 1\n1000 -1\n4000 1\n")
    one_column = tmp_path / "one_column.txt"
    one_column.write_text("1\n2\n")
    for key, text in (("grid_n", "grid_n = 2001"),
                      ("room_dims", "room_dims = [3.0, 4.0, 3.0]")):
        capsys.readouterr()
        bad = write_cfg(tmp_path, text, name="bad.cfg")
        out = tmp_path / "never"
        assert main(["run", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert f"unknown config key: {key}" in capsys.readouterr().err
    for text in ("n_bands = 2.0", "seed = -1", "n_bands = 1",
                 "n_bands = 200", "fe_snr_db = -inf", "ne_snr_db = -inf",
                 "mic_selfnoise_snr_db = -inf", "a_star = 1.5",
                 "fe_snr_db = 4000", "delta_u_db = 4000",
                 "duration = nan", "duration = 0.01", "sample_rate = nan",
                 f"importance_file = {tmp_path / 'missing.txt'}",
                 f"importance_file = {negative}",
                 f"importance_file = {one_column}", *BOOLEANS,
                 *OVERFLOWING):
        if not text.startswith("duration"):
            text = "duration = 1.0\n" + text
        bad = write_cfg(tmp_path, text, name="bad.cfg")
        out = tmp_path / "never"
        assert main(["run", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
    for text, key in REJECTED_KEYS:
        capsys.readouterr()
        if not text.startswith("duration"):
            text = "duration = 1.0\n" + text
        bad = write_cfg(tmp_path, text, name="bad.cfg")
        out = tmp_path / "never"
        assert main(["run", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert key in capsys.readouterr().err
    out = tmp_path / "never"
    assert main(["run", str(ok), "--out", str(out),
                 "--methods", "joint,joint"]) == 2
    assert not out.exists()
    assert "methods" in capsys.readouterr().err
    assert main(["run", str(ok), "--sweep", "n_bands=20:2.5:25"]) == 2
    # grids that are not finite, that do not advance from lo to hi, or
    # whose step is too small to move a point and so would never reach hi
    for grid in ("nan:0.1:0.9", "-inf:0.1:0.9", "0.5:inf:0.9",
                 "0.5:0.1:inf", "0.9:0.1:0.5", "0.5:0:0.9",
                 "0.5:1e-20:0.9"):
        capsys.readouterr()
        out = tmp_path / "never"
        assert main(["run", str(ok), "--out", str(out),
                     "--sweep", f"a_star={grid}"]) == 2
        assert not out.exists()
        assert "sweep" in capsys.readouterr().err
    # points closer than the six-digit directory labels would share one
    out = tmp_path / "never"
    assert main(["run", str(ok), "--out", str(out), "--sweep",
                 "a_star=0.1:0.0000001:0.1000002"]) == 2
    assert not out.exists()
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["run", str(ok), "--out", str(blocker / "sub")]) == 3
    capsys.readouterr()  # drop accumulated error messages
    # grids of too many points: an integer key over a huge range, and a
    # float grid with a tiny step; each in a process of its own under a
    # timeout and an address-space limit, so an endless grid fails the
    # test instead of hanging it
    for grid in ("seed=0:1:1e12", "a_star=0.0:1e-6:0.9"):
        out = tmp_path / "never"
        proc = run_script(LIMITED_RUN, ["run", ok, "--out", out,
                                        "--sweep", grid], timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "sweep has more than" in proc.stderr
        assert not out.exists()


def test_out_of_memory_is_a_run_error(tmp_path, monkeypatch, capsys):
    # a scene that passes validation but does not fit in memory exits 2
    # with an error line, not a traceback
    def exhausted(*args):
        raise MemoryError("Unable to allocate 114. PiB")

    monkeypatch.setattr(minproc.cli, "synthesize_scene", exhausted)
    out = tmp_path / "out"
    assert main(["run", str(write_cfg(tmp_path)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and "114. PiB" in err
    assert not out.exists()


HOSTILE = (math.nan, math.inf, -math.inf, 0.0, -1.0)
HOSTILE_KEYS = ("mic_positions", "talker_pos", "noise_positions",
                "speed_of_sound", "mu_ref", "mu_nr", "frame_ms")


def _position(default):
    """A 3-D position: the default, or it with one coordinate hostile."""
    def replace(pick):
        i, value = pick
        return [value if k == i else c for k, c in enumerate(default)]
    hostile = st.tuples(st.integers(0, 2), st.sampled_from(HOSTILE))
    return st.one_of(st.just(list(default)), hostile.map(replace))


@st.composite
def hostile_configs(draw):
    """Config text for a 0.1 s scene with one or two hostile keys: nan,
    +-inf, 0 or negative values, or a source at a microphone."""
    keys = draw(st.lists(st.sampled_from(HOSTILE_KEYS), min_size=1,
                         max_size=2, unique=True))
    mics = [[1.5, 2.0, 1.0], [1.5, 2.02, 1.0]]
    if "mic_positions" in keys:
        mics = [draw(_position(m)) for m in mics[:draw(st.integers(1, 2))]]
    at_mic = st.sampled_from(mics)
    values = {
        "mic_positions": st.just(mics),
        "talker_pos": st.one_of(_position((1.5, 3.0, 1.0)), at_mic),
        "noise_positions": st.lists(st.one_of(_position((0.5, 1.0, 1.0)),
                                              at_mic), min_size=1,
                                    max_size=2),
        "speed_of_sound": st.sampled_from(HOSTILE),
        "mu_ref": st.sampled_from(HOSTILE),
        "mu_nr": st.sampled_from(HOSTILE),
        "frame_ms": st.sampled_from(HOSTILE),
    }
    pairs = {"duration": 0.1}
    pairs.update((key, draw(values[key])) for key in keys)

    def fmt(v):
        return f"[{', '.join(fmt(x) for x in v)}]" if isinstance(v, list) \
            else repr(v)

    return "\n".join(f"{k} = {fmt(v)}" for k, v in pairs.items())


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(text=hostile_configs())
def test_hostile_config_exits_0_or_2(tmp_path_factory, text):
    root = tmp_path_factory.mktemp("hostile")
    cfg = write_cfg(root, text)
    out = root / "out"
    code = main(["run", str(cfg), "--out", str(out)])
    assert code in (0, 2)
    if code == 2:
        assert not out.exists()


def test_infinite_mu_nr_runs(tmp_path):
    # mu_nr = inf is the zero-filter limit of the Wiener filter, not an
    # error; RuntimeWarnings fail the suite, so the run is also quiet
    cfg = write_cfg(tmp_path, BASE + "mu_nr = inf\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_huge_n_bands_exits_2(tmp_path, capsys):
    # refused before the filterbank allocates anything: arrays with this
    # many bands could never be allocated
    cfg = write_cfg(tmp_path, "duration = 1.0\nn_bands = 1000000000000000\n")
    out = tmp_path / "never"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "n_bands" in capsys.readouterr().err


def test_sample_rate_below_shaping_cutoffs_runs(tmp_path):
    # at 800 Hz the 500 Hz speech shaping cutoff lies above Nyquist, where
    # the low-pass passes every bin
    cfg = write_cfg(tmp_path, "duration = 1.0\nsample_rate = 800\n"
                              "f_hi = 400\nn_bands = 4\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0


# imports minproc and runs the CLI with every scipy import refused
NO_SCIPY = """
import sys

class Refuse:
    tried = []

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            self.tried.append(name)
            raise ImportError("scipy is blocked")

sys.meta_path.insert(0, Refuse())
from minproc import cli
code = cli.main(["run", sys.argv[1], "--out", sys.argv[2]])
assert not Refuse.tried, Refuse.tried
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
sys.exit(code)
"""


def test_runs_without_scipy(tmp_path):
    """The package needs numpy alone: a fresh process imports minproc
    and completes a 1 s run without ever importing scipy."""
    out = tmp_path / "out"
    proc = run_script(NO_SCIPY, [write_cfg(tmp_path), out], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.json").exists()


def test_band_csv_without_near_noise(tmp_path):
    # no near-end noise leaves C2 inactive: the solver and the band
    # table agree, so no band reports a lost cap or an infinite ratio
    cfg = write_cfg(tmp_path, BASE.replace("ne_snr_db = -30",
                                           "ne_snr_db = inf"))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out),
                 "--methods", "joint"]) == 0
    rows = list(csv.DictReader(
        (out / "bands_joint.csv").read_text().splitlines()))
    assert {r["status"] for r in rows} <= {"Feasible", "C1Infeasible"}
    assert all(float(r["c2_ratio"]) == 0.0 for r in rows)


@pytest.mark.parametrize("delta_u_db", [12.0, 300.0, -300.0, math.inf,
                                        -math.inf])
def test_constraint_ratios_use_constraint_bounds(delta_u_db):
    # the ratios take each band's bounds from the table's columns, bit
    # for bit as solver.constraint_bounds takes them in Python floats:
    # an overflow is inf, and no near-end noise leaves C2 uncapped, with
    # no warning (the suite turns RuntimeWarnings into errors)
    sigma_n2, target = (np.array(v, dtype=float) for v in zip(
        *[(s, t) for s in (0.0, 0.5, 1e300) for t in (0.0, 2.0, 1e300)]))
    ones, zeros = np.ones_like(sigma_n2), np.zeros_like(sigma_n2)
    table = SolverTerms(ones, ones, zeros, zeros, zeros, zeros, sigma_n2,
                        target)
    result = SimpleNamespace(table=table, alphas=np.full_like(ones, 0.5),
                             gains=np.full_like(ones, 2.0))
    rhs, cap = np.array([constraint_bounds(t, delta_u_db)
                         for t in band_rows(table)]).T
    c1, c2 = minproc.cli._constraint_ratios(result, delta_u_db)
    # p(0.5) = 0.5 and g^2 = 4; the far-end noise power is 0
    assert c1.tobytes() == np.divide(
        2.0, rhs, out=np.full_like(rhs, np.inf), where=rhs > 0.0).tobytes()
    assert c2.tobytes() == np.divide(
        0.0, cap, out=np.full_like(cap, np.inf), where=cap > 0.0).tobytes()


@pytest.mark.parametrize("text", [BASE, NOISE_FREE],
                         ids=["noisy", "noise_free"])
def test_band_csv_xi_is_evaluate_xi(tmp_path, monkeypatch, capsys, text):
    # every cell of the band and bin tables reads back with float() as
    # the result's value, infinities included: the xi column is the xi
    # that evaluate scores, bit for bit, and explain reads an infinite
    # one.  metrics.csv counts the statuses its band tables list.
    runs = []

    def recording(stats, res, fb):
        runs.append((res, fb, evaluate(stats, res, fb)))
        return runs[-1][2]

    monkeypatch.setattr(minproc.cli, "evaluate", recording)
    out = tmp_path / "out"
    assert main(["run", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 0
    assert len(runs) == 3

    def read(path):
        rows = list(csv.DictReader(path.read_text().splitlines()))
        return {k: [r[k] for r in rows] for k in rows[0]}

    def same(cells, values):
        return [float(c) for c in cells] \
            == np.asarray(values, dtype=float).tolist()

    metrics = read(out / "metrics.csv")
    assert metrics["method"] == list(METHOD_NAMES)
    for j, (name, (res, fb, report)) in enumerate(zip(METHOD_NAMES, runs)):
        path = out / f"bands_{name}.csv"
        bands = read(path)
        assert list(bands) == BAND_COLUMNS
        c1, c2 = minproc.cli._constraint_ratios(res, 12.0)
        # the penalty in Python floats, as BandSolution.penalty takes it
        penalty = [(1.0 - a) ** 2 + (1.0 - g) ** 2
                   for a, g in zip(res.alphas.tolist(), res.gains.tolist())]
        for column, values in [("band", range(fb.n_bands)),
                               ("center_hz", fb.centers_hz),
                               ("alpha", res.alphas), ("gain", res.gains),
                               ("penalty", penalty), ("xi", report.xi),
                               ("target_xi", res.table.target_snr),
                               ("c1_ratio", c1), ("c2_ratio", c2)]:
            assert same(bands[column], values), (name, column)
        assert bands["status"] == [s.value for s in res.statuses]
        assert main(["explain", str(path)]) == 0

        bins = read(out / f"bins_{name}.csv")
        assert list(bins) == ["bin", "freq_hz", "w_norm", "gain"]
        for column, values in [("bin", range(len(fb.bin_freqs))),
                               ("freq_hz", fb.bin_freqs),
                               ("w_norm", np.linalg.norm(res.w_mp, axis=1)),
                               ("gain", res.g_mp)]:
            assert same(bins[column], values), (name, column)

        for key, status in [("n_feasible", "Feasible"),
                            ("n_c1_infeasible", "C1Infeasible"),
                            ("n_c2_infeasible", "C2Infeasible"),
                            ("n_both_infeasible", "BothInfeasible")]:
            assert int(metrics[key][j]) == bands["status"].count(status)
        assert float(metrics["penalty_total"][j]) == sum(penalty)
        assert float(metrics["asii"][j]) == report.asii
        assert float(metrics["broadband_out_snr_db"][j]) \
            == report.broadband_out_snr_db
    if text == NOISE_FREE:
        assert metrics["asii"] == ["1.0"] * 3
        assert metrics["n_feasible"] == ["30"] * 3
        assert bands["xi"] == ["inf"] * 30


def test_explain_reports_bands(tmp_path, capsys):
    # favorable scene: everything feasible at the do-nothing point
    text = BASE.replace("ne_snr_db = -30", "ne_snr_db = 30")
    cfg = write_cfg(tmp_path, text.replace("fe_snr_db = 0",
                                           "fe_snr_db = 30"))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out),
                 "--methods", "joint"]) == 0
    capsys.readouterr()
    assert main(["explain", str(out / "bands_joint.csv")]) == 0
    text = capsys.readouterr().out
    assert "minimum processing: reference passthrough" in text
    assert "30 bands" in text
    assert "Feasible: 30" in text


def test_explain_notes_only_steps_the_method_took(tmp_path, capsys):
    # fallbacks and boosts are joint solver steps; an unprocessed band
    # that misses its target took none of them
    out = tmp_path / "out"
    assert main(["run", str(write_cfg(tmp_path)), "--out", str(out),
                 "--methods", "joint,unprocessed"]) == 0
    capsys.readouterr()
    assert main(["explain", str(out / "bands_unprocessed.csv")]) == 0
    text = capsys.readouterr().out
    assert "C1Infeasible" in text
    assert "fallback" not in text and "boost" not in text
    assert main(["explain", str(out / "bands_joint.csv")]) == 0
    assert "best-SNR fallback with bounded boost" in capsys.readouterr().out


def test_explain_notes_the_noise_cap_fallbacks(tmp_path, capsys):
    # a cap 10 dB under the near-end noise sends every band past it:
    # C2Infeasible where gain alone would reach the target, and
    # BothInfeasible where it would not
    text = BASE.replace("fe_snr_db = 0", "fe_snr_db = 10").replace(
        "ne_snr_db = -30", "ne_snr_db = 30") + "delta_u_db = -10\n"
    out = tmp_path / "out"
    assert main(["run", str(write_cfg(tmp_path, text)), "--out", str(out),
                 "--methods", "joint"]) == 0
    capsys.readouterr()
    assert main(["explain", str(out / "bands_joint.csv")]) == 0
    text = capsys.readouterr().out
    assert "noise cap unreachable: unit gain, closest SNR" in text
    assert "degraded at the noise cap" in text


@pytest.mark.parametrize("action", ["always", "error"])
@pytest.mark.parametrize("text", ["", "# center_hz weight\n"])
def test_empty_importance_file_is_a_config_error(tmp_path, capsys, action,
                                                 text):
    # a table without data exits 2 with one error line, and no warning
    # escapes, even where warnings are errors
    table = tmp_path / "importance.txt"
    table.write_text(text)
    cfg = write_cfg(tmp_path, f"duration = 1.0\nimportance_file = {table}\n")
    out = tmp_path / "never"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert caught == []
    assert not out.exists()
    assert capsys.readouterr().err \
        == "error: importance table holds no data\n"


def test_explain_rejects_wrong_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out),
                 "--methods", "unprocessed"]) == 0
    assert main(["explain", str(out / "metrics.csv")]) == 2
    assert main(["explain", str(tmp_path / "nope.csv")]) == 2
    latin1 = tmp_path / "bands_joint.csv"
    latin1.write_bytes(",".join(BAND_COLUMNS).encode() + b"\n0,\xff\n")
    assert main(["explain", str(latin1)]) == 2
    # a row one field short and a row one field long
    header, first, *rest = (out / "bands_unprocessed.csv").read_text() \
        .splitlines()
    for row in (first.rsplit(",", 1)[0], first + ",0"):
        capsys.readouterr()
        bad = tmp_path / "bands_bad.csv"
        bad.write_text("\n".join([header, row, *rest]) + "\n")
        assert main(["explain", str(bad)]) == 2
        assert "error: malformed CSV row" in capsys.readouterr().err
    capsys.readouterr()
