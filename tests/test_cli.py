"""End-to-end tests for the batch runner and the explain command."""

import csv
import dataclasses
import json

import numpy as np
import pytest

import minproc.cli
from minproc.cli import main, parse_config

BASE = """
# short scene so the suite stays fast
duration = 1.0
fe_snr_db = 0
ne_snr_db = -30
seed = 3
"""


def write_cfg(tmp_path, text=BASE, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


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
                        ("a_star = 1.5", "target"),
                        ("delta_n_db = -1", "delta_n_db"),
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
                        ("sample_rate = 16000.0", "sample rate")):
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


def test_exit_codes(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    bad = write_cfg(tmp_path, "no_such_key = 1", name="bad.cfg")
    assert main(["run", str(bad)]) == 2
    ok = write_cfg(tmp_path)
    assert main(["run", str(ok), "--methods", "joint,psycho"]) == 2
    assert main(["run", str(ok), "--sweep", "fe_snr_db=0:1"]) == 2
    assert main(["run", str(ok), "--sweep", "methods=0:1:2"]) == 2
    assert main(["run", str(ok), "--seed", "-1"]) == 2
    assert main(["run", str(ok), "--sweep", "a_star=0.5:0.3:1.1"]) == 2
    negative = tmp_path / "negative.txt"
    negative.write_text("200 1\n1000 -1\n4000 1\n")
    for key, text in (("grid_n", "grid_n = 2001"),
                      ("room_dims", "room_dims = [3.0, 4.0, 3.0]")):
        capsys.readouterr()
        bad = write_cfg(tmp_path, text, name="bad.cfg")
        out = tmp_path / "never"
        assert main(["run", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert f"unknown config key: {key}" in capsys.readouterr().err
    for text in ("n_bands = 2.0", "seed = -1",
                 "n_bands = 200", "fe_snr_db = -inf", "ne_snr_db = -inf",
                 "mic_selfnoise_snr_db = -inf", "a_star = 1.5",
                 "fe_snr_db = 4000", "delta_u_db = 4000",
                 "duration = nan", "duration = 0.01", "sample_rate = nan",
                 f"importance_file = {tmp_path / 'missing.txt'}",
                 f"importance_file = {negative}"):
        if not text.startswith("duration"):
            text = "duration = 1.0\n" + text
        bad = write_cfg(tmp_path, text, name="bad.cfg")
        out = tmp_path / "never"
        assert main(["run", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
    assert main(["run", str(ok), "--sweep", "n_bands=20:2.5:25"]) == 2
    # points closer than the six-digit directory labels would share one
    out = tmp_path / "never"
    assert main(["run", str(ok), "--out", str(out), "--sweep",
                 "a_star=0.1:0.0000001:0.1000002"]) == 2
    assert not out.exists()
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["run", str(ok), "--out", str(blocker / "sub")]) == 3
    capsys.readouterr()  # drop accumulated error messages


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


def test_explain_rejects_wrong_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out),
                 "--methods", "unprocessed"]) == 0
    assert main(["explain", str(out / "metrics.csv")]) == 2
    assert main(["explain", str(tmp_path / "nope.csv")]) == 2
    capsys.readouterr()
