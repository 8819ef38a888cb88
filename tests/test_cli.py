import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from homlab import cli
from homlab.corrector import solve_pair, sublinearity_curve
from homlab.field import EnsembleSpec, load_field, sample_field
from homlab.grid import Grid
from homlab.halfspace import build_halfspace_set
from homlab.cli import (
    ConfigError, CsvError, config_hash, load_config, main, read_csv, validate_config,
)
from test_corrector import CROSS_CHECKERBOARDS


def write_spec(tmp_path, n=32, seed=7):
    spec = {
        "kind": "checkerboard",
        "lam": 0.25,
        "seed": seed,
        "params": {"values": [0.25, 1.0], "cell_size": 1.0},
        "grid": {"dim": 2, "n": n, "h": 1.0, "topology": "torus"},
    }
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    return p


def small_config(tmp_path, n=32, seeds=(0, 1)):
    cfg = {
        "ensemble": {"kind": "checkerboard", "lam": 0.25,
                     "params": {"values": [0.25, 1.0], "cell_size": 1.0}},
        "grid": {"dim": 2, "n": n, "h": 1.0},
        "seeds": list(seeds),
        "radii": [8.0],
        "halfspace": {"L": n / 2.0, "mode": "direct"},
        "excess": {"R": n / 4.0, "radii": [4.0, 8.0]},
        "tol": 1e-11,
    }
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def test_field_sample_and_check(tmp_path):
    spec = write_spec(tmp_path)
    out = tmp_path / "field.bin"
    assert main(["field", "sample", "--spec", str(spec), "--out", str(out)]) == 0
    assert out.exists()
    assert main(["field", "check", "--field", str(out)]) == 0
    # the topology tokens of the field file; any other is a config error
    from homlab.grid import Grid

    for topo, grid in (("torus", Grid.torus(2, 32)),
                       ("half_slab", Grid.half_box(2, 32, tangential_periodic=True)),
                       ("half_box", Grid.half_box(2, 32, tangential_periodic=False)),
                       ("slab", None)):
        raw = json.loads(spec.read_text())
        raw["grid"]["topology"] = topo
        spec.write_text(json.dumps(raw))
        out = tmp_path / f"{topo}.bin"
        rc = main(["field", "sample", "--spec", str(spec), "--out", str(out)])
        if grid is None:
            assert rc == 2 and not out.exists()
        else:
            assert rc == 0 and load_field(out).grid == grid
    # the spec is read like a config: malformed JSON, an ensemble without a
    # kind, a negative seed, a key no sampling reads and a grid no torus
    # has are config errors that write no file
    good = json.loads(write_spec(tmp_path).read_text())
    seedless = {k: v for k, v in good.items() if k != "seed"}
    for name, text in (("malformed", '{"kind": "checkerboard",'),
                       ("kindless", json.dumps({"lam": 0.25, "grid": {"dim": 2, "n": 32}})),
                       ("negative_seed", json.dumps({**good, "seed": -1})),
                       ("misspelt_seed", json.dumps({**seedless, "sed": 7})),
                       ("odd_n", json.dumps({**good, "grid": {"dim": 2, "n": 30}})),
                       ("text_n", json.dumps({**good, "grid": {"dim": 2, "n": "abc"}}))):
        bad, out = tmp_path / f"{name}.json", tmp_path / f"{name}.bin"
        bad.write_text(text)
        assert main(["field", "sample", "--spec", str(bad), "--out", str(out)]) == 2
        assert not out.exists()


def test_field_check_flags_bad_field(tmp_path, capsys):
    spec = write_spec(tmp_path)
    out = tmp_path / "field.bin"
    main(["field", "sample", "--spec", str(spec), "--out", str(out)])
    from homlab.field import CoefficientField, load_field, save_field
    from test_field import twelve_violations

    f = load_field(out)
    scaled = CoefficientField(f.grid, [1.5 * f.matrices(k) for k in range(2)], lam=f.lam, seed=f.seed)
    bad = tmp_path / "bad.bin"
    save_field(scaled, bad)
    assert main(["field", "check", "--field", str(bad)]) == 4
    # one value per face in storage, a 3x3 matrix per violation on the screen
    iso, _ = twelve_violations("isotropic")
    assert all(a.shape[-1] == 1 for a in iso.faces)
    save_field(iso, bad)
    capsys.readouterr()
    assert main(["field", "check", "--field", str(bad)]) == 4
    lines = [s for s in capsys.readouterr().out.splitlines() if s.startswith("violation")]
    assert len(lines) == 10
    for line in lines:
        mat = np.array(json.loads(line.split(": ", 1)[1]))
        assert mat.shape == (3, 3) and np.array_equal(mat, mat[0, 0] * np.eye(3))


def test_corrector_and_halfspace_commands(tmp_path):
    spec = write_spec(tmp_path)
    fld = tmp_path / "field.bin"
    main(["field", "sample", "--spec", str(spec), "--out", str(fld)])
    curve = tmp_path / "curve.csv"
    assert main(["corrector", "--field", str(fld), "--radii", "8:16",
                 "--out", str(curve)]) == 0
    header, rows = read_csv(curve)
    assert header == ["r", "delta", "delta_gno", "partial_sum_m"]
    assert len(rows) == 2
    hs_bin = tmp_path / "hs.npz"
    hs_csv = tmp_path / "hs.csv"
    assert main(["halfspace", "--field", str(fld), "--out", f"{hs_bin},{hs_csv}"]) == 0
    header, rows = read_csv(hs_csv)
    assert header[:2] == ["r", "delta_h"]
    bundle = np.load(hs_bin)
    assert sorted(bundle.files) == ["__meta__", "phi_h_0"]
    # the bundle loads the tangential phi_h and the basis bit for bit,
    # equal to the saved set's (rebuilt here from the same field and
    # tolerance)
    f = load_field(fld)
    hset = build_halfspace_set(f, solve_pair(f, tol=1e-12), L=16.0, tol=1e-12)
    loaded = cli.load_halfspace_bundle(hs_bin, f)
    assert loaded.grid == hset.grid and list(loaded.phi_h) == [0]
    assert np.array_equal(loaded.phi_h[0].values, hset.phi_h[0].values)
    assert np.array_equal(loaded.basis.vectors, hset.basis.vectors)
    assert np.array_equal(loaded.basis.a_hom, hset.basis.a_hom)


def test_halfspace_slab_height_defaults_to_half_the_side(tmp_path):
    # side/2 is the one slab height the stage takes, so no flag sets it
    # (``tests/test_options.py`` pins the flags)
    fld = tmp_path / "field.bin"
    assert main(["field", "sample", "--spec", str(write_spec(tmp_path)), "--out", str(fld)]) == 0
    assert main(["halfspace", "--field", str(fld), "--out", str(tmp_path / "hs.npz")]) == 0
    assert cli.load_halfspace_bundle(tmp_path / "hs.npz", load_field(fld)).grid.height == 16.0


def test_halfspace_command_on_a_side_16_field(tmp_path):
    # the default corrector radii run min(8h, side/4)..side/4: 8h..side/4
    # from side 32h on, and 4 at side 16, so the command writes a bundle
    # there, which needs no radius
    base = {k: v for k, v in json.loads(small_config(tmp_path).read_text()).items()
            if k not in ("radii", "halfspace", "excess")}
    assert validate_config(base)["radii"] == [8.0]
    assert validate_config({**base, "grid": {"dim": 3, "n": 16}})["radii"] == [4.0]
    fld = field_file(tmp_path, 3, 16, 0)
    hs_bin = tmp_path / "hs.npz"
    assert main(["halfspace", "--field", str(fld), "--out", str(hs_bin)]) == 0
    assert main(["excess", "--field", str(fld), "--hs", str(hs_bin), "--R", "8", "--seeds", "1",
                 "--out", str(tmp_path / "excess.csv")]) == 0


def test_halfspace_dyadic_mode(tmp_path):
    spec = write_spec(tmp_path, n=64)
    fld = tmp_path / "field.bin"
    main(["field", "sample", "--spec", str(spec), "--out", str(fld)])
    hs_bin = tmp_path / "hs.npz"
    hs_csv = tmp_path / "hs.csv"
    assert main(["halfspace", "--field", str(fld), "--mode", "dyadic",
                 "--r0", "8", "--n-max", "0", "--out", f"{hs_bin},{hs_csv}"]) == 0
    header, rows = read_csv(tmp_path / "hs.dyadic.csv")
    assert header == ["n", "l_n", "energy", "bound_shape"]
    # an n_max below -1 leaves no annulus: a config error before any solve,
    # as in the pipeline
    assert main(["halfspace", "--field", str(fld), "--mode", "dyadic",
                 "--n-max", "-2", "--out", str(tmp_path / "no_annulus.npz")]) == 2
    assert not (tmp_path / "no_annulus.npz").exists()


def test_excess_command(tmp_path):
    spec = write_spec(tmp_path)
    fld = tmp_path / "field.bin"
    main(["field", "sample", "--spec", str(spec), "--out", str(fld)])
    out = tmp_path / "excess.csv"
    assert main(["excess", "--field", str(fld), "--R", "8", "--seeds", "2",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["seed", "r", "excess", "b1", "b2", "ratio", "fitted_alpha", "mvp_ratio"]
    assert {int(r[0]) for r in rows} == {0, 1}


def test_pipeline_determinism_and_cache(tmp_path):
    cfg = small_config(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["pipeline", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    assert main(["pipeline", "--config", str(cfg), "--out-dir", str(out2)]) == 0
    csvs1 = sorted(p.name for p in out1.glob("*.csv"))
    csvs2 = sorted(p.name for p in out2.glob("*.csv"))
    assert csvs1 == csvs2 and csvs1
    for name in csvs1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # cached rerun leaves outputs byte-identical
    before = {p.name: p.read_bytes() for p in out1.glob("*.csv")}
    assert main(["pipeline", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    manifest = json.loads(sorted(out1.glob("manifest__*.json"))[-1].read_text())
    assert all(s.get("cached") for s in manifest["stages"].values())
    for p in out1.glob("*.csv"):
        assert p.read_bytes() == before[p.name]
    report = json.loads(sorted(out1.glob("report__*.json"))[-1].read_text())
    assert "a_hom_mean" in report and "halfspace_residuals" in report


def test_pipeline_threads_share_cache(tmp_path):
    cfg = small_config(tmp_path, seeds=(0, 1))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out-dir", str(out), "--threads", "1"]) == 0
    assert main(["pipeline", "--config", str(cfg), "--out-dir", str(out), "--threads", "2"]) == 0
    manifests = list(out.glob("manifest__*.json"))
    assert len(manifests) == 1
    manifest = json.loads(manifests[0].read_text())
    assert all(s.get("cached") for s in manifest["stages"].values())


def test_pipeline_threads_match_serial_run(tmp_path, monkeypatch):
    """Seeds run in a pool at threads 2 write the same files as at threads 1.
    The seeds' solves run in the pool's threads then, and ``solve_many``
    starts no helper thread of its own; at threads 1 it does, given a
    second CPU."""
    from homlab import pde

    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self.name) or start(self))
    cfg = small_config(tmp_path, seeds=(0, 1))
    files, helpers = {}, {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        started.clear()
        assert main(["pipeline", "--config", str(cfg), "--out-dir", str(out),
                     "--threads", threads]) == 0
        helpers[threads] = [name for name in started if name.startswith("homlab-solve")]
        manifest = json.loads(next(out.glob("manifest__*.json")).read_text())
        assert not any(s["cached"] for s in manifest["stages"].values())
        files[threads] = {p.name: p.read_bytes() for p in out.iterdir()
                          if not p.name.startswith("manifest__")}
    # 2 corrector and 2 half-space CSVs, 2 summaries, the excess table, the report
    assert len(files["1"]) == 8
    assert files["2"] == files["1"]
    assert helpers["2"] == [] and (len(helpers["1"]) > 0) == (pde._cpus() > 1)


@pytest.mark.parametrize("change, flags", [
    ({"seeds": []}, []),
    ({"threads": 0}, []),
    ({}, ["--threads", "-3"]),
], ids=["empty_seeds", "threads_zero", "threads_flag_negative"])
def test_pipeline_without_seeds_or_threads_fails_before_any_solve(tmp_path, monkeypatch,
                                                                  change, flags):
    def no_solve(*args, **kwargs):
        raise AssertionError("run_seed called before the config was checked")

    monkeypatch.setattr(cli, "run_seed", no_solve)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**json.loads(small_config(tmp_path).read_text()), **change}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(p), "--out-dir", str(out), *flags]) == 2
    assert not out.exists()


def test_pipeline_3d_runs(tmp_path):
    cfg = {
        "ensemble": {"kind": "checkerboard", "lam": 0.25,
                     "params": {"values": [0.25, 1.0], "cell_size": 1.0}},
        "grid": {"dim": 3, "n": 16, "h": 1.0},
        "seeds": [0],
        "radii": [4.0],
        "halfspace": {"L": 8.0, "mode": "direct"},
        "excess": {"R": 8.0, "radii": [4.0, 8.0]},
        "tol": 1e-11,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(p), "--out-dir", str(out)]) == 0
    manifest = json.loads(sorted(out.glob("manifest__*.json"))[-1].read_text())
    assert "failed" not in manifest
    header, rows = read_csv(next(out.glob("excess__*.csv")))
    assert header[3:6] == ["b1", "b2", "b3"] and rows


def strict_json(out):
    """Every JSON file of a pipeline run directory by kind (``manifest``,
    ``report``, ``corrector_summary``, ...), parsed with NaN and Infinity,
    which are not JSON, rejected."""

    def no_constant(name):
        raise AssertionError(f"invalid JSON constant {name}")

    docs = {}
    for path in out.glob("*.json"):
        kind, _, rest = path.stem.partition("__")
        kind += "_summary" if rest.endswith("__summary") else ""
        docs[kind] = json.loads(path.read_text(), parse_constant=no_constant)
    return docs


def test_pipeline_without_a_fitted_exponent_writes_null(tmp_path):
    # n=32 with the default radii leaves the excess stage one radius, so
    # no seed fits an exponent and no mean-value ratio compares two radii:
    # the table holds nan exponents and ratios, the report null, never NaN
    cfg = {
        "ensemble": {"kind": "checkerboard", "lam": 0.25,
                     "params": {"values": [0.25, 1.0], "cell_size": 1.0}},
        "grid": {"dim": 2, "n": 32, "h": 1.0},
        "seeds": [0],
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(p), "--out-dir", str(out)]) == 0
    docs = strict_json(out)
    assert "failed" not in docs["manifest"] and "excess_summary" not in docs
    assert docs["report"]["excess"] == {"alpha_mean": None, "c_mean_max": None}
    header, rows = read_csv(next(out.glob("excess__*.csv")))
    assert rows and all(np.isnan(row[header.index(key)]) for row in rows
                        for key in ("fitted_alpha", "mvp_ratio"))


def test_one_seed_report_has_no_standard_error(tmp_path):
    # one sample has no spread: the report writes null (it wrote 0.0),
    # and two seeds the sample standard error of each entry
    docs = {}
    for seeds in ((0,), (0, 1)):
        out = tmp_path / f"run{len(seeds)}"
        assert main(["pipeline", "--config", str(small_config(tmp_path, seeds=seeds)),
                     "--out-dir", str(out)]) == 0
        docs[len(seeds)] = strict_json(out)
    assert docs[1]["report"]["a_hom_stderr"] is None
    samples = np.array([e["a_hom"] for e in docs[2]["corrector_summary"]])
    assert np.array_equal(docs[2]["report"]["a_hom_stderr"],
                          samples.std(axis=0, ddof=1) / np.sqrt(2))


def test_pipeline_constant_field_writes_strict_json(tmp_path):
    # constant coefficients have zero correctors, so every delta is 0 and no
    # seed fits a log-log exponent: the report holds null, never NaN
    cfg = {
        "ensemble": {"kind": "constant", "lam": 1.0, "params": {"a0": [[1.0, 0.0], [0.0, 1.0]]}},
        "grid": {"dim": 2, "n": 64},
        "seeds": [0, 1],
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(p), "--out-dir", str(out)]) == 0
    docs = strict_json(out)
    assert len(docs) == 4
    assert docs["report"]["delta_fit_exponent_mean"] is None


def test_pipeline_on_a_laminate_across_its_stripes(tmp_path):
    # the flux correction across the stripes is round-off; the pair's
    # divergence check scales with the current, so the pipeline runs
    cfg = {
        "ensemble": {"kind": "laminate", "lam": 0.25,
                     "params": {"axis": 1, "values": [0.25, 1.0], "width": 2.0}},
        "grid": {"dim": 2, "n": 64},
        "seeds": [0],
        "tol": 1e-11,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(p), "--out-dir", str(out)]) == 0
    assert "failed" not in strict_json(out)["manifest"]


def test_pipeline_bad_config_exit_code(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"grid": {"dim": 2, "n": 16}}))
    assert main(["pipeline", "--config", str(p), "--out-dir", str(tmp_path / "o")]) == 2
    p2 = tmp_path / "dup.json"
    p2.write_text(json.dumps({
        "ensemble": {"kind": "checkerboard", "lam": 0.25, "params": {"values": [0.25, 1.0]}},
        "grid": {"dim": 2, "n": 16},
        "seeds": [0, 0],
    }))
    assert main(["pipeline", "--config", str(p2), "--out-dir", str(tmp_path / "o")]) == 2
    # radii a stage would fail on are rejected before any solve: at n=16 the
    # default corrector radius is side/4 = 4 and the slab height 16 is not
    # side/2, and an excess radius of 2 is below the quadrature floor 4h
    good = json.loads(small_config(tmp_path).read_text())
    # so are non-positive radii, a slab height L other than side/2, a dyadic
    # r0 that is no power of two, an n_max below -1 (no annulus), an outer
    # annulus r0 2^(n_max+1) beyond 2L, an excess window 2R wider than the
    # torus or with a height R off the grid planes (the window half-box needs
    # an even number of cells a side), a corrector radius above the torus
    # half-side, an excess radius above the window height R, seeds that are
    # not a list of non-negative integers, and a tol outside (0, 1); and so
    # is a key no stage reads, which would run the defaults under a new cache
    # tag (the run's seeds replace ensemble.seed), and an unknown ensemble
    # kind, which would fail at sampling after the run directory is made
    dyadic = {"L": 16.0, "mode": "dyadic"}
    ens, hs, ex = good["ensemble"], good["halfspace"], good["excess"]
    for name, change in (("empty_radii", {"grid": {"dim": 2, "n": 16}, "radii": None}),
                         ("low_radius", {"radii": [2.0, 4.0, 8.0], "excess": {}}),
                         ("negative_radius", {"radii": [-8.0, 8.0]}),
                         ("radius_above_half_side", {"radii": [8.0, 64.0]}),
                         ("short_slab", {"halfspace": {"L": 8.0, "mode": "direct"}}),
                         ("odd_r0", {"halfspace": {**dyadic, "dyadic": {"r0": 6.0, "n_max": 0}}}),
                         ("wide_annulus",
                          {"halfspace": {**dyadic, "dyadic": {"r0": 8.0, "n_max": 2}}}),
                         ("no_annulus",
                          {"halfspace": {**dyadic, "dyadic": {"r0": 8.0, "n_max": -2}}}),
                         ("wide_window", {"excess": {"R": 32.0, "radii": [4.0, 8.0]}}),
                         ("window_off_planes", {"excess": {"R": 7.25, "radii": [4.0]}}),
                         ("odd_window", {"excess": {"R": 7.5, "radii": [4.0]}}),
                         ("excess_radius_above_window",
                          {"excess": {"R": 8.0, "radii": [4.0, 8.0, 32.0]}}),
                         ("float_seeds", {"seeds": [0.5, 1]}),
                         ("string_seeds", {"seeds": ["a"]}),
                         ("scalar_seeds", {"seeds": 3}),
                         ("negative_seed", {"seeds": [-1]}),
                         ("zero_tol", {"tol": 0}),
                         ("unit_tol", {"tol": 1}),
                         ("negative_tol", {"tol": -1}),
                         ("nan_tol", {"tol": float("nan")}),
                         ("misspelled_key", {"raddi": good["radii"], "radii": None}),
                         ("ensemble_seed", {"ensemble": {**ens, "seed": 5}}),
                         ("trace_amplitude", {"excess": {**ex, "trace_amplitude": 2.0}}),
                         ("dyadic_in_direct_mode",
                          {"halfspace": {**hs, "dyadic": {"r0": 8.0, "n_max": 0}}}),
                         ("unknown_kind", {"ensemble": {**ens, "kind": "chekerboard"}})):
        cfg = {k: v for k, v in {**good, **change}.items() if v is not None}
        p3 = tmp_path / f"{name}.json"
        p3.write_text(json.dumps(cfg))
        out = tmp_path / name
        assert main(["pipeline", "--config", str(p3), "--out-dir", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("change", [
    {"grid": {"dim": 2, "n": 32.7}},
    {"grid": {"dim": 2, "n": "32"}},
    {"grid": {"dim": 2.9, "n": 32}},
    {"threads": 1.7},
    {"threads": True},
    {"halfspace": {"L": 16.0, "mode": "dyadic", "dyadic": {"r0": 4.0, "n_max": 1.9}}},
], ids=["float_n", "string_n", "float_dim", "float_threads", "bool_threads", "float_n_max"])
def test_config_integers_are_not_truncated(tmp_path, change):
    """An integer key takes an integer, as ``seeds`` does: a float, a
    string or a bool exits 2 before any file is written (each of these ran
    truncated to an integer)."""
    cfg = {**json.loads(small_config(tmp_path, seeds=(0,)).read_text()), **change}
    p, out = tmp_path / "cfg.json", tmp_path / "run"
    p.write_text(json.dumps(cfg))
    assert main(["pipeline", "--config", str(p), "--out-dir", str(out)]) == 2
    assert not out.exists()


def test_field_spec_grid_integers_are_not_truncated(tmp_path):
    spec = json.loads(write_spec(tmp_path).read_text())
    for grid in ({"dim": 2, "n": 32.7}, {"dim": 2.0, "n": 32}, {"dim": 2, "n": True}):
        p, out = tmp_path / "spec2.json", tmp_path / "f.bin"
        p.write_text(json.dumps({**spec, "grid": grid}))
        assert main(["field", "sample", "--spec", str(p), "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("change", [
    {"radii": [8.0, 4.0]},
    {"radii": [4.0, 4.0, 8.0]},
    {"excess": {"R": 8.0, "radii": [8.0, 4.0]}},
    {"excess": {"R": 8.0, "radii": [4.0, 4.0, 8.0]}},
], ids=["radii_reversed", "radii_repeated", "excess_radii_reversed", "excess_radii_repeated"])
def test_config_radii_out_of_order_are_refused(tmp_path, change):
    """Radii that do not increase strictly exit 2 before any file is
    written: out of order they changed the partial sums and the decay
    ratio, and every order ran under its own cache tag."""
    cfg = {**json.loads(small_config(tmp_path, seeds=(0,)).read_text()), **change}
    with pytest.raises(ConfigError, match="do not increase strictly"):
        validate_config(cfg)
    p, out = tmp_path / "cfg.json", tmp_path / "run"
    p.write_text(json.dumps(cfg))
    assert main(["pipeline", "--config", str(p), "--out-dir", str(out)]) == 2
    assert not out.exists()


def test_config_radii_are_dyadic_multiples_of_h(tmp_path):
    # at h = 0.75 the default radii 8h..side/4 are 6 and 12, which the
    # whole-space curve measures; radii 8 and 16 are no power of two times h,
    # and neither is the default annulus r0 8 of dyadic mode
    cfg = {**json.loads(small_config(tmp_path).read_text()), "seeds": [0],
           "ensemble": {"kind": "checkerboard", "lam": 0.25,
                        "params": {"values": [0.25, 1.0], "cell_size": 1.5}},
           "grid": {"dim": 2, "n": 64, "h": 0.75}, "halfspace": {"mode": "direct"}}
    for key in ("radii", "excess"):
        del cfg[key]
    filled = validate_config(cfg)
    assert filled["radii"] == [6.0, 12.0] and filled["excess"]["radii"] == [6.0, 12.0]
    with pytest.raises(ConfigError, match="radius 8 is not a positive power of two times h"):
        validate_config({**cfg, "radii": [8.0, 16.0]})
    with pytest.raises(ConfigError, match="dyadic r0 8"):
        validate_config({**cfg, "halfspace": {"mode": "dyadic"}})
    p = tmp_path / "h075.json"
    p.write_text(json.dumps(cfg))
    assert main(["pipeline", "--config", str(p), "--out-dir", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("argv", [
    ["halfspace", "--mode", "dyadic", "--n-max", "-2", "--out", "hs.npz,hs.csv"],
    ["corrector", "--radii", "6:64", "--out", "curve.csv"],
    ["corrector", "--radii", "abc", "--out", "curve.csv"],
    ["corrector", "--radii", "0:64", "--out", "curve.csv"],
    ["corrector", "--radii=-8:64", "--out", "curve.csv"],
    ["excess", "--R", "7.25", "--out", "excess.csv"],
    ["excess", "--R", "8", "--seeds", "0", "--out", "excess.csv"],
    ["corrector", "--tol", "0", "--out", "curve.csv"],
], ids=["n_max", "radii_off_powers", "radii_text", "radii_from_zero",
        "radii_from_negative", "window_off_planes", "excess_seeds_zero", "zero_tol"])
def test_bad_flags_fail_before_any_solve(tmp_path, monkeypatch, argv):
    """A flag a stage check rejects exits 2, as the pipeline does for the
    same config value, before any solve and without writing a file."""
    fld = tmp_path / "field.bin"
    assert main(["field", "sample", "--spec", str(write_spec(tmp_path)), "--out", str(fld)]) == 0
    before = set(tmp_path.iterdir())

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_pair called before the flags were checked")

    monkeypatch.setattr(cli, "solve_pair", no_solve)
    out = argv.index("--out") + 1
    argv = argv[:1] + ["--field", str(fld)] + argv[1:out] + [
        ",".join(str(tmp_path / name) for name in argv[out].split(","))]
    assert main(argv) == 2
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("radii", ["0:8", "32:64"])
def test_empty_corrector_radii_name_the_given_range(tmp_path, capsys, radii):
    # at side 32 neither range holds a radius; the error names the range,
    # not the default 8h..side/4 it did not use
    fld = tmp_path / "field.bin"
    assert main(["field", "sample", "--spec", str(write_spec(tmp_path)), "--out", str(fld)]) == 0
    capsys.readouterr()
    assert main(["corrector", "--field", str(fld), "--radii", radii,
                 "--out", str(tmp_path / "c.csv")]) == 2
    err = capsys.readouterr().err
    assert f"--radii {radii} " in err and "default" not in err


def test_empty_config_radii_are_not_blamed_on_the_default(tmp_path):
    cfg = {**json.loads(small_config(tmp_path).read_text()), "radii": []}
    with pytest.raises(ConfigError, match="radii is empty"):
        validate_config(cfg)


def dyadic_config(**spelled_out):
    return {
        "ensemble": {"kind": "checkerboard", "lam": 0.25,
                     "params": {"values": [0.25, 1.0], "cell_size": 1.0}},
        "grid": {"dim": 2, "n": 64},
        "seeds": [0],
        "halfspace": {"mode": "dyadic"},
        **spelled_out,
    }


def test_spelled_out_defaults_share_the_cache(tmp_path):
    terse = dyadic_config()
    spelled = dyadic_config(
        grid={"dim": 2, "n": 64, "h": 1},
        radii=[8, 16],
        halfspace={"L": 32, "mode": "dyadic", "dyadic": {"r0": 8, "n_max": 2}},
        excess={"R": 16, "radii": [8, 16]},
        tol=1e-12,
        threads=2,
    )
    filled = validate_config(terse)
    assert validate_config(filled) == filled
    assert validate_config(spelled) == {**filled, "threads": 2}
    assert config_hash(validate_config(spelled)) == config_hash(filled)
    # the raw configs are read, never filled in place
    assert terse == dyadic_config()
    out = tmp_path / "run"
    first = cli.run_pipeline(filled, out)
    assert not any(stage["cached"] for stage in first["stages"].values())
    second = cli.run_pipeline(validate_config(spelled), out)
    assert all(stage["cached"] for stage in second["stages"].values())
    assert len(list(out.glob("manifest__*.json"))) == 1


def test_readme_command_lines_parse():
    """Every ``homlab ...`` line of README's command-line block, optional
    ``[...]`` parts removed, parses with the CLI's parser."""
    import re
    import shlex

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("homlab ")]
    assert len(lines) >= 8
    parser = cli.build_parser()
    for line in lines:
        while re.search(r"\[[^\[\]]*\]", line):
            line = re.sub(r"\[[^\[\]]*\]", "", line)
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.fn), line


def test_module_entry_point_runs_from_a_checkout():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run([sys.executable, "-m", "homlab", "--version"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == cli.__version__


def test_pyproject_version_is_the_package_version():
    # installs take the version from pyproject.toml, the cache key (config_hash) from __version__
    import re

    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', text, re.M).group(1) == cli.__version__


def test_unknown_ensemble_param_is_refused_before_any_file(tmp_path):
    # a misspelled cell_size would sample the default cell size under a new tag
    cfg = json.loads(small_config(tmp_path).read_text())
    cfg["ensemble"]["params"] = {"values": [0.25, 1.0], "cellsize": 2.0}
    p = tmp_path / "cellsize.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(p), "--out-dir", str(out)]) == 2
    assert not out.exists()
    spec = json.loads(write_spec(tmp_path).read_text())
    spec["params"]["cellsize"] = 2.0
    p.write_text(json.dumps(spec))
    assert main(["field", "sample", "--spec", str(p), "--out", str(tmp_path / "f.bin")]) == 2
    assert not (tmp_path / "f.bin").exists()


@pytest.mark.parametrize("kind, params, spec", [
    ("gaussian_lipschitz", {"correlation_length": 2.0},
     lambda seed: EnsembleSpec.gaussian_lipschitz(lam=0.25, seed=seed)),
    ("checkerboard", {}, lambda seed: EnsembleSpec.checkerboard(lam=0.25, seed=seed)),
])
def test_pipeline_fills_ensemble_defaults_of_the_constructor(tmp_path, kind, params, spec):
    # without the Gaussian mean and scale, or the checkerboard values, the
    # pipeline runs the config of the constructor's defaults, under its tag
    cfg = json.loads(small_config(tmp_path, seeds=(3,)).read_text())
    cfg["ensemble"] = {"kind": kind, "lam": 0.25, "params": params}
    p = tmp_path / "defaults.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(p), "--out-dir", str(out)]) == 0
    filled = load_config(p)
    explicit = {**cfg, "ensemble": {**cfg["ensemble"], "params": spec(3).params}}
    assert config_hash(validate_config(explicit)) == config_hash(filled)
    assert not json.loads((out / f"manifest__{config_hash(filled)}.json").read_text()).get("failed")


def test_field_sample_fills_ensemble_defaults(tmp_path):
    spec = {"kind": "gaussian_lipschitz", "lam": 0.25, "seed": 4, "grid": {"dim": 2, "n": 32}}
    p, out = tmp_path / "spec.json", tmp_path / "f.bin"
    p.write_text(json.dumps(spec))
    assert main(["field", "sample", "--spec", str(p), "--out", str(out)]) == 0
    want = sample_field(EnsembleSpec.gaussian_lipschitz(lam=0.25, seed=4), Grid.torus(2, 32))
    assert load_field(out).equals(want)


def test_field_sample_refuses_an_unknown_grid_key(tmp_path):
    spec = json.loads(write_spec(tmp_path).read_text())
    spec["grid"] = {"dim": 2, "nn": 32}
    p, out = tmp_path / "nn.json", tmp_path / "f.bin"
    p.write_text(json.dumps(spec))
    assert main(["field", "sample", "--spec", str(p), "--out", str(out)]) == 2
    assert not out.exists()


def test_halfspace_command_refuses_dyadic_flags_in_direct_mode(tmp_path, monkeypatch):
    fld = str(field_file(tmp_path, 2, 32, 1))
    monkeypatch.setattr(cli, "solve_pair", lambda *a, **k: pytest.fail("solved"))
    for mode in (["--mode", "direct"], []):
        out = tmp_path / "hs.npz"
        assert main(["halfspace", "--field", fld, *mode, "--r0", "8", "--n-max", "2",
                     "--out", f"{out},{tmp_path / 'hs.csv'}"]) == 2
        assert not out.exists() and not (tmp_path / "hs.csv").exists()


def test_config_validation_rules():
    with pytest.raises(ConfigError):
        validate_config({"ensemble": {}, "grid": {"dim": 2, "n": 8}, "seeds": [0],
                         "radii": [9.0]})
    with pytest.raises(ConfigError):
        validate_config({"ensemble": {"kind": "checkerboard", "lam": 0.25, "params": {}},
                         "grid": {"dim": 2}, "seeds": [0]})


def test_report_malformed_csv(tmp_path):
    p = tmp_path / "broken.csv"
    p.write_text("r,delta\n1.0\n")
    with pytest.raises(CsvError) as err:
        read_csv(p)
    assert "broken.csv:2" in str(err.value)


def test_report_command(tmp_path):
    cfg = small_config(tmp_path, seeds=(0,))
    out = tmp_path / "run"
    main(["pipeline", "--config", str(cfg), "--out-dir", str(out)])
    for rp in out.glob("report__*.json"):
        rp.unlink()
    assert main(["report", "--out-dir", str(out), "--config", str(cfg)]) == 0
    assert list(out.glob("report__*.json"))


def test_excess_command_with_bundle(tmp_path):
    spec = write_spec(tmp_path)
    fld = tmp_path / "field.bin"
    main(["field", "sample", "--spec", str(spec), "--out", str(fld)])
    hs_bin = tmp_path / "hs.npz"
    main(["halfspace", "--field", str(fld), "--out", str(hs_bin)])
    out = tmp_path / "excess.csv"
    assert main(["excess", "--field", str(fld), "--hs", str(hs_bin), "--R", "8",
                 "--seeds", "1", "--out", str(out)]) == 0
    # the bundle path reproduces the rebuilt-set numbers
    out2 = tmp_path / "excess2.csv"
    main(["excess", "--field", str(fld), "--R", "8", "--seeds", "1", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def parent_layout_bundle(fld, path):
    """The bundle of the field file ``fld`` in the layout written before
    bundles named their field: every phi_h, sigma_h and varphi, the
    Liouville gaps, no ``field_sha256``."""
    from homlab.field import write_arrays

    f = load_field(fld)
    hset = build_halfspace_set(f, solve_pair(f, tol=1e-12), L=f.grid.side / 2, tol=1e-12)
    g = hset.grid
    meta = {"dim": g.dim, "n": g.n, "h": g.h, "tangential_periodic": g.tangential_periodic,
            "a_hom": hset.basis.a_hom.tolist(), "basis": hset.basis.vectors.tolist(),
            "liouville_gap": {str(k): v for k, v in hset.liouville_gap.items()}}
    arrays = {f"phi_h_{i}": v.values for i, v in hset.phi_h.items()}
    arrays |= {f"sigma_h_{i}_{j}{k}": v.values
               for i, fps in hset.sigma_h.items() for (j, k), v in fps.sigma.items()}
    arrays |= {f"varphi_{i}": v.values for i, v in hset.varphi.items()}
    write_arrays(path, meta, arrays)


def test_excess_rejects_a_bundle_of_another_field(tmp_path, monkeypatch, capsys):
    """A bundle of another field exits 2 before any solve and without
    writing the table: one built from an n=64 field, one from a field of
    another seed on the same grid (it exited 0 with the other field's
    numbers), and one in the layout that names no field, with the remedy."""
    fld = tmp_path / "f.bin"
    main(["field", "sample", "--spec", str(write_spec(tmp_path, n=32, seed=7)), "--out", str(fld)])
    bundles = {}
    for name, n, seed in (("other_n", 64, 7), ("other_seed", 32, 8)):
        src, bundles[name] = tmp_path / f"{name}.bin", tmp_path / f"{name}.npz"
        main(["field", "sample", "--spec", str(write_spec(tmp_path, n=n, seed=seed)),
              "--out", str(src)])
        assert main(["halfspace", "--field", str(src), "--out", str(bundles[name])]) == 0
    bundles["parent_layout"] = tmp_path / "parent_layout.npz"
    parent_layout_bundle(fld, bundles["parent_layout"])

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the bundle was checked")

    monkeypatch.setattr(cli, "solve_pair", no_solve)
    monkeypatch.setattr(cli, "harmonic_sample", no_solve)
    out = tmp_path / "excess.csv"
    for name, hs in bundles.items():
        capsys.readouterr()
        assert main(["excess", "--field", str(fld), "--hs", str(hs), "--R", "8",
                     "--seeds", "1", "--out", str(out)]) == 2, name
        assert not out.exists()
        assert "run `homlab halfspace` on the field again" in capsys.readouterr().err, name


def malformed_bundles(bundle):
    """Files named by how they fail to be the half-space bundle at
    ``bundle``."""
    from homlab.field import read_arrays, write_arrays

    raw = bundle.read_bytes()
    meta, arrays = read_arrays(bundle)
    out = {name: bundle.with_name(f"{name}.npz") for name in (
        "not_a_zip", "truncated", "no_meta", "no_basis_key", "short_phi", "field_file",
        "no_phi_h_0", "basis_3x3")}
    out["not_a_zip"].write_bytes(b"not a bundle\n")
    out["truncated"].write_bytes(raw[: len(raw) // 2])
    np.savez(out["no_meta"], **arrays)
    write_arrays(out["no_basis_key"], {k: v for k, v in meta.items() if k != "basis"}, arrays)
    write_arrays(out["short_phi"], meta, {**arrays, "phi_h_0": arrays["phi_h_0"][:-1]})
    write_arrays(out["no_phi_h_0"], meta, {k: v for k, v in arrays.items() if k != "phi_h_0"})
    write_arrays(out["basis_3x3"], {**meta, "basis": np.eye(3).tolist()}, arrays)
    return out


def test_excess_refuses_a_malformed_bundle(tmp_path, monkeypatch, capsys):
    """A file that is not a half-space bundle exits 2 before any solve and
    without writing the table: a non-zip, a truncated bundle, one without
    its meta entry, a meta key or its phi_h_0, one with a wrong-shaped
    array or a 3x3 basis on a 2d grid, and a field file (they exited 4 or 1
    with a traceback, or 0 with a table)."""
    fld = tmp_path / "field.bin"
    assert main(["field", "sample", "--spec", str(write_spec(tmp_path)), "--out", str(fld)]) == 0
    hs = tmp_path / "hs.npz"
    assert main(["halfspace", "--field", str(fld), "--out", str(hs)]) == 0
    bad = malformed_bundles(hs)
    bad["field_file"].write_bytes(fld.read_bytes())

    def no_solve(*args, **kwargs):
        raise AssertionError("solved although the bundle is malformed")

    monkeypatch.setattr(cli, "solve_pair", no_solve)
    monkeypatch.setattr(cli, "harmonic_sample", no_solve)
    out = tmp_path / "excess.csv"
    for name, path in bad.items():
        capsys.readouterr()
        assert main(["excess", "--field", str(fld), "--hs", str(path), "--R", "8",
                     "--seeds", "1", "--out", str(out)]) == 2, name
        assert capsys.readouterr().err.startswith(f"config error: {path}"), name
        assert not out.exists()


BUNDLE_META = ["dim", "n", "h", "tangential_periodic", "a_hom", "basis", "field_sha256"]


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """dim -> (field, the half-space bundle of it): 2d n=32 and 3d n=16."""
    tmp = tmp_path_factory.mktemp("bundles")
    out = {}
    for dim, n in ((2, 32), (3, 16)):
        f = load_field(field_file(tmp, dim, n, 3))
        hs = tmp / f"hs{dim}.npz"
        cli.save_halfspace_bundle(hs, build_halfspace_set(f, solve_pair(f), L=n / 2))
        out[dim] = (f, hs)
    return out


@pytest.mark.parametrize("dim", [2, 3])
def test_halfspace_bundle_holds_what_its_loader_reads(bundles, dim):
    """The meta keys and the tangential phi_h, nothing more (the 2d n=32
    bundle was 23,746 B with every sigma_h and varphi)."""
    from homlab.field import read_arrays

    f, hs = bundles[dim]
    meta, arrays = read_arrays(hs)
    assert sorted(meta) == sorted(BUNDLE_META)
    assert sorted(arrays) == [f"phi_h_{i}" for i in range(dim - 1)]
    assert meta["field_sha256"] == cli.field_sha256(f)
    if dim == 2:
        assert hs.stat().st_size <= 0.3 * 23746


@pytest.mark.parametrize("dim, name", [(d, name) for d in (2, 3) for name in (
    BUNDLE_META + [f"phi_h_{i}" for i in range(d - 1)])])
def test_halfspace_bundle_without_any_one_entry_is_refused(bundles, tmp_path, dim, name):
    from homlab.field import FieldFileError, read_arrays, write_arrays

    f, hs = bundles[dim]
    meta, arrays = read_arrays(hs)
    cli.load_halfspace_bundle(hs, f)
    cut = tmp_path / "cut.npz"
    write_arrays(cut, {k: v for k, v in meta.items() if k != name},
                 {k: v for k, v in arrays.items() if k != name})
    with pytest.raises(FieldFileError):
        cli.load_halfspace_bundle(cut, f)


def test_field_file_of_the_retired_format_is_refused(tmp_path, capsys):
    # a HOMLAB-FIELD-v1 file exits 2 with the remedy: sample it again
    v1 = tmp_path / "v1.bin"
    v1.write_bytes(b"HOMLAB-FIELD-v1\n2 8 1.0 torus 0.25 7\n" + bytes(8 * 2 * 64 * 4))
    assert main(["field", "check", "--field", str(v1)]) == 2
    err = capsys.readouterr().err
    assert "is not a homlab archive" in err and "homlab field sample" in err


def test_corrector_direction_flag_validation(tmp_path):
    spec = write_spec(tmp_path)
    fld = tmp_path / "field.bin"
    main(["field", "sample", "--spec", str(spec), "--out", str(fld)])
    out = tmp_path / "c.csv"
    assert main(["corrector", "--field", str(fld), "--directions", "e9",
                 "--radii", "8:8", "--out", str(out)]) == 2
    # --directions e2 sums the basis row e2 alone; radii stop at side / 2
    assert main(["corrector", "--field", str(fld), "--directions", "e2",
                 "--radii", "8:64", "--out", str(out)]) == 0
    pair = solve_pair(load_field(fld), tol=1e-12)
    want = cli.corrector_rows(sublinearity_curve(pair, [8.0, 16.0], basis=[[0.0, 1.0]]))
    assert read_csv(out)[1] == want
    # without --radii: the config default 8h..side/4, as in the pipeline
    assert main(["corrector", "--field", str(fld), "--out", str(out)]) == 0
    assert read_csv(out)[1] == cli.corrector_rows(sublinearity_curve(pair, [8.0]))


def test_pipeline_failure_marks_manifest(tmp_path):
    cfg = {
        "ensemble": {"kind": "checkerboard", "lam": 0.25,
                     "params": {"values": [0.25, 1.5], "cell_size": 1.0}},  # gain > 1
        "grid": {"dim": 2, "n": 32, "h": 1.0},
        "seeds": [0],
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(p), "--out-dir", str(out)]) == 4
    manifest = json.loads(sorted(out.glob("manifest__*.json"))[-1].read_text())
    assert "failed" in manifest and "EllipticityError" in manifest["failed"]


def test_pipeline_rewrites_missing_dyadic_and_excess_outputs(tmp_path):
    cfg = {
        "ensemble": {"kind": "checkerboard", "lam": 0.25,
                     "params": {"values": [0.25, 1.0], "cell_size": 1.0}},
        "grid": {"dim": 2, "n": 64, "h": 1.0},
        "seeds": [0],
        "radii": [8.0],
        "halfspace": {"L": 32.0, "mode": "dyadic", "dyadic": {"r0": 8.0, "n_max": 0}},
        "excess": {"R": 16.0, "radii": [4.0, 8.0]},
        "tol": 1e-11,
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(p), "--out-dir", str(out)]) == 0
    tag = config_hash(validate_config(cfg))
    for name, stage in ((f"halfspace_dyadic__{tag}__seed0.csv", "halfspace"),
                        (f"excess__{tag}.csv", "excess")):
        target = out / name
        before = target.read_bytes()
        target.unlink()
        assert main(["pipeline", "--config", str(p), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / f"manifest__{tag}.json").read_text())
        assert manifest["stages"][stage]["cached"] is False
        assert target.read_bytes() == before


def test_halfspace_bundle_written_to_exact_path(tmp_path):
    spec = write_spec(tmp_path)
    fld = tmp_path / "field.bin"
    main(["field", "sample", "--spec", str(spec), "--out", str(fld)])
    hs_bin = tmp_path / "hs.bin"
    hs_csv = tmp_path / "hs.csv"
    assert main(["halfspace", "--field", str(fld), "--out", f"{hs_bin},{hs_csv}"]) == 0
    assert hs_bin.exists() and not (tmp_path / "hs.bin.npz").exists()
    out = tmp_path / "excess.csv"
    assert main(["excess", "--field", str(fld), "--hs", str(hs_bin), "--R", "8",
                 "--seeds", "1", "--out", str(out)]) == 0


def test_report_follows_config_then_newest_manifest(tmp_path):
    paths, tags = [], []
    for seed in (0, 1):
        p = small_config(tmp_path, seeds=(seed,))
        named = tmp_path / f"config{seed}.json"
        p.rename(named)
        paths.append(named)
        tags.append(config_hash(load_config(named)))
    first, last = sorted(range(2), key=lambda i: tags[i])
    out = tmp_path / "run"
    for i in (first, last):
        assert main(["pipeline", "--config", str(paths[i]), "--out-dir", str(out)]) == 0
    for rp in out.glob("report__*.json"):
        rp.unlink()
    assert main(["report", "--out-dir", str(out), "--config", str(paths[first])]) == 0
    assert [p.name for p in out.glob("report__*.json")] == [f"report__{tags[first]}.json"]
    # without --config: the newest manifest, here the rerun of the first config
    assert main(["pipeline", "--config", str(paths[first]), "--out-dir", str(out)]) == 0
    for rp in out.glob("report__*.json"):
        rp.unlink()
    assert main(["report", "--out-dir", str(out)]) == 0
    assert [p.name for p in out.glob("report__*.json")] == [f"report__{tags[first]}.json"]


def test_excess_with_bundle_skips_whole_space_pair(tmp_path, monkeypatch):
    spec = write_spec(tmp_path)
    fld = tmp_path / "field.bin"
    main(["field", "sample", "--spec", str(spec), "--out", str(fld)])
    hs_bin = tmp_path / "hs.npz"
    assert main(["halfspace", "--field", str(fld), "--out", str(hs_bin)]) == 0
    rebuilt = tmp_path / "rebuilt.csv"
    assert main(["excess", "--field", str(fld), "--R", "8", "--seeds", "2",
                 "--out", str(rebuilt)]) == 0

    def no_pair(*args, **kwargs):
        raise AssertionError("solve_pair called although --hs was given")

    monkeypatch.setattr(cli, "solve_pair", no_pair)
    out = tmp_path / "excess.csv"
    assert main(["excess", "--field", str(fld), "--hs", str(hs_bin), "--R", "8",
                 "--seeds", "2", "--out", str(out)]) == 0
    assert out.read_bytes() == rebuilt.read_bytes()


def test_report_reads_the_config_from_the_manifest(tmp_path, capsys):
    """The manifest holds the hashed config, from which ``report`` takes the
    seeds; a manifest without one, with one of another hash, or that is no
    JSON object exits 2 and names the remedy, a cached rerun of ``pipeline``."""
    cfg = small_config(tmp_path, seeds=(3, 1))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out-dir", str(out), "--threads", "2"]) == 0
    manifest_path = next(out.glob("manifest__*.json"))
    manifest = json.loads(manifest_path.read_text())
    filled = load_config(cfg)
    assert manifest["config"] == cli.hashed_config(filled) and "threads" not in manifest["config"]
    assert config_hash(manifest["config"]) == manifest["config_hash"] == config_hash(filled)
    report = out / f"report__{manifest['config_hash']}.json"
    want = report.read_bytes()
    report.unlink()
    assert main(["report", "--out-dir", str(out)]) == 0
    assert report.read_bytes() == want
    for broken in ({k: v for k, v in manifest.items() if k != "config"},
                   {**manifest, "config": {**manifest["config"], "seeds": [3]}}, []):
        manifest_path.write_text(json.dumps(broken))
        capsys.readouterr()
        assert main(["report", "--out-dir", str(out)]) == 2
        assert "rerun `homlab pipeline`" in capsys.readouterr().err
    # the rerun reads every stage from cache and writes the manifest again
    assert main(["pipeline", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert json.loads(manifest_path.read_text())["config"] == manifest["config"]
    assert main(["report", "--out-dir", str(out)]) == 0


def test_pipeline_builds_one_operator_per_field_and_kinds(tmp_path, monkeypatch):
    """One operator per (field, boundary kinds) and stage function: the
    torus, slab and window operators once per seed: the half-space stage
    builds the slab operator and hands it to build_halfspace_set,
    halfspace_residuals and dyadic_construction; the direct half-space
    correction is not solved twice."""
    import importlib

    from homlab import pde
    from homlab.grid import TORUS

    builds = []
    init = pde.Operator.__init__

    def counting_init(self, field, bc):
        grid = field.grid
        builds.append("torus" if grid.topology == TORUS
                      else "slab" if grid.tangential_periodic else "window")
        init(self, field, bc)

    solves = []

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return pde.solve(*args, **kwargs)

    def counting_solve_many(systems, **kwargs):
        solves.extend(1 for _ in systems)
        return pde.solve_many(systems, **kwargs)

    monkeypatch.setattr(pde.Operator, "__init__", counting_init)
    for name in ("corrector", "halfspace", "excess"):
        module = importlib.import_module(f"homlab.{name}")
        for attr, counting in (("solve", counting_solve), ("solve_many", counting_solve_many)):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, counting)
    n_max = 1
    cfg = validate_config({
        "ensemble": {"kind": "checkerboard", "lam": 0.25,
                     "params": {"values": [0.25, 1.0], "cell_size": 1.0}},
        "grid": {"dim": 2, "n": 64, "h": 1.0},
        "seeds": [0],
        "halfspace": {"L": 32.0, "mode": "dyadic", "dyadic": {"r0": 8.0, "n_max": n_max}},
        "excess": {"R": 16.0, "radii": [4.0, 8.0]},
        "tol": 1e-11,
    })
    manifest = cli.run_pipeline(cfg, tmp_path / "run")
    assert "failed" not in manifest
    assert sorted(builds) == ["slab", "torus", "window"]
    # d correctors, d - 1 half-space corrections, n_max + 2 annuli, one sample
    assert len(solves) == 2 + 1 + (n_max + 2) + 1


def test_pipeline_cross_term_checkerboard(tmp_path):
    # the symmetric and the nonsymmetric cross checkerboard
    for name, values in zip(("symmetric", "nonsymmetric"), CROSS_CHECKERBOARDS):
        cfg = json.loads(small_config(tmp_path, seeds=(0,)).read_text())
        cfg["ensemble"]["params"]["values"] = list(values)
        out = tmp_path / name
        manifest = cli.run_pipeline(validate_config(cfg), out)
        assert "failed" not in manifest
        report = json.loads(sorted(out.glob("report__*.json"))[-1].read_text())
        a_hom = np.array(report["a_hom_mean"])
        assert a_hom.shape == (2, 2) and np.all(np.isfinite(a_hom))
        assert report["residual_summary"]["sigma_identity_max"] <= 1e-10


def test_pipeline_cache_keyed_on_version(tmp_path, monkeypatch):
    cfg = validate_config(json.loads(small_config(tmp_path, seeds=(0,)).read_text()))
    out = tmp_path / "run"
    cli.run_pipeline(cfg, out)
    old_tag = config_hash(cfg)
    old = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    monkeypatch.setattr(cli, "__version__", cli.__version__ + "+next")
    new_tag = config_hash(cfg)
    assert new_tag != old_tag
    manifest = cli.run_pipeline(cfg, out)
    assert manifest["version"] == cli.__version__
    assert all(stage["cached"] is False for stage in manifest["stages"].values())
    # recomputed under the new key, with the same numbers
    for name, data in old.items():
        assert (out / name.replace(old_tag, new_tag)).read_bytes() == data


def test_pipeline_crash_mid_csv_leaves_no_partial_output(tmp_path, monkeypatch):
    cfg = validate_config(json.loads(small_config(tmp_path, seeds=(0,)).read_text()))
    out = tmp_path / "run"
    cli.run_pipeline(cfg, out)
    target = out / f"corrector__{config_hash(cfg)}__seed0.csv"
    complete = target.read_bytes()
    target.unlink()
    real_fmt, calls = cli.fmt, []

    def failing_fmt(x):  # the third value of the first CSV row fails
        calls.append(x)
        if len(calls) == 3:
            raise OSError("disk full")
        return real_fmt(x)

    monkeypatch.setattr(cli, "fmt", failing_fmt)
    with pytest.raises(OSError, match="disk full"):
        cli.run_pipeline(cfg, out)
    assert len(calls) == 3
    assert not target.exists()
    assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]
    monkeypatch.setattr(cli, "fmt", real_fmt)
    manifest = cli.run_pipeline(cfg, out)
    assert manifest["stages"]["corrector"]["cached"] is False
    assert target.read_bytes() == complete


def field_file(tmp_path, dim, n, seed):
    """The field the pipeline samples for ``seed``, saved for the subcommands."""
    from homlab.field import EnsembleSpec, sample_field, save_field
    from homlab.grid import Grid

    spec = EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=seed)
    path = tmp_path / f"field{seed}.bin"
    save_field(sample_field(spec, Grid.torus(dim, n)), path)
    return path


def stage_config(dim, n, seed, **extra):
    return validate_config({
        "ensemble": {"kind": "checkerboard", "lam": 0.25,
                     "params": {"values": [0.25, 1.0], "cell_size": 1.0}},
        "grid": {"dim": dim, "n": n, "h": 1.0},
        "seeds": [seed],
        "tol": 1e-12,
        **extra,
    })


def test_excess_rows_keep_one_window_alive(monkeypatch):
    """Two samples on one field share one window operator."""
    from homlab import pde
    from homlab.field import EnsembleSpec, sample_field
    from homlab.grid import Grid

    cfg = stage_config(2, 32, 0, excess={"R": 8.0})
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=0), Grid.torus(2, 32))
    hset = build_halfspace_set(f, solve_pair(f, tol=1e-10), L=16.0, tol=1e-10)
    windows = []
    init = pde.Operator.__init__

    def recording_init(self, field, bc):
        init(self, field, bc)
        if not field.grid.tangential_periodic:
            windows.append(self)

    monkeypatch.setattr(pde.Operator, "__init__", recording_init)
    rows = cli.excess_rows(cfg, f, hset, [0, 1])
    assert len(windows) == 1
    assert {row[0] for row in rows} == {0, 1}


def test_pipeline_keeps_one_seed_alive(tmp_path, monkeypatch):
    """The pipeline runs seed by seed: when a seed's torus field is sampled,
    at most one earlier field and one excess window are alive."""
    import gc
    import weakref

    from homlab import pde

    fields, windows, alive = [], [], []
    sample, init = cli.sample_field, pde.Operator.__init__

    def recording_sample(spec, grid):
        gc.collect()
        alive.append((sum(w() is not None for w in fields),
                      sum(w() is not None for w in windows)))
        f = sample(spec, grid)
        fields.append(weakref.ref(f))
        return f

    def recording_init(self, field, bc):
        init(self, field, bc)
        if not field.grid.tangential_periodic:
            windows.append(weakref.ref(self))

    monkeypatch.setattr(cli, "sample_field", recording_sample)
    monkeypatch.setattr(pde.Operator, "__init__", recording_init)
    cfg = validate_config(json.loads(small_config(tmp_path, seeds=(0, 1, 2)).read_text()))
    assert cfg["threads"] == 1
    manifest = cli.run_pipeline(cfg, tmp_path / "run")
    assert "failed" not in manifest
    assert len(fields) == 3 and len(windows) == 3
    assert all(n_fields <= 1 and n_windows <= 1 for n_fields, n_windows in alive)


def test_corrector_command_matches_corrector_stage_3d(tmp_path):
    # the default runs every direction, e3 included
    cfg = stage_config(3, 16, 2, radii=[2.0, 4.0], excess={"radii": [4.0]})
    cli.run_pipeline(cfg, tmp_path / "run")
    out = tmp_path / "curve.csv"
    assert main(["corrector", "--field", str(field_file(tmp_path, 3, 16, 2)), "--radii", "2:4",
                 "--tol", "1e-12", "--out", str(out)]) == 0
    tag = config_hash(cfg)
    assert out.read_bytes() == (tmp_path / "run" / f"corrector__{tag}__seed2.csv").read_bytes()


@pytest.mark.parametrize("mode", ["direct", "dyadic"])
def test_halfspace_command_matches_halfspace_stage(tmp_path, mode):
    # n_max 2 reaches the annulus radius 64, beyond the radii of both the
    # stage's curve (side / 4) and the command's default (side / 2)
    # the dyadic block is read in dyadic mode only, and refused in direct mode
    annuli = {"dyadic": {"r0": 8.0, "n_max": 2}} if mode == "dyadic" else {}
    flags = ["--r0", "8", "--n-max", "2"] if mode == "dyadic" else []
    cfg = stage_config(2, 64, 5, halfspace={"L": 32.0, "mode": mode, **annuli})
    run = tmp_path / "run"
    cli.run_pipeline(cfg, run)
    tag = config_hash(cfg)
    hs_csv = tmp_path / "hs.csv"
    assert main(["halfspace", "--field", str(field_file(tmp_path, 2, 64, 5)),
                 "--mode", mode, *flags, "--tol", "1e-12",
                 "--out", f"{tmp_path / 'hs.npz'},{hs_csv}"]) == 0
    assert hs_csv.read_bytes() == (run / f"halfspace__{tag}__seed5.csv").read_bytes()
    dyadic = tmp_path / "hs.dyadic.csv"
    if mode == "dyadic":
        assert dyadic.read_bytes() == (run / f"halfspace_dyadic__{tag}__seed5.csv").read_bytes()
    else:
        assert not dyadic.exists()


def test_excess_command_matches_excess_stage(tmp_path):
    # the pipeline's trace for field seed s is trace seed s, so --seeds s+1
    # reaches it; both paths solve the harmonic samples at one tolerance
    seed = 1
    cfg = stage_config(2, 64, seed, halfspace={"L": 32.0}, excess={"R": 16.0})
    cli.run_pipeline(cfg, tmp_path / "run")
    fld = str(field_file(tmp_path, 2, 64, seed))
    hs_bin = tmp_path / "hs.npz"
    assert main(["halfspace", "--field", fld, "--tol", "1e-12",
                 "--out", str(hs_bin)]) == 0
    out = tmp_path / "excess.csv"
    assert main(["excess", "--field", fld, "--hs", str(hs_bin), "--R", "16",
                 "--seeds", str(seed + 1), "--tol", "1e-12", "--out", str(out)]) == 0
    header, *lines = out.read_text().splitlines()
    want = (tmp_path / "run" / f"excess__{config_hash(cfg)}.csv").read_text().splitlines()
    assert header == want[0]
    rows = [ln for ln in lines if ln.startswith(f"{seed},")]
    assert rows and rows == want[1:]


def dyadic_run_config(tmp_path):
    """A two-seed n = 32 config in dyadic mode, so that every kind of
    output is written."""
    cfg = json.loads(small_config(tmp_path).read_text())
    cfg["halfspace"] = {"L": 16.0, "mode": "dyadic", "dyadic": {"r0": 8.0, "n_max": 0}}
    p = tmp_path / "dyadic.json"
    p.write_text(json.dumps(cfg))
    return p


@pytest.mark.parametrize("mode", ["direct", "dyadic"])
def test_run_directory_holds_exactly_the_listed_outputs(tmp_path, mode):
    """The stage writer, the cache check and the report name the same
    files: a run directory holds ``run_outputs``, the manifest and the
    report, before and after a cached rerun."""
    p = dyadic_run_config(tmp_path) if mode == "dyadic" else small_config(tmp_path)
    cfg = load_config(p)
    tag = config_hash(cfg)
    want = set(cli.run_outputs(cfg, tag)) | {f"manifest__{tag}.json", f"report__{tag}.json"}
    assert len(want) == (9 if mode == "dyadic" else 7) + 2
    out = tmp_path / "run"
    for _ in range(2):
        assert main(["pipeline", "--config", str(p), "--out-dir", str(out)]) == 0
        assert {q.name for q in out.iterdir()} == want
    manifest = json.loads((out / f"manifest__{tag}.json").read_text())
    assert all(stage["cached"] for stage in manifest["stages"].values())


@pytest.fixture(scope="module")
def dyadic_run(tmp_path_factory):
    """A finished dyadic run: its config file, tag and directory."""
    base = tmp_path_factory.mktemp("dyadic_run")
    p = dyadic_run_config(base)
    out = base / "run"
    assert main(["pipeline", "--config", str(p), "--out-dir", str(out)]) == 0
    return p, config_hash(load_config(p)), out


@pytest.mark.parametrize("name", [
    *(f"{kind}__{{tag}}__seed{seed}.csv"
      for kind in ("corrector", "halfspace", "halfspace_dyadic") for seed in (0, 1)),
    "corrector__{tag}__summary.json", "halfspace__{tag}__summary.json", "excess__{tag}.csv",
])
def test_report_refuses_a_run_without_any_one_output(dyadic_run, tmp_path, capsys, name):
    """A run that lacks one of its outputs exits 2, names the file and the
    remedy, and writes no report; the ``pipeline`` rerun writes it again."""
    p, tag, done = dyadic_run
    name = name.format(tag=tag)
    out = tmp_path / "run"
    shutil.copytree(done, out)
    want = (out / name).read_bytes()
    (out / name).unlink()
    (out / f"report__{tag}.json").unlink()
    capsys.readouterr()
    assert main(["report", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert name in err and "rerun `homlab pipeline`" in err
    assert not (out / f"report__{tag}.json").exists()
    assert main(["pipeline", "--config", str(p), "--out-dir", str(out)]) == 0
    assert (out / name).read_bytes() == want
    assert main(["report", "--out-dir", str(out), "--config", str(p)]) == 0
    assert (out / f"report__{tag}.json").read_bytes() == (done / f"report__{tag}.json").read_bytes()
    assert name in cli.run_outputs(load_config(p), tag)


def test_report_with_config_reads_the_config_from_the_manifest(tmp_path, capsys):
    """``--config`` only picks the tag: the seeds come from the manifest,
    and a manifest whose config is not of that tag exits 2 with the remedy."""
    p = small_config(tmp_path, seeds=(0, 1))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(p), "--out-dir", str(out)]) == 0
    manifest_path = next(out.glob("manifest__*.json"))
    manifest = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps({**manifest,
                                         "config": {**manifest["config"], "seeds": [0]}}))
    capsys.readouterr()
    assert main(["report", "--out-dir", str(out), "--config", str(p)]) == 2
    assert "rerun `homlab pipeline`" in capsys.readouterr().err


def test_one_corrector_radius_reports_no_decay(tmp_path):
    # radii [8] give each seed one delta: no decay ratio (it read 1.0) and no
    # slope (the key was missing); both keys are there and null
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(small_config(tmp_path)), "--out-dir", str(out)]) == 0
    report = strict_json(out)["report"]
    assert report["delta_decay_ratio_mean"] is None
    assert report["delta_fit_exponent_mean"] is None
    assert set(report["delta_curves"]) == {"0", "1"}


def test_halfspace_record_is_the_worst_tangential_direction_3d():
    """A 3d half-space record holds each residual and the Liouville gap at
    their largest over both tangential directions; at seed 0 direction 1
    has the larger gap."""
    from homlab.field import restrict_to_half_box
    from homlab.halfspace import half_box_operator, halfspace_residuals

    cfg = stage_config(3, 16, 0, radii=[2.0, 4.0], excess={"radii": [4.0]})
    f = sample_field(EnsembleSpec.checkerboard(values=(0.25, 1.0), seed=0), Grid.torus(3, 16))
    pair = solve_pair(f, tol=cfg["tol"])
    hset, _, entry, _ = cli.halfspace_seed(cfg, f, pair, sublinearity_curve(pair, cfg["radii"]))
    op = half_box_operator(restrict_to_half_box(f, cfg["halfspace"]["L"]))
    residuals = [halfspace_residuals(op, hset, i) for i in (0, 1)]
    assert set(hset.liouville_gap) == {0, 1}
    assert hset.liouville_gap[1] > hset.liouville_gap[0]
    assert entry == {**{key: max(getattr(res, key) for res in residuals) for key in cli.RESIDUALS},
                     "liouville_gap": max(hset.liouville_gap.values())}


def test_excess_radius_below_8h_names_the_range(tmp_path, capsys):
    # R = 4 is a valid window of 4h, but excess --R takes the radii 8h 2^k <= R,
    # of which there is none; the error says so and blames no quadrature floor
    fld = tmp_path / "field.bin"
    assert main(["field", "sample", "--spec", str(write_spec(tmp_path)), "--out", str(fld)]) == 0
    capsys.readouterr()
    assert main(["excess", "--field", str(fld), "--R", "4", "--out",
                 str(tmp_path / "excess.csv")]) == 2
    err = capsys.readouterr().err
    assert "--R 4 " in err and "8h" in err and "quadrature floor" not in err
    assert not (tmp_path / "excess.csv").exists()
