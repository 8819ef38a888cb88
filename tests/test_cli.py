import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from homlab import cli
from homlab.corrector import FluxPotentialSet, solve_pair, sublinearity_curve
from homlab.field import load_field
from homlab.halfspace import build_halfspace_set
from homlab.cli import (
    ConfigError, CsvError, config_hash, load_config, main, read_csv, validate_config,
)


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


def test_field_check_flags_bad_field(tmp_path):
    spec = write_spec(tmp_path)
    out = tmp_path / "field.bin"
    main(["field", "sample", "--spec", str(spec), "--out", str(out)])
    from homlab.field import CoefficientField, load_field, save_field

    f = load_field(out)
    scaled = CoefficientField(f.grid, [1.5 * f.matrices(k) for k in range(2)], lam=f.lam, seed=f.seed)
    bad = tmp_path / "bad.bin"
    save_field(scaled, bad)
    assert main(["field", "check", "--field", str(bad)]) == 4


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
    assert main(["halfspace", "--field", str(fld), "--L", "16",
                 "--out", f"{hs_bin},{hs_csv}"]) == 0
    header, rows = read_csv(hs_csv)
    assert header[:2] == ["r", "delta_h"]
    bundle = np.load(hs_bin)
    assert sorted(bundle.files) == ["__meta__", "phi_h_0", "phi_h_1", "sigma_h_0_01",
                                    "sigma_h_1_01", "varphi_0"]
    # the bundle loads one FluxPotentialSet per direction, equal to the
    # saved set's (rebuilt here from the same field and tolerance)
    f = load_field(fld)
    hset = build_halfspace_set(f, solve_pair(f, tol=1e-12), L=16.0, tol=1e-12)
    loaded = cli.load_halfspace_bundle(hs_bin)
    assert list(loaded.sigma_h) == list(hset.sigma_h) == [0, 1]
    for i, fps in hset.sigma_h.items():
        got = loaded.sigma_h[i]
        assert isinstance(got, FluxPotentialSet) and got.grid == hset.grid
        assert list(got.sigma) == list(fps.sigma)
        for key, s in fps.sigma.items():
            assert got.sigma[key].offsets == s.offsets
            assert np.array_equal(got.sigma[key].values, s.values)
    assert np.array_equal(loaded.basis.a_hom, hset.basis.a_hom)


def test_halfspace_dyadic_mode(tmp_path):
    spec = write_spec(tmp_path, n=64)
    fld = tmp_path / "field.bin"
    main(["field", "sample", "--spec", str(spec), "--out", str(fld)])
    hs_bin = tmp_path / "hs.npz"
    hs_csv = tmp_path / "hs.csv"
    assert main(["halfspace", "--field", str(fld), "--L", "32", "--mode", "dyadic",
                 "--r0", "8", "--n-max", "0", "--out", f"{hs_bin},{hs_csv}"]) == 0
    header, rows = read_csv(tmp_path / "hs.dyadic.csv")
    assert header == ["n", "l_n", "energy", "bound_shape"]
    # an n_max below -1 leaves no annulus: an invariant violation, not a crash
    assert main(["halfspace", "--field", str(fld), "--L", "32", "--mode", "dyadic",
                 "--n-max", "-2", "--out", str(tmp_path / "no_annulus.npz")]) == 4


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


def test_pipeline_without_a_fitted_exponent_writes_null(tmp_path):
    # n=32 with the default radii leaves the excess stage one radius, so
    # no seed fits an exponent and no mean-value ratio compares two radii:
    # the CSV holds nan ratios and the summaries null, never NaN
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
    manifest = json.loads(next(out.glob("manifest__*.json")).read_text())
    assert "failed" not in manifest

    def no_constant(name):
        raise AssertionError(f"invalid JSON constant {name}")

    for pattern in ("excess__*__summary.json", "report__*.json"):
        doc = json.loads(next(out.glob(pattern)).read_text(), parse_constant=no_constant)
        summary = doc.get("excess", doc)
        assert summary["alpha_mean"] is None and summary["c_mean_max"] is None
    header, rows = read_csv(next(out.glob("excess__*.csv")))
    assert rows and all(np.isnan(row[header.index("mvp_ratio")]) for row in rows)


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
    # radii a stage would fail on are rejected before any solve: the default
    # corrector radii 8h..side/4 are empty at n=16, and an excess radius of
    # 2 is below the quadrature floor 4h
    good = json.loads(small_config(tmp_path).read_text())
    # so are non-positive radii, a slab height L other than side/2, a dyadic
    # r0 that is no power of two, an n_max below -1 (no annulus), an outer
    # annulus r0 2^(n_max+1) beyond 2L, an excess window 2R wider than the
    # torus or with a height R off the grid planes (the window half-box needs
    # an even number of cells a side), and seeds that are not a list of integers
    dyadic = {"L": 16.0, "mode": "dyadic"}
    for name, change in (("empty_radii", {"grid": {"dim": 2, "n": 16}, "radii": None}),
                         ("low_radius", {"radii": [2.0, 4.0, 8.0], "excess": {}}),
                         ("negative_radius", {"radii": [-8.0, 8.0]}),
                         ("short_slab", {"halfspace": {"L": 8.0, "mode": "direct"}}),
                         ("odd_r0", {"halfspace": {**dyadic, "dyadic": {"r0": 6.0, "n_max": 0}}}),
                         ("wide_annulus",
                          {"halfspace": {**dyadic, "dyadic": {"r0": 8.0, "n_max": 2}}}),
                         ("no_annulus",
                          {"halfspace": {**dyadic, "dyadic": {"r0": 8.0, "n_max": -2}}}),
                         ("wide_window", {"excess": {"R": 32.0, "radii": [4.0, 8.0]}}),
                         ("window_off_planes", {"excess": {"R": 7.25, "radii": [4.0]}}),
                         ("odd_window", {"excess": {"R": 7.5, "radii": [4.0]}}),
                         ("float_seeds", {"seeds": [0.5, 1]}),
                         ("string_seeds", {"seeds": ["a"]}),
                         ("scalar_seeds", {"seeds": 3})):
        cfg = {k: v for k, v in {**good, **change}.items() if v is not None}
        p3 = tmp_path / f"{name}.json"
        p3.write_text(json.dumps(cfg))
        out = tmp_path / name
        assert main(["pipeline", "--config", str(p3), "--out-dir", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())


def test_module_entry_point_runs_from_a_checkout():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run([sys.executable, "-m", "homlab", "--version"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == cli.__version__


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
    main(["halfspace", "--field", str(fld), "--L", "16", "--out", str(hs_bin)])
    out = tmp_path / "excess.csv"
    assert main(["excess", "--field", str(fld), "--hs", str(hs_bin), "--R", "8",
                 "--seeds", "1", "--out", str(out)]) == 0
    # the bundle path reproduces the rebuilt-set numbers
    out2 = tmp_path / "excess2.csv"
    main(["excess", "--field", str(fld), "--R", "8", "--seeds", "1", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


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
                        (f"excess__{tag}__summary.json", "excess")):
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
    assert main(["halfspace", "--field", str(fld), "--L", "16",
                 "--out", f"{hs_bin},{hs_csv}"]) == 0
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
    assert main(["halfspace", "--field", str(fld), "--L", "16", "--out", str(hs_bin)]) == 0
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


def test_report_takes_pipeline_overrides(tmp_path):
    cfg = small_config(tmp_path, seeds=(0,))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out-dir", str(out), "--tol", "1e-10"]) == 0
    for rp in out.glob("report__*.json"):
        rp.unlink()
    assert main(["report", "--out-dir", str(out), "--config", str(cfg), "--tol", "1e-10"]) == 0
    tag = json.loads(next(out.glob("manifest__*.json")).read_text())["config_hash"]
    assert [p.name for p in out.glob("report__*.json")] == [f"report__{tag}.json"]
    # the overrides change the hash, so the plain config has no run here
    assert main(["report", "--out-dir", str(out), "--config", str(cfg)]) == 2
    assert main(["report", "--out-dir", str(out), "--tol", "1e-10"]) == 2


def test_pipeline_builds_one_operator_per_field_and_kinds(tmp_path, monkeypatch):
    """One operator per (field, boundary kinds) and stage function: the
    torus and window operators once per seed, the slab operator once in
    build_halfspace_set and once in the half-space stage, which hands it to
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

    monkeypatch.setattr(pde.Operator, "__init__", counting_init)
    for name in ("corrector", "halfspace", "excess"):
        monkeypatch.setattr(importlib.import_module(f"homlab.{name}"), "solve", counting_solve)
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
    assert sorted(builds) == ["slab"] * 2 + ["torus", "window"]
    # d correctors, d - 1 half-space corrections, n_max + 2 annuli, one sample
    assert len(solves) == 2 + 1 + (n_max + 2) + 1


def test_pipeline_cross_term_checkerboard(tmp_path):
    cfg = json.loads(small_config(tmp_path, seeds=(0,)).read_text())
    cfg["ensemble"]["params"]["values"] = [[[0.6, 0.1], [0.1, 0.5]], 1.0]
    out = tmp_path / "run"
    manifest = cli.run_pipeline(validate_config(cfg), out)
    assert "failed" not in manifest
    report = json.loads(sorted(out.glob("report__*.json"))[-1].read_text())
    a_hom = np.array(report["a_hom_mean"])
    assert a_hom.shape == (2, 2) and np.all(np.isfinite(a_hom))
    assert manifest["residual_summary"]["sigma_identity_max"] <= 1e-10


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


def test_corrector_command_matches_corrector_stage_3d(tmp_path):
    # the default runs every direction, e3 included
    cfg = stage_config(3, 16, 2, radii=[2.0, 4.0], excess={"radii": [4.0]})
    cli.run_corrector_stage(cfg, tmp_path, "t")
    out = tmp_path / "curve.csv"
    assert main(["corrector", "--field", str(field_file(tmp_path, 3, 16, 2)), "--radii", "2:4",
                 "--tol", "1e-12", "--out", str(out)]) == 0
    assert out.read_bytes() == (tmp_path / "corrector__t__seed2.csv").read_bytes()


@pytest.mark.parametrize("mode", ["direct", "dyadic"])
def test_halfspace_command_matches_halfspace_stage(tmp_path, mode):
    # n_max 2 reaches the annulus radius 64, beyond the radii of both the
    # stage's curve (side / 4) and the command's default (side / 2)
    cfg = stage_config(2, 64, 5, halfspace={"L": 32.0, "mode": mode,
                                            "dyadic": {"r0": 8.0, "n_max": 2}})
    cli.run_halfspace_stage(cfg, tmp_path, "t", cli.run_corrector_stage(cfg, tmp_path, "t"))
    hs_csv = tmp_path / "hs.csv"
    assert main(["halfspace", "--field", str(field_file(tmp_path, 2, 64, 5)), "--L", "32",
                 "--mode", mode, "--r0", "8", "--n-max", "2", "--tol", "1e-12",
                 "--out", f"{tmp_path / 'hs.npz'},{hs_csv}"]) == 0
    assert hs_csv.read_bytes() == (tmp_path / "halfspace__t__seed5.csv").read_bytes()
    dyadic = tmp_path / "hs.dyadic.csv"
    if mode == "dyadic":
        assert dyadic.read_bytes() == (tmp_path / "halfspace_dyadic__t__seed5.csv").read_bytes()
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
    assert main(["halfspace", "--field", fld, "--L", "32", "--tol", "1e-12",
                 "--out", str(hs_bin)]) == 0
    out = tmp_path / "excess.csv"
    assert main(["excess", "--field", fld, "--hs", str(hs_bin), "--R", "16",
                 "--seeds", str(seed + 1), "--tol", "1e-12", "--out", str(out)]) == 0
    header, *lines = out.read_text().splitlines()
    want = (tmp_path / "run" / f"excess__{config_hash(cfg)}.csv").read_text().splitlines()
    assert header == want[0]
    rows = [ln for ln in lines if ln.startswith(f"{seed},")]
    assert rows and rows == want[1:]
