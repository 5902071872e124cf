import json
import os

import numpy as np
import pytest

from sbenflow import checks, cli
from sbenflow.balance import BarotropicPowerEos, IncompressibleEos
from sbenflow.cli import main
from sbenflow.config import ConfigError, load_config, parse_config
from sbenflow.fieldio import (ArchiveError, load_grid, load_path_archive, load_scalar,
                              load_vector, save_grid, save_path_archive, save_scalar,
                              save_vector)
from sbenflow.fields import Grid2P, ScalarField, VectorField
from sbenflow.sampling import random_scalar, random_vector
from sbenflow.sben import compressible_path, incompressible_path

from conftest import TWO_PI


BASE_CONFIG = {
    "grid": {"nx": 16, "ny": 16, "lx": TWO_PI, "ly": TWO_PI},
    "eos": {"kind": "incompressible", "rho0": 1.0},
    "viscosity": {"mu": 0.1},
    "gravitation": {"preset": "zero"},
    "time": {"t_final": 0.25, "n_intervals": 4, "n_ref": 16},
    "case": {"id": "taylor_green", "parameters": {"nu": 0.1, "amplitude": 1.0}},
    "conjugate": {"tol": 1e-10, "max_iter": 50000},
    "minimizer": {"max_iter": 40},
    "seed": 42,
}


def _write_config(tmp_path, overrides=None, drop=None):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, val in (overrides or {}).items():
        if "." in key:
            block, field = key.split(".")
            cfg[block][field] = val
        else:
            cfg[key] = val
    if drop:
        del cfg[drop]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def _replace_csv_row(row: int, new_row: str):
    def edit(text):
        lines = text.splitlines(keepends=True)
        lines[row + 1] = new_row + "\n"
        return "".join(lines)
    return edit


def _drop_json_key(key: str):
    def edit(text):
        block = json.loads(text)
        del block[key]
        return json.dumps(block)
    return edit


def _edit_manifest(edit):
    def apply(text):
        manifest = json.loads(text)
        edit(manifest)
        return json.dumps(manifest)
    return apply


def _set_slice(k: int, key: str, value):
    def edit(manifest):
        manifest["slices"][k][key] = value
    return _edit_manifest(edit)


def _keep_slices(n: int):
    def edit(manifest):
        del manifest["slices"][n:]
    return _edit_manifest(edit)


def _set_pressures(value):
    def edit(manifest):
        manifest["pressures"] = value
    return _edit_manifest(edit)


# file of a three-slice 16^2 archive (times 0, 0.1, 0.2) -> how it is broken
MALFORMED_ARCHIVE = {
    "non-numeric cell": ("v_0001.csv", _replace_csv_row(17, "1,1,0.5,abc,0")),
    "missing column": ("v_0001.csv", _replace_csv_row(17, "1,1,0.5,0")),
    "fractional index": ("v_0001.csv", _replace_csv_row(17, "1.5,1,0.5,0,0")),
    "index 99": ("v_0001.csv", _replace_csv_row(17, "99,1,0.5,0,0")),
    "index -1": ("v_0001.csv", _replace_csv_row(17, "-1,1,0.5,0,0")),
    "repeated cell": ("v_0001.csv", _replace_csv_row(17, "1,0,0.5,0,0")),
    "truncated grid.json": ("grid.json", lambda text: text[:len(text) // 2]),
    "truncated manifest.json": ("manifest.json", lambda text: text[:len(text) // 2]),
    "grid.json without nx": ("grid.json", _drop_json_key("nx")),
    "manifest without eos": ("manifest.json", _drop_json_key("eos")),
    "one slice": ("manifest.json", _keep_slices(1)),
    "no slices": ("manifest.json", _keep_slices(0)),
    "non-uniform times": ("manifest.json", _set_slice(2, "t", 0.25)),
    "repeated times": ("manifest.json", _set_slice(1, "t", 0.0)),
    "non-string v": ("manifest.json", _set_slice(1, "v", 7)),
    "non-list pressures": ("manifest.json", _set_pressures(5)),
    "non-string pressure": ("manifest.json", _set_pressures(["p_0000.csv", None])),
}


class TestFieldCsv:
    def test_scalar_round_trip(self, tmp_path, grid16, rng):
        s = random_scalar(grid16, rng)
        f = str(tmp_path / "s.csv")
        save_scalar(f, s)
        back = load_scalar(f, grid16)
        assert np.array_equal(back.data, s.data)
        header = open(f).readline().strip()
        assert header == "i,j,c0"

    def test_vector_round_trip(self, tmp_path, grid16, rng):
        v = random_vector(grid16, rng)
        f = str(tmp_path / "v.csv")
        save_vector(f, v)
        assert open(f).readline().strip() == "i,j,c0,c1,c2"
        assert np.array_equal(load_vector(f, grid16).data, v.data)

    def test_grid_sidecar(self, tmp_path):
        g = Grid2P(8, 12, 1.5, 2.5)
        f = str(tmp_path / "grid.json")
        save_grid(f, g)
        assert load_grid(f) == g


class TestPathArchive:
    def test_incompressible_round_trip(self, tmp_path, grid16, rng):
        eos = IncompressibleEos(1.2)
        times = [0.0, 0.1, 0.2]
        vels = [random_vector(grid16, rng) for _ in times]
        path = incompressible_path(grid16, eos, times, vels)
        d = str(tmp_path / "arch")
        save_path_archive(d, path)
        back = load_path_archive(d)
        assert back.kind == "incompressible"
        assert back.eos == eos
        for a, b in zip(back.states, path.states):
            assert a.t == b.t
            assert np.array_equal(a.v.data, b.v.data)

    def test_compressible_round_trip(self, tmp_path, grid16, rng):
        eos = BarotropicPowerEos(p0=2.0, gamma=1.3)
        times = [0.0, 0.05]
        vels = [random_vector(grid16, rng, amplitude=0.1) for _ in times]
        path = compressible_path(grid16, eos, times, vels)
        d = str(tmp_path / "arch")
        save_path_archive(d, path)
        back = load_path_archive(d)
        assert back.kind == "compressible"
        for a, b in zip(back.states, path.states):
            assert np.array_equal(a.rho.data, b.rho.data)

    def test_grid_mismatch_detected(self, tmp_path, grid16, rng):
        eos = IncompressibleEos()
        path = incompressible_path(grid16, eos, [0.0, 0.1],
                                   [random_vector(grid16, rng) for _ in range(2)])
        d = str(tmp_path / "arch")
        save_path_archive(d, path)
        with pytest.raises(ArchiveError, match="does not match"):
            load_path_archive(d, expect_grid=Grid2P(32, 32, TWO_PI, TWO_PI))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ArchiveError, match="manifest"):
            load_path_archive(str(tmp_path))


class TestConfig:
    def test_full_parse(self, tmp_path):
        cfg = load_config(_write_config(tmp_path))
        assert cfg.grid.nx == 16
        assert cfg.viscosity.mu == 0.1
        assert cfg.time.n_ref == 16
        assert cfg.case.case_id == "taylor_green"

    def test_missing_grid_block(self, tmp_path):
        with pytest.raises(ConfigError, match="grid"):
            load_config(_write_config(tmp_path, drop="grid"))

    def test_negative_viscosity(self, tmp_path):
        with pytest.raises(ConfigError, match="viscosity"):
            load_config(_write_config(tmp_path, overrides={"viscosity.mu": -1.0}))

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError, match="preset"):
            load_config(_write_config(tmp_path, overrides={"gravitation.preset": "magnetar"}))

    def test_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(p))

    def test_non_utf8_config_exits_config(self, tmp_path, capsys):
        p = tmp_path / "utf16.json"
        p.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(p))
        rc = main(["reference", "--config", str(p), "--out", str(tmp_path / "ref")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_defaults(self):
        cfg = parse_config(json.loads(json.dumps(BASE_CONFIG)))
        assert cfg.minimizer.max_iter == 40
        assert cfg.seed == 42


class TestCli:
    def test_check_passes_on_default_config(self, tmp_path, capsys):
        rc = main(["check", "--config", _write_config(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "invariants hold" in out

    def test_check_rejects_bad_viscosity(self, tmp_path):
        rc = main(["check", "--config",
                   _write_config(tmp_path, overrides={"viscosity.mu": 0.0})])
        assert rc == 2

    def test_missing_config_file(self):
        assert main(["check", "--config", "/no/such/file.json"]) == 2

    def test_reference_evaluate_minimize_round_trip(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        ref_dir = str(tmp_path / "ref")
        assert main(["reference", "--config", cfg, "--out", ref_dir]) == 0
        assert os.path.exists(os.path.join(ref_dir, "manifest.json"))

        eval_dir = str(tmp_path / "eval")
        assert main(["evaluate", "--config", cfg, "--archive", ref_dir,
                     "--out", eval_dir]) == 0
        report = json.loads(open(os.path.join(eval_dir, "report.json")).read())
        assert report["total_pi"] <= 1e-6 * report["dissipation_integral"]
        assert os.path.exists(os.path.join(eval_dir, "pressure_0000.csv"))
        # evaluate must not touch the archive
        manifest_before = open(os.path.join(ref_dir, "manifest.json")).read()
        assert "pressures" not in json.loads(manifest_before)

        min_dir = str(tmp_path / "min")
        assert main(["minimize", "--config", cfg, "--warm-start", ref_dir,
                     "--out", min_dir]) == 0
        min_report = json.loads(open(os.path.join(min_dir, "report.json")).read())
        assert min_report["total_pi"] <= report["total_pi"] * (1 + 1e-12)

    def test_evaluate_grid_mismatch(self, tmp_path):
        cfg = _write_config(tmp_path)
        ref_dir = str(tmp_path / "ref")
        assert main(["reference", "--config", cfg, "--out", ref_dir]) == 0
        cfg32 = _write_config(tmp_path, overrides={"grid.nx": 32, "grid.ny": 32})
        rc = main(["evaluate", "--config", cfg32, "--archive", ref_dir,
                   "--out", str(tmp_path / "e2")])
        assert rc == 2

    def test_reference_outputs_deterministic(self, tmp_path):
        # reference, evaluate and cold- and warm-start minimize, for both kinds:
        # every output byte but the wall time is the same on identical inputs
        compressible = {"eos": {"kind": "barotropic_power", "p0": 1.0, "rho0": 1.0,
                                "gamma": 1.4},
                        "case.id": "compressible_smooth",
                        "case.parameters": {"gamma": 1.4, "amplitude": 0.05,
                                            "p0": 1.0, "rho0": 1.0}}
        for kind, overrides in (("incompressible", {}), ("compressible", compressible)):
            work = tmp_path / kind
            work.mkdir()
            cfg = _write_config(work, overrides={**overrides, "minimizer.max_iter": 5})
            ref = str(work / "ref")
            assert main(["reference", "--config", cfg, "--out", ref]) == 0
            path = load_path_archive(ref)
            warm = str(work / "warm")
            save_path_archive(warm, path.with_velocities([1.05 * s.v for s in path.states[1:]]))
            runs = {"reference": ["reference", "--config", cfg],
                    "evaluate": ["evaluate", "--config", cfg, "--archive", ref],
                    "cold": ["minimize", "--config", cfg],
                    "warm": ["minimize", "--config", cfg, "--warm-start", warm]}
            for name, argv in runs.items():
                d1, d2 = str(work / f"{name}1"), str(work / f"{name}2")
                assert main(argv + ["--out", d1]) == 0
                assert main(argv + ["--out", d2]) == 0
                names = sorted(os.listdir(d1))
                assert names == sorted(os.listdir(d2))
                # a compressible evaluate writes no pressures, only its report
                assert any(n.endswith(".csv") for n in names) \
                    or (kind, name) == ("compressible", "evaluate")
                for n in names:
                    if n == "report.txt":   # its wall-time line is a measurement
                        continue
                    b1 = open(os.path.join(d1, n), "rb").read()
                    b2 = open(os.path.join(d2, n), "rb").read()
                    if n == "report.json":
                        r1, r2 = json.loads(b1), json.loads(b2)
                        r1.pop("wall_time"), r2.pop("wall_time")
                        assert r1 == r2, f"{kind} {name}: report.json differs"
                    else:
                        assert b1 == b2, f"{kind} {name}: {n} differs between identical runs"

    def test_minimize_perturbed_archive_reduces_tenfold(self, tmp_path):
        cfg = _write_config(tmp_path, overrides={"minimizer.max_iter": 80})
        ref_dir = str(tmp_path / "ref")
        assert main(["reference", "--config", cfg, "--out", ref_dir]) == 0

        ref = load_path_archive(ref_dir)
        perturbed = ref.with_velocities([1.05 * s.v for s in ref.states[1:]])
        pert_dir = str(tmp_path / "pert")
        save_path_archive(pert_dir, perturbed)

        eval_dir = str(tmp_path / "pe")
        assert main(["evaluate", "--config", cfg, "--archive", pert_dir,
                     "--out", eval_dir]) == 0
        pi_perturbed = json.loads(open(os.path.join(eval_dir, "report.json")).read())["total_pi"]

        min_dir = str(tmp_path / "pm")
        assert main(["minimize", "--config", cfg, "--warm-start", pert_dir,
                     "--out", min_dir]) == 0
        pi_min = json.loads(open(os.path.join(min_dir, "report.json")).read())["total_pi"]
        assert pi_min <= pi_perturbed / 10.0

    def test_unstable_reference_exits_numerical(self, tmp_path):
        # two huge steps over T = 4 violate the explicit stability bound
        cfg = _write_config(tmp_path, overrides={"time.t_final": 4.0,
                                                 "time.n_intervals": 2,
                                                 "time.n_ref": 2})
        rc = main(["reference", "--config", cfg, "--out", str(tmp_path / "r")])
        assert rc == 3

    def test_reference_density_failure_exits_numerical(self, tmp_path):
        # a strong acoustic pulse on a coarse grid drives the density below
        # zero part-way through the run
        cfg = _write_config(tmp_path, overrides={
            "eos.kind": "barotropic_power", "viscosity.mu": 0.01,
            "time.t_final": 3.0, "time.n_intervals": 4, "time.n_ref": 600,
            "case.id": "compressible_smooth", "case.parameters": {"amplitude": 0.95}})
        rc = main(["reference", "--config", cfg, "--out", str(tmp_path / "r")])
        assert rc == 3

    def test_minimize_stalled_mass_balance_exits_numerical(self, tmp_path):
        # cold start with dt = 2: the mass-balance fixed point cannot contract
        cfg = _write_config(tmp_path, overrides={
            "eos.kind": "barotropic_power", "time.t_final": 4.0,
            "time.n_intervals": 2, "time.n_ref": 2,
            "case.id": "compressible_smooth", "case.parameters": {"amplitude": 0.5}})
        rc = main(["minimize", "--config", cfg, "--out", str(tmp_path / "m")])
        assert rc == 3

    @pytest.mark.parametrize("amplitude", [1.5, 1.0, -1.0, float("nan")])
    def test_non_positive_initial_density_exits_config(self, tmp_path, amplitude):
        cfg = _write_config(tmp_path, overrides={
            "eos.kind": "barotropic_power",
            "case.id": "compressible_smooth", "case.parameters": {"amplitude": amplitude}})
        with pytest.raises(ConfigError, match="amplitude"):
            load_config(cfg)
        assert main(["reference", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert main(["minimize", "--config", cfg, "--out", str(tmp_path / "m")]) == 2

    @pytest.mark.parametrize("key, value", [
        ("restart_every", 0), ("max_iter", "abc"), ("backtrack_factor", 0),
        ("backtrack_factor", 1.5)])
    def test_bad_minimizer_setting_exits_config(self, tmp_path, key, value):
        cfg = _write_config(tmp_path, overrides={f"minimizer.{key}": value})
        with pytest.raises(ConfigError, match=f"minimizer.{key}"):
            load_config(cfg)
        assert main(["minimize", "--config", cfg, "--out", str(tmp_path / "m")]) == 2

    @pytest.mark.parametrize("key, value, match", [
        ("case.id", "taylor_gren", "case.id"),
        ("case.parameters", 5, "case.parameters"),
        ("case.parameters", {"nu": "abc"}, "case.parameters.nu"),
        ("gravitation.parameters", 5, "gravitation.parameters")])
    def test_bad_case_or_gravitation_exits_config(self, tmp_path, key, value, match):
        cfg = _write_config(tmp_path, overrides={key: value})
        with pytest.raises(ConfigError, match=match):
            load_config(cfg)
        assert main(["reference", "--config", cfg, "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("value", ["abc", 1.5, True, -1, None])
    def test_bad_seed_exits_config(self, tmp_path, value):
        cfg = _write_config(tmp_path, overrides={"seed": value})
        with pytest.raises(ConfigError, match="seed"):
            load_config(cfg)
        assert main(["reference", "--config", cfg, "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("value", ["-1", "-7"])
    def test_bad_seed_override_exits_config(self, tmp_path, value, capsys):
        cfg = _write_config(tmp_path)
        assert main(["--seed", value, "check", "--config", cfg]) == 2
        assert "seed" in capsys.readouterr().err
        assert main(["--seed", value, "reference", "--config", cfg,
                     "--out", str(tmp_path / "r")]) == 2

    def test_seed_override_replaces_config_seed(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(checks, "run_all", lambda config: seen.append(config.seed) or [])
        assert main(["--seed", "7", "check", "--config", _write_config(tmp_path)]) == 0
        assert seen == [7]

    def test_conjugate_block_is_checked_and_changes_no_output(self, tmp_path, capsys):
        # the settings of a former iterative solve: still type-checked ...
        for key in ("conjugate.tol", "conjugate.max_iter"):
            bad = _write_config(tmp_path, overrides={key: "x"})
            assert main(["check", "--config", bad]) == 2
            assert f"bad value for {key}" in capsys.readouterr().err
        # ... and ignored: check and evaluate write the same bytes with a loose
        # tolerance as with no block at all
        ref = str(tmp_path / "ref")
        assert main(["reference", "--config", _write_config(tmp_path), "--out", ref]) == 0
        outputs = []
        for name, cfg in (("loose", {"overrides": {"conjugate.tol": 1e-3}}),
                          ("absent", {"drop": "conjugate"})):
            work = tmp_path / name
            work.mkdir()
            config = _write_config(work, **cfg)
            capsys.readouterr()
            assert main(["check", "--config", config]) == 0
            check_out = capsys.readouterr().out
            out = str(work / "eval")
            assert main(["evaluate", "--config", config, "--archive", ref, "--out", out]) == 0
            files = {}
            for n in sorted(os.listdir(out)):
                lines = open(os.path.join(out, n), "rb").read().splitlines()
                # the wall-time lines are measurements
                files[n] = [ln for ln in lines if b"wall" not in ln]
            outputs.append((check_out, files))
        assert "pressure_0000.csv" in outputs[0][1]
        assert outputs[0] == outputs[1]

    def test_inaccurate_conjugate_solve_fails_invariants(self, tmp_path, monkeypatch):
        # a solve off by 1e-3 cannot satisfy the 1e-8 conjugacy identities,
        # whatever the conjugate block says
        cfg = _write_config(tmp_path, overrides={"conjugate.tol": 1e-3})
        exact = checks.solve_k
        monkeypatch.setattr(checks, "solve_k", lambda f, mu: (1.0 + 1e-3) * exact(f, mu))
        assert main(["check", "--config", cfg]) == 4

    def test_evaluate_non_finite_archive_exits_config(self, tmp_path, grid16, rng):
        eos = IncompressibleEos()
        path = incompressible_path(grid16, eos, [0.0, 0.1],
                                   [random_vector(grid16, rng) for _ in range(2)])
        d = str(tmp_path / "arch")
        save_path_archive(d, path)
        bad = path.states[1].v.data.copy()
        bad[0, 2, 3] = np.nan
        save_vector(os.path.join(d, "v_0001.csv"), VectorField(grid16, bad))
        rc = main(["evaluate", "--config", _write_config(tmp_path), "--archive", d,
                   "--out", str(tmp_path / "eval")])
        assert rc == 2

    def test_evaluate_non_positive_density_archive_exits_config(self, tmp_path, grid16, rng):
        eos = BarotropicPowerEos()
        times = [0.0, 0.05]
        path = compressible_path(grid16, eos, times,
                                 [random_vector(grid16, rng, amplitude=0.1) for _ in times])
        d = str(tmp_path / "arch")
        save_path_archive(d, path)
        bad = path.states[1].rho.data.copy()
        bad[4, 1] = 0.0
        save_scalar(os.path.join(d, "rho_0001.csv"), ScalarField(grid16, bad))
        cfg = _write_config(tmp_path, overrides={"eos.kind": "barotropic_power"})
        rc = main(["evaluate", "--config", cfg, "--archive", d,
                   "--out", str(tmp_path / "eval")])
        assert rc == 2

    @pytest.mark.parametrize("case", sorted(MALFORMED_ARCHIVE))
    def test_evaluate_malformed_archive_exits_config(self, tmp_path, grid16, rng, case):
        path = incompressible_path(grid16, IncompressibleEos(), [0.0, 0.1, 0.2],
                                   [random_vector(grid16, rng) for _ in range(3)])
        d = tmp_path / "arch"
        save_path_archive(str(d), path)
        name, edit = MALFORMED_ARCHIVE[case]
        f = d / name
        f.write_text(edit(f.read_text()))
        with pytest.raises(ArchiveError, match=name):
            load_path_archive(str(d))
        rc = main(["evaluate", "--config", _write_config(tmp_path), "--archive", str(d),
                   "--out", str(tmp_path / "eval")])
        assert rc == 2

    @pytest.mark.parametrize("command, out", [
        ("reference", "a_file"), ("reference", "a_file/below"), ("evaluate", "a_file"),
        ("minimize", "a_file")])
    def test_unusable_out_exits_config_naming_it(self, tmp_path, capsys, monkeypatch,
                                                 command, out):
        cfg = _write_config(tmp_path)
        ref_dir = str(tmp_path / "ref")
        assert main(["reference", "--config", cfg, "--out", ref_dir]) == 0

        def never(*args, **kwargs):
            raise AssertionError("ran before --out was checked")
        for name in ("load_config", "load_path_archive", "reference_path", "evaluate_path",
                     "minimize", "minimize_compressible"):
            monkeypatch.setattr(cli, name, never)
        (tmp_path / "a_file").write_text("not a directory")
        out = str(tmp_path / out)
        extra = ["--archive", ref_dir] if command == "evaluate" else []
        capsys.readouterr()
        assert main([command, "--config", cfg, *extra, "--out", out]) == 2
        assert out in capsys.readouterr().err
        assert (tmp_path / "a_file").read_text() == "not a directory"

    def test_slice_times_checked_before_any_csv_is_read(self, tmp_path, grid16, rng):
        path = incompressible_path(grid16, IncompressibleEos(), [0.0, 0.1, 0.2],
                                   [random_vector(grid16, rng) for _ in range(3)])
        d = tmp_path / "arch"
        save_path_archive(str(d), path)
        manifest = d / "manifest.json"
        manifest.write_text(_set_slice(2, "t", 0.1)(manifest.read_text()))
        for csv in d.glob("*.csv"):
            csv.unlink()
        with pytest.raises(ArchiveError, match="uniform"):
            load_path_archive(str(d))

    def test_minimize_cold_start_descends(self, tmp_path):
        cfg = _write_config(tmp_path, overrides={"minimizer.max_iter": 5})
        out = str(tmp_path / "cold")
        assert main(["minimize", "--config", cfg, "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["iterations"] >= 1
