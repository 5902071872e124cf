import json
import os
import shutil

import numpy as np
import pytest

from sbenflow import checks, cli, fieldio
from sbenflow import fields as fd
from sbenflow.balance import BarotropicPowerEos, IncompressibleEos
from sbenflow.cli import main
from sbenflow.config import ConfigError, load_config, parse_config
from sbenflow.fieldio import (ArchiveError, load_grid, load_path_archive, load_scalar,
                              load_vector, save_grid, save_path_archive, save_scalar,
                              save_vector)
from sbenflow.fields import Grid2P, ScalarField, VectorField
from sbenflow.oracle import CaseSpec
from sbenflow.sampling import random_scalar, random_solenoidal, random_vector
from sbenflow.sben import incompressible_path

from conftest import TWO_PI, compressible_path


BASE_CONFIG = {
    "grid": {"nx": 16, "ny": 16, "lx": TWO_PI, "ly": TWO_PI},
    "eos": {"kind": "incompressible", "rho0": 1.0},
    "viscosity": {"mu": 0.1},
    "gravitation": {"preset": "zero"},
    "time": {"t_final": 0.25, "n_intervals": 4, "n_ref": 16},
    "case": {"id": "taylor_green", "parameters": {"nu": 0.1, "amplitude": 1.0}},
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


def _set_json_key(key: str, value):
    def edit(text):
        block = json.loads(text)
        block[key] = value
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
    # the config's rules for its grid block: 16.9 is not read as 16, nor "16" as 16
    "fractional nx": ("grid.json", _set_json_key("nx", 16.9)),
    "string nx": ("grid.json", _set_json_key("nx", "16")),
    "string lx": ("grid.json", _set_json_key("lx", str(TWO_PI))),
    "grid.json with an unknown key": ("grid.json", _set_json_key("nz", 1)),
    "manifest without eos": ("manifest.json", _drop_json_key("eos")),
    "one slice": ("manifest.json", _keep_slices(1)),
    "no slices": ("manifest.json", _keep_slices(0)),
    "non-uniform times": ("manifest.json", _set_slice(2, "t", 0.25)),
    "repeated times": ("manifest.json", _set_slice(1, "t", 0.0)),
    "non-string v": ("manifest.json", _set_slice(1, "v", 7)),
    # a time is a JSON number: neither "0.0" nor false is read as 0
    "string time": ("manifest.json", _set_slice(0, "t", "0.0")),
    "boolean time": ("manifest.json", _set_slice(0, "t", False)),
    # a file name is a bare name inside the archive
    "absolute file name": ("manifest.json", _set_slice(1, "v", "/v_0001.csv")),
    "file name through the parent": ("manifest.json", _set_slice(1, "v", "../arch/v_0001.csv")),
    "file name with a directory part": ("manifest.json", _set_slice(1, "v", "./v_0001.csv")),
    "empty file name": ("manifest.json", _set_pressures(["p_0000.csv", ""])),
    "parent directory as a file name": ("manifest.json", _set_slice(2, "v", "..")),
    "non-list pressures": ("manifest.json", _set_pressures(5)),
    "non-string pressure": ("manifest.json", _set_pressures(["p_0000.csv", None])),
    "one pressure for two intervals": ("manifest.json", _set_pressures(["p_0000.csv"])),
    "density on an incompressible slice": ("manifest.json", _set_slice(1, "rho", "v_0001.csv")),
    "kind disagrees with eos": ("manifest.json",
                                _edit_manifest(lambda m: m.update(kind="compressible"))),
    # the config's eos defaults are not a manifest's: every constant is written
    "eos without rho0": ("manifest.json", _edit_manifest(lambda m: m["eos"].pop("rho0"))),
    "eos with an unknown key": ("manifest.json",
                                _edit_manifest(lambda m: m["eos"].update(gamma=1.4))),
    "eos of an unknown kind": ("manifest.json",
                               _edit_manifest(lambda m: m["eos"].update(kind="ideal_gas"))),
    "boolean rho0": ("manifest.json", _edit_manifest(lambda m: m["eos"].update(rho0=True))),
}


def _no_parse(path, *args):
    raise AssertionError(f"{path} was parsed, not read from its binary copy")


def _named_csvs(archive: str) -> list:
    """Every CSV the archive's manifest names: velocities, densities, pressures."""
    with open(os.path.join(archive, "manifest.json")) as f:
        manifest = json.load(f)
    slices = manifest["slices"]
    return ([entry["v"] for entry in slices] + [entry["rho"] for entry in slices if "rho" in entry]
            + manifest.get("pressures", []))


def _output_bytes(directory: str) -> dict:
    """Every file of a command's output by name, its wall time dropped."""
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            data = f.read()
        if name == "report.json":
            report = json.loads(data)
            report.pop("wall_time")
            data = report
        elif name == "report.txt":
            data = [line for line in data.splitlines() if not line.startswith(b"wall time")]
        files[name] = data
    return files


class TestFieldCsv:
    def test_scalar_round_trip(self, tmp_path, grid16, rng):
        s = random_scalar(grid16, rng)
        f = str(tmp_path / "s.csv")
        save_scalar(f, s)
        back = load_scalar(f, grid16)
        assert np.array_equal(back.data, s.data)
        header = open(f).readline().strip()
        assert header == "i,j,c0"
        assert os.listdir(tmp_path) == ["s.csv"]    # a lone field gets no binary copy

    def test_vector_round_trip(self, tmp_path, grid16, rng):
        v = random_vector(grid16, rng)
        f = str(tmp_path / "v.csv")
        save_vector(f, v)
        assert open(f).readline().strip() == "i,j,c0,c1,c2"
        assert np.array_equal(load_vector(f, grid16).data, v.data)
        assert os.listdir(tmp_path) == ["v.csv"]

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

    @pytest.mark.parametrize("edit", [
        _edit_manifest(lambda m: m["slices"][1].pop("rho")),
        _edit_manifest(lambda m: m.update(kind="incompressible")),
        _edit_manifest(lambda m: m["eos"].pop("gamma")),
        _set_pressures(["p_0000.csv"])],
        ids=["slice without density", "kind disagrees with eos", "eos without gamma",
             "pressures listed"])
    def test_malformed_compressible_manifest(self, tmp_path, grid16, rng, edit):
        vels = [random_vector(grid16, rng, amplitude=0.1) for _ in range(2)]
        d = tmp_path / "arch"
        save_path_archive(str(d), compressible_path(grid16, BarotropicPowerEos(), [0.0, 0.05],
                                                    vels))
        manifest = d / "manifest.json"
        manifest.write_text(edit(manifest.read_text()))
        with pytest.raises(ArchiveError, match="manifest.json"):
            load_path_archive(str(d))

    def test_grid_mismatch_detected(self, tmp_path, grid16, rng):
        eos = IncompressibleEos()
        path = incompressible_path(grid16, eos, [0.0, 0.1],
                                   [random_vector(grid16, rng) for _ in range(2)])
        d = str(tmp_path / "arch")
        save_path_archive(d, path)
        with pytest.raises(ArchiveError, match="does not match"):
            load_path_archive(d, expect_grid=Grid2P(32, 32, TWO_PI, TWO_PI))

    def test_eos_mismatch_detected(self, tmp_path, grid16, rng):
        path = incompressible_path(grid16, IncompressibleEos(), [0.0, 0.1],
                                   [random_vector(grid16, rng) for _ in range(2)])
        d = str(tmp_path / "arch")
        save_path_archive(d, path)
        assert load_path_archive(d, expect_eos=IncompressibleEos(1.0)).eos == IncompressibleEos()
        for eos in (IncompressibleEos(1.3), BarotropicPowerEos()):
            with pytest.raises(ArchiveError, match="does not match"):
                load_path_archive(d, expect_eos=eos)

    def test_file_name_of_another_directory_is_malformed(self, tmp_path, grid16, rng):
        # an absolute name would join to itself and read a slice from elsewhere
        path = incompressible_path(grid16, IncompressibleEos(), [0.0, 0.1, 0.2],
                                   [random_vector(grid16, rng) for _ in range(3)])
        d, elsewhere = tmp_path / "arch", tmp_path / "elsewhere"
        save_path_archive(str(d), path)
        save_path_archive(str(elsewhere), path)
        manifest = d / "manifest.json"
        outside = str(elsewhere / "v_0001.csv")
        manifest.write_text(_set_slice(1, "v", outside)(manifest.read_text()))
        with pytest.raises(ArchiveError, match=f"manifest.json: file name '{outside}'"):
            load_path_archive(str(d))

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
        assert isinstance(cfg.case, CaseSpec)
        assert cfg.case.eos == IncompressibleEos(1.0)
        assert (cfg.case.t_final, cfg.case.n_ref) == (0.25, 16)

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

    def test_readme_example_config_loads(self):
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
        example = readme.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(json.loads(example))
        assert (cfg.grid.nx, cfg.time.n_intervals, cfg.minimizer.max_iter) == (32, 10, 500)

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
        # the Fenchel row reads the smallest scaled gap, positive on random pairs
        fenchel = next(line for line in out.splitlines() if "Fenchel inequality" in line)
        assert float(fenchel.split("measured")[1].split()[0]) > 0.0

    @pytest.mark.parametrize("overrides", [
        {"grid.nx": 4, "grid.ny": 4},          # the random fields' modes fit below Nyquist
        {"grid.nx": 5, "grid.ny": 7},
        {"grid.nx": 9, "grid.ny": 9},          # orders measured on 16^2 and 32^2
        {"grid.nx": 128, "grid.ny": 96},
        # the sample fields are periodic on a box that is not (2 pi)^2
        {"grid.lx": 3.0, "grid.ly": 5.0, "case": {"id": "rigid_rotation", "parameters": {}},
         "gravitation": {"preset": "rigid_rotation", "parameters": {"omega": 1.0}}}])
    def test_check_passes_on_every_valid_grid(self, tmp_path, capsys, overrides):
        rc = main(["check", "--config", _write_config(tmp_path, overrides=overrides)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "all 14 invariants hold" in out

    def test_evaluate_of_an_overflowing_functional_exits_3(self, tmp_path, capsys):
        # dt = 2.5e-301: the accelerations (about 1e284) are finite, their
        # norms and phi_star overflow
        cfg = _write_config(tmp_path, overrides={"time.t_final": 1e-300})
        ref = str(tmp_path / "ref")
        assert main(["reference", "--config", cfg, "--out", ref]) == 0
        capsys.readouterr()
        rc = main(["evaluate", "--config", cfg, "--archive", ref, "--out", str(tmp_path / "eval")])
        assert rc == 3
        # the one line of the exit, no numpy warning before it
        assert capsys.readouterr().err == ("numerical failure: the functional is not "
                                           "finite on this path\n")

    def test_minimize_from_a_non_finite_start_exits_3(self, tmp_path, capsys):
        # the start's functional and gradient overflow: inf <= tol * inf used
        # to report convergence, with an infinite gradient norm in report.json
        huge_mu = _write_config(tmp_path, overrides={"viscosity.mu": 1e300})
        assert main(["minimize", "--config", huge_mu, "--out", str(tmp_path / "m1")]) == 3
        tiny_t = _write_config(tmp_path, overrides={"time.t_final": 1e-300})
        ref = str(tmp_path / "ref")
        assert main(["reference", "--config", tiny_t, "--out", ref]) == 0
        assert main(["minimize", "--config", tiny_t, "--warm-start", ref,
                     "--out", str(tmp_path / "m2")]) == 3
        err = capsys.readouterr().err
        assert err.count("numerical failure: the functional or its gradient is not finite") == 2
        assert not os.path.exists(tmp_path / "m1" / "report.json")

    def test_tiny_box_exits_3(self, tmp_path, capsys):
        # dx**2 underflows to 0 in the stable step size: a ZeroDivisionError
        cfg = _write_config(tmp_path, overrides={
            "grid.lx": 1e-300, "grid.ly": 1e-300, "case": {"id": "rigid_rotation"}})
        assert main(["reference", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err == "numerical failure: float division by zero\n"

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

    @pytest.mark.parametrize("max_iter, converged", [(1, False), (40, True)])
    def test_minimize_report_says_why_it_stopped(self, tmp_path, capsys, max_iter, converged):
        cfg = _write_config(tmp_path, overrides={"minimizer.max_iter": max_iter})
        out = str(tmp_path / "min")
        assert main(["minimize", "--config", cfg, "--out", out]) == 0
        message = capsys.readouterr().out.split(";")[0]
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert (report["converged"], report["message"]) == (converged, message)
        if not converged:
            assert message == "max_iter reached"
        text = open(os.path.join(out, "report.txt")).read()
        assert f"converged            : {json.dumps(converged)}\n" in text
        assert f"message              : {message}\n" in text
        # an evaluate report has no stopping reason
        ev = str(tmp_path / "eval")
        assert main(["evaluate", "--config", cfg, "--archive", out, "--out", ev]) == 0
        assert not {"converged", "message"} & set(json.loads(
            open(os.path.join(ev, "report.json")).read()))

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

    def test_binary_copies_change_no_output_byte_and_stay_unwritten(self, tmp_path,
                                                                    monkeypatch):
        # evaluate and a warm-started minimize on an archive with pressures,
        # once with its binary copies (no CSV is parsed) and once without
        cfg = _write_config(tmp_path, overrides={"minimizer.max_iter": 3})
        full, bare = str(tmp_path / "full"), str(tmp_path / "bare")
        assert main(["minimize", "--config", cfg, "--out", full]) == 0
        shutil.copytree(full, bare)
        copies = [n for n in os.listdir(bare) if n.endswith(".csv.f8")]
        assert sorted(copies) == sorted(n + ".f8" for n in os.listdir(bare)
                                        if n.endswith(".csv"))
        for name in copies:
            os.remove(os.path.join(bare, name))
        outputs = {}
        for archive in (full, bare):
            listing = sorted(os.listdir(archive))
            with monkeypatch.context() as mp:
                if archive == full:
                    mp.setattr(fieldio, "_parse_csv", _no_parse)
                for command, flag in (("evaluate", "--archive"), ("minimize", "--warm-start")):
                    out = f"{archive}-{command}"
                    assert main([command, "--config", cfg, flag, archive, "--out", out]) == 0
                    outputs[archive, command] = _output_bytes(out)
            assert sorted(os.listdir(archive)) == listing
        for command in ("evaluate", "minimize"):
            assert outputs[full, command] == outputs[bare, command]

    @pytest.mark.parametrize("kind", ["incompressible", "compressible"])
    def test_binary_copies_only_beside_the_csvs_an_archive_names(self, tmp_path, kind):
        # a reference and a minimized archive hold one copy per CSV their
        # manifest names, and every slice, density and pressure is read from
        # it; evaluate's pressures are written without copies
        overrides = {"minimizer.max_iter": 3}
        if kind == "compressible":
            overrides["eos"] = {"kind": "barotropic_power", "p0": 1.0, "rho0": 1.0, "gamma": 1.4}
            overrides["case"] = {"id": "compressible_smooth", "parameters": {"amplitude": 0.05}}
        cfg = _write_config(tmp_path, overrides=overrides)
        ref, minimized, evaluated = (str(tmp_path / name) for name in ("ref", "min", "eval"))
        assert main(["reference", "--config", cfg, "--out", ref]) == 0
        assert main(["minimize", "--config", cfg, "--warm-start", ref, "--out", minimized]) == 0
        assert main(["evaluate", "--config", cfg, "--archive", minimized,
                     "--out", evaluated]) == 0
        n = BASE_CONFIG["time"]["n_intervals"]
        incompressible = kind == "incompressible"
        pressures = [f"pressure_{k:04d}.csv" for k in range(n)] if incompressible else []
        assert sorted(os.listdir(evaluated)) == sorted(["report.json", "report.txt", *pressures])
        for archive, n_pressures in ((ref, 0), (minimized, n if incompressible else 0)):
            named = _named_csvs(archive)
            assert len(named) == (n + 1) * (1 if incompressible else 2) + n_pressures
            copies = sorted(name for name in os.listdir(archive) if name.endswith(".csv.f8"))
            assert copies == sorted(name + ".f8" for name in named)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fieldio, "_parse_csv", _no_parse)
                from_copies = load_path_archive(archive)
            for name in copies:
                os.remove(os.path.join(archive, name))
            parsed = load_path_archive(archive)
            for a, b in ((from_copies.V, parsed.V), (from_copies.rho, parsed.rho),
                         (from_copies.pressures, parsed.pressures)):
                assert (a is None and b is None) or a.tobytes() == b.tobytes()

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
        ("max_iter", -1), ("max_iter", "abc"), ("max_iter", 2.5), ("max_iter", True),
        ("max_iter", None), ("tol_pi_rel", True), ("tol_pi_rel", -1e-8),
        ("tol_grad_rel", float("inf")), ("tol_grad_rel", "1e-6")])
    def test_bad_minimizer_setting_exits_config(self, tmp_path, key, value):
        cfg = _write_config(tmp_path, overrides={f"minimizer.{key}": value})
        with pytest.raises(ConfigError, match=f"minimizer.{key}"):
            load_config(cfg)
        assert main(["minimize", "--config", cfg, "--out", str(tmp_path / "m")]) == 2

    @pytest.mark.parametrize("key, value, match", [
        ("case.id", "taylor_gren", "case.id"),
        ("case.parameters", 5, "case.parameters"),
        ("case.parameters", {"nu": "abc"}, "case.parameters.nu"),
        ("case.parameters", {"amplitdue": 1.0}, "amplitdue"),
        ("case.parameters", {"omega": 2.0}, "omega"),
        ("case.parameters", {"rho0": 2.0}, "rho0"),
        ("case.parameters", {"gamma": 1.4}, "gamma"),
        ("gravitation.parameters", 5, "gravitation.parameters"),
        # each preset reads its own parameter, and the zero preset none
        ("gravitation", {"preset": "rigid_rotation", "parameters": {"omgea": 3.0}}, "omgea"),
        ("gravitation", {"preset": "uniform_gravity", "parameters": {"omega": 1.0}}, "omega"),
        ("gravitation", {"preset": "zero", "parameters": {"g0": 1.0}}, "g0")])
    def test_bad_case_or_gravitation_exits_config(self, tmp_path, key, value, match):
        cfg = _write_config(tmp_path, overrides={key: value})
        with pytest.raises(ConfigError, match=match):
            load_config(cfg)
        assert main(["reference", "--config", cfg, "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("key, value, match", [
        ("grid.nx", 16.7, "grid.nx"), ("grid.ny", True, "grid.ny"),
        ("grid.lx", float("nan"), "grid"), ("grid.ly", float("inf"), "grid"),
        ("time.t_final", float("nan"), "time.t_final"),
        ("time.t_final", float("inf"), "time.t_final"),
        ("time.n_intervals", 4.0, "time.n_intervals"), ("time.n_ref", "16", "time.n_ref"),
        ("viscosity.mu", float("inf"), "viscosity"),
        ("viscosity.mu", float("nan"), "viscosity"),
        ("eos.rho0", float("nan"), "eos"),
        ("eos", {"kind": "barotropic_power", "gamma": float("nan")}, "eos"),
        ("eos", {"kind": "barotropic_power", "p0": float("inf")}, "eos"),
        # a JSON boolean is not a number: it used to run as 1.0
        ("viscosity.mu", True, "viscosity.mu"), ("grid.lx", False, "grid.lx"),
        ("time.t_final", True, "time.t_final"), ("eos.rho0", True, "eos.rho0"),
        ("case.parameters", {"amplitude": True}, "case.parameters.amplitude"),
        ("eos", {"kind": "incompressible", "gamma": 1.4}, "eos.gamma")])
    def test_bad_number_exits_config(self, tmp_path, key, value, match):
        cfg = _write_config(tmp_path, overrides={key: value})
        with pytest.raises(ConfigError, match=match):
            load_config(cfg)
        assert main(["reference", "--config", cfg, "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("overrides, match", [
        ({"case.id": "compressible_smooth"}, "barotropic fluid"),
        ({"eos": {"kind": "incompressible", "rho0": 2.0}, "case.id": "compressible_smooth",
          "case.parameters": {"amplitude": 0.05}}, "barotropic fluid"),
        ({"eos": {"kind": "barotropic_power", "gamma": 1.4}}, "incompressible fluid"),
        ({"eos": {"kind": "barotropic_power", "gamma": 1.67}, "case.id": "compressible_smooth",
          "case.parameters": {"gamma": 1.4}}, "gamma")])
    def test_case_inconsistent_with_fluid_exits_config(self, tmp_path, overrides, match):
        cfg = _write_config(tmp_path, overrides=overrides)
        with pytest.raises(ConfigError, match=match):
            load_config(cfg)
        for argv in (["check"], ["reference", "--out", str(tmp_path / "r")],
                     ["minimize", "--out", str(tmp_path / "m")]):
            assert main([argv[0], "--config", cfg, *argv[1:]]) == 2

    @pytest.mark.parametrize("case_id, params", [
        ("taylor_green", {"amplitude": 1.0}), ("shear_decay", {}),
        ("compressible_smooth", {"amplitude": 0.05})])
    def test_analytic_case_off_the_two_pi_box_exits_config(self, tmp_path, case_id, params):
        eos = ({"kind": "barotropic_power"} if case_id == "compressible_smooth"
               else {"kind": "incompressible"})
        cfg = _write_config(tmp_path, overrides={"grid.lx": 5.0, "eos": eos,
                                                 "case.id": case_id,
                                                 "case.parameters": params})
        with pytest.raises(ConfigError, match="box"):
            load_config(cfg)
        assert main(["reference", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert main(["minimize", "--config", cfg, "--out", str(tmp_path / "m")]) == 2

    def test_eos_block_is_the_fluid(self, tmp_path):
        # gamma from the eos block alone reaches the manifest and the stepper
        runs = {}
        for gamma in (1.4, 1.67):
            work = tmp_path / str(gamma)
            work.mkdir()
            cfg = _write_config(work, overrides={
                "eos": {"kind": "barotropic_power", "gamma": gamma},
                "case.id": "compressible_smooth", "case.parameters": {"amplitude": 0.05}})
            ref = str(work / "ref")
            assert main(["reference", "--config", cfg, "--out", ref]) == 0
            manifest = json.loads(open(os.path.join(ref, "manifest.json")).read())
            assert manifest["eos"]["gamma"] == gamma
            runs[gamma] = load_path_archive(ref)
        assert runs[1.67].eos == BarotropicPowerEos(gamma=1.67)
        assert not np.array_equal(runs[1.4].states[-1].rho.data,
                                  runs[1.67].states[-1].rho.data)

    def test_archive_of_another_fluid_exits_config(self, tmp_path, capsys):
        ref = str(tmp_path / "ref")
        assert main(["reference", "--config", _write_config(tmp_path), "--out", ref]) == 0
        work = tmp_path / "heavy"
        work.mkdir()
        heavy = _write_config(work, overrides={"eos.rho0": 1.3})
        capsys.readouterr()
        assert main(["evaluate", "--config", heavy, "--archive", ref,
                     "--out", str(tmp_path / "e")]) == 2
        assert main(["minimize", "--config", heavy, "--warm-start", ref,
                     "--out", str(tmp_path / "m")]) == 2
        assert capsys.readouterr().err.count("does not match configured eos") == 2

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

    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch, capsys):
        # an earlier call's options and usage error leave nothing behind
        seen = []
        monkeypatch.setattr(checks, "run_all", lambda config: seen.append(config.seed) or [])
        cfg = _write_config(tmp_path)
        assert main(["--seed", "7", "check", "--config", cfg]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--config", cfg])
        assert exc.value.code == 2
        assert "required: --archive, --out" in capsys.readouterr().err
        assert main(["check", "--config", cfg]) == 0
        assert seen == [7, 42]
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("key, value", [
        # the settings of a former iterative solve, and of the line search
        ("conjugate", {"tol": 1e-10, "max_iter": 50000}), ("minimizer.restart_every", 20),
        ("minimizer.armijo_c", 1e-4), ("minimizer.backtrack_factor", 0.5),
        ("minimizer.max_backtracks", 60),
        # misspelt blocks and keys, which used to be dropped
        ("minimiser", {"max_iter": 5}), ("time.n_interval", 4), ("case.param", {"amplitude": 3}),
        ("grid.nz", 16), ("viscosity.lambda", 0.0), ("gravitation.parameter", {"g0": 1.0}),
        ("eos.gama", 1.4)])
    def test_unknown_key_exits_config_naming_it(self, tmp_path, capsys, key, value):
        cfg = _write_config(tmp_path, overrides={key: value})
        with pytest.raises(ConfigError, match=f"unknown key {key}; .* takes "):
            load_config(cfg)
        for argv in (["check"], ["reference", "--out", str(tmp_path / "r")],
                     ["minimize", "--out", str(tmp_path / "m")]):
            assert main([argv[0], "--config", cfg, *argv[1:]]) == 2
        assert capsys.readouterr().err.count(f"unknown key {key}") == 3

    def test_inaccurate_conjugate_solve_fails_invariants(self, tmp_path, monkeypatch):
        # a solve off by 1e-3 cannot satisfy the 1e-8 conjugacy identities
        cfg = _write_config(tmp_path)
        exact = checks.solve_k
        monkeypatch.setattr(checks, "solve_k", lambda f, mu: (1.0 + 1e-3) * exact(f, mu))
        assert main(["check", "--config", cfg]) == 4

    def test_constitutive_gap_off_the_interval_term_fails_invariants(self, tmp_path,
                                                                     monkeypatch, capsys):
        cfg = _write_config(tmp_path)
        exact = checks.constitutive_gap
        monkeypatch.setattr(checks, "constitutive_gap",
                            lambda z, z_i, mu: (1.0 + 1e-9) * exact(z, z_i, mu))
        assert main(["check", "--config", cfg]) == 4
        assert "[FAIL] constitutive gap = interval term" in capsys.readouterr().out

    @pytest.mark.parametrize("name, row", [("omega", "symplectic form antisymmetry"),
                                           ("fenchel_gap", "Fenchel inequality")])
    def test_nan_measurement_fails_its_row(self, tmp_path, monkeypatch, capsys, name, row):
        monkeypatch.setattr(checks, name, lambda *args: np.nan)
        assert main(["check", "--config", _write_config(tmp_path)]) == 4
        assert f"[FAIL] {row:<38s} measured nan" in capsys.readouterr().out

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
        cfg = _write_config(tmp_path, overrides={
            "eos.kind": "barotropic_power", "case.id": "compressible_smooth",
            "case.parameters": {"amplitude": 0.05}})
        load_config(cfg)   # the config is sound: the archive is what exits 2
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
                     "minimize"):
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

    def test_allocation_that_cannot_be_made_exits_config(self, tmp_path, capsys):
        # 10**15 intervals: the first array of either command (the reference's
        # slices, the cold start's times) is petabytes, more than a process
        # can map, so its allocation fails at once
        cfg = _write_config(tmp_path, overrides={"time.n_intervals": 10**15,
                                                 "time.n_ref": 10**15})
        for command in ("reference", "minimize"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error: ") and err.count("\n") == 1

    def test_overflowing_amplitude_exits_numerical(self, tmp_path, capsys):
        # the analytic pressure's amplitude**2 overflows a float
        cfg = _write_config(tmp_path, overrides={
            "case.parameters": {"nu": 0.1, "amplitude": 1e200}})
        for argv in (["reference", "--out", str(tmp_path / "r")],
                     ["minimize", "--out", str(tmp_path / "m")]):
            assert main([argv[0], "--config", cfg, *argv[1:]]) == 3
            err = capsys.readouterr().err
            assert "numerical failure" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, flag", [("evaluate", "--archive"),
                                               ("minimize", "--warm-start")])
    def test_archive_that_is_not_divergence_free_exits_config(self, tmp_path, grid16, capsys,
                                                              command, flag):
        # the functional's residual form holds on divergence-free slices
        # only; a random field's stencil divergence is about its size / dx
        rng = np.random.default_rng(6)
        vels = [random_solenoidal(grid16, rng), random_solenoidal(grid16, rng),
                random_vector(grid16, rng)]
        d = str(tmp_path / "arch")
        save_path_archive(d, incompressible_path(grid16, IncompressibleEos(), [0.0, 0.1, 0.2],
                                                 vels))
        div = np.abs(fd.div_vector(vels[2]).data).max()
        bound = 1e-10 * np.abs(vels[2].data[:2]).max() / grid16.dx
        assert main([command, "--config", _write_config(tmp_path), flag, d,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {d}: slice 2 is not divergence free: |div v| = "
            f"{div:.3e} > {bound:.3e} = 1e-10 |v_xy| / min(dx, dy)\n")

    def test_minimize_cold_start_descends(self, tmp_path):
        cfg = _write_config(tmp_path, overrides={"minimizer.max_iter": 5})
        out = str(tmp_path / "cold")
        assert main(["minimize", "--config", cfg, "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["iterations"] >= 1

    def test_minimize_cold_start_under_uniform_gravity(self, tmp_path):
        # the replicated start's projected conjugate argument is round-off
        # with a round-off mean, which solve_k drops instead of rejecting
        cfg = _write_config(tmp_path, overrides={
            "gravitation": {"preset": "uniform_gravity", "parameters": {"g0": 1.0}}})
        out = str(tmp_path / "cold")
        assert main(["minimize", "--config", cfg, "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["iterations"] >= 1
