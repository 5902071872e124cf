"""CSV serialization of fields and directory archives of paths.

One CSV per field with header ``i,j,c0[,c1,...]`` in row-major cell order;
grid metadata lives in a ``grid.json`` sidecar.  A path archive is a
directory holding the sidecar, one velocity (and density) CSV per slice,
optional per-interval pressure CSVs, and a ``manifest.json`` tying them
together.  Floats are written with 17 significant digits so a round trip is
bit exact and runs are reproducible.  Loading rejects non-finite values and
non-positive densities with ArchiveError.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np

from .balance import BarotropicPowerEos, Eos, FluidState, IncompressibleEos
from .fields import Grid2P, ScalarField, VectorField
from .sben import Path


class ArchiveError(ValueError):
    """Malformed or inconsistent path archive."""


def _write_csv(path: str, grid: Grid2P, components: np.ndarray):
    n_comp = components.shape[0]
    header = "i,j," + ",".join(f"c{c}" for c in range(n_comp))
    lines = [header]
    for i in range(grid.nx):
        for j in range(grid.ny):
            vals = ",".join(f"{components[c, i, j]:.17g}" for c in range(n_comp))
            lines.append(f"{i},{j},{vals}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _read_csv(path: str, grid: Grid2P, n_comp: int) -> np.ndarray:
    with open(path) as f:
        header = f.readline().strip()
        expected = "i,j," + ",".join(f"c{c}" for c in range(n_comp))
        if header != expected:
            raise ArchiveError(f"{path}: header {header!r} != {expected!r}")
        data = np.zeros((n_comp, grid.nx, grid.ny))
        count = 0
        for line in f:
            parts = line.strip().split(",")
            if not parts or parts == [""]:
                continue
            i, j = int(parts[0]), int(parts[1])
            data[:, i, j] = [float(x) for x in parts[2:]]
            count += 1
    if count != grid.nx * grid.ny:
        raise ArchiveError(f"{path}: {count} rows for a {grid.nx}x{grid.ny} grid")
    if not np.isfinite(data).all():
        raise ArchiveError(f"{path}: non-finite value")
    return data


def save_scalar(path: str, s: ScalarField):
    _write_csv(path, s.grid, s.data[None, :, :])


def load_scalar(path: str, grid: Grid2P) -> ScalarField:
    return ScalarField(grid, _read_csv(path, grid, 1)[0])


def save_vector(path: str, v: VectorField):
    _write_csv(path, v.grid, v.data)


def load_vector(path: str, grid: Grid2P) -> VectorField:
    return VectorField(grid, _read_csv(path, grid, 3))


def save_grid(path: str, grid: Grid2P):
    with open(path, "w") as f:
        json.dump({"nx": grid.nx, "ny": grid.ny, "lx": grid.lx, "ly": grid.ly},
                  f, indent=1)
        f.write("\n")


def load_grid(path: str) -> Grid2P:
    with open(path) as f:
        meta = json.load(f)
    return Grid2P(int(meta["nx"]), int(meta["ny"]), float(meta["lx"]), float(meta["ly"]))


def _eos_to_json(eos: Eos) -> dict:
    if isinstance(eos, IncompressibleEos):
        return {"kind": "incompressible", "rho0": eos.rho0}
    return {"kind": "barotropic_power", "p0": eos.p0, "rho0": eos.rho0, "gamma": eos.gamma}


def _eos_from_json(block: dict) -> Eos:
    kind = block.get("kind")
    if kind == "incompressible":
        return IncompressibleEos(rho0=float(block.get("rho0", 1.0)))
    if kind == "barotropic_power":
        return BarotropicPowerEos(p0=float(block.get("p0", 1.0)),
                                  rho0=float(block.get("rho0", 1.0)),
                                  gamma=float(block.get("gamma", 1.4)))
    raise ArchiveError(f"unknown eos kind {kind!r}")


def save_path_archive(directory: str, path: Path):
    os.makedirs(directory, exist_ok=True)
    save_grid(os.path.join(directory, "grid.json"), path.grid)
    slices = []
    compressible = path.kind == "compressible"
    for k, state in enumerate(path.states):
        v_name = f"v_{k:04d}.csv"
        save_vector(os.path.join(directory, v_name), state.v)
        entry = {"index": k, "t": state.t, "v": v_name}
        if compressible:
            rho_name = f"rho_{k:04d}.csv"
            save_scalar(os.path.join(directory, rho_name), state.rho)
            entry["rho"] = rho_name
        slices.append(entry)
    manifest = {
        "format": "sbenflow-path/1",
        "kind": path.kind,
        "eos": _eos_to_json(path.eos),
        "slices": slices,
    }
    if path.pressures is not None:
        names = []
        for k, p in enumerate(path.pressures):
            name = f"p_{k:04d}.csv"
            save_scalar(os.path.join(directory, name), p)
            names.append(name)
        manifest["pressures"] = names
    with open(os.path.join(directory, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")


def load_path_archive(directory: str, expect_grid: Optional[Grid2P] = None) -> Path:
    manifest_file = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_file):
        raise ArchiveError(f"{directory}: no manifest.json")
    with open(manifest_file) as f:
        manifest = json.load(f)
    if manifest.get("format") != "sbenflow-path/1":
        raise ArchiveError(f"{directory}: unsupported format {manifest.get('format')!r}")
    grid = load_grid(os.path.join(directory, "grid.json"))
    if expect_grid is not None and grid != expect_grid:
        raise ArchiveError(
            f"archive grid {grid.nx}x{grid.ny} does not match configured grid "
            f"{expect_grid.nx}x{expect_grid.ny}")
    eos = _eos_from_json(manifest["eos"])
    states = []
    for entry in manifest["slices"]:
        v = load_vector(os.path.join(directory, entry["v"]), grid)
        if "rho" in entry:
            rho = load_scalar(os.path.join(directory, entry["rho"]), grid)
            if (rho.data <= 0).any():
                raise ArchiveError(f"{directory}: {entry['rho']} has a non-positive density")
        else:
            rho = ScalarField.full(grid, eos.rho0)
        t = float(entry["t"])
        if not np.isfinite(t):
            raise ArchiveError(f"{directory}: non-finite slice time {entry['t']!r}")
        states.append(FluidState(t, v, rho, eos))
    path = Path(states)
    if "pressures" in manifest:
        path.pressures = [load_scalar(os.path.join(directory, n), grid)
                          for n in manifest["pressures"]]
    return path
