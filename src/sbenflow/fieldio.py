"""CSV serialization of fields and directory archives of paths.

One CSV per field with header ``i,j,c0[,c1,...]`` and one ``i,j,c0,...`` row
per cell, written in row-major cell order; grid metadata lives in a
``grid.json`` sidecar.  A path archive is a directory holding the sidecar,
one velocity (and density) CSV per slice, optional per-interval pressure
CSVs, and a ``manifest.json`` tying them together (format
``sbenflow-path/1``).  Floats are written with 17 significant digits
(``%.17g``) so a round trip is bit exact and runs are reproducible.  The
bytes of the format are fixed (``tests/test_fieldio.py`` pins them): the
same field always gives the same file.

Reading accepts the rows in any order.  The indices must be integers inside
the grid and every cell must appear exactly once.  Any malformed input (a
wrong header, a non-numeric cell, a missing column, an index out of range,
a repeated or missing cell, a non-finite value, a non-positive density, a
truncated or incomplete ``grid.json`` or ``manifest.json``) raises
ArchiveError naming the file, which the CLI reports with exit code 2.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Optional

import numpy as np

from .balance import BarotropicPowerEos, Eos, FluidState, IncompressibleEos
from .fields import Grid2P, ScalarField, VectorField
from .sben import Path


class ArchiveError(ValueError):
    """Malformed or inconsistent path archive."""


def _header(n_comp: int) -> str:
    return "i,j," + ",".join(f"c{c}" for c in range(n_comp))


def _write_csv(path: str, grid: Grid2P, components: np.ndarray):
    n_comp = components.shape[0]
    # one (i, j, c0, c1, ...) record per cell; %d prints the float indices as
    # integers and %.17g formats exactly as f"{x:.17g}" does
    table = np.empty((grid.nx, grid.ny, 2 + n_comp))
    table[:, :, 0] = np.arange(grid.nx)[:, None]
    table[:, :, 1] = np.arange(grid.ny)[None, :]
    table[:, :, 2:] = np.moveaxis(components, 0, -1)
    # formatted one grid row at a time, which keeps the text in memory small
    row = ("%d,%d," + ",".join(["%.17g"] * n_comp) + "\n") * grid.ny
    with open(path, "w") as f:
        f.write(_header(n_comp) + "\n")
        for block in table:
            f.write(row % tuple(block.ravel().tolist()))


def _read_csv(path: str, grid: Grid2P, n_comp: int) -> np.ndarray:
    with open(path) as f:
        header = f.readline().strip()
        expected = _header(n_comp)
        if header != expected:
            raise ArchiveError(f"{path}: header {header!r} != {expected!r}")
        try:
            with warnings.catch_warnings():
                # a header-only file is reported by the row count below
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise ArchiveError(f"{path}: {exc}") from None
    n_cells = grid.nx * grid.ny
    if rows.shape != (n_cells, 2 + n_comp):
        raise ArchiveError(f"{path}: {rows.shape[0]} rows of {rows.shape[1]} columns "
                           f"for a {grid.nx}x{grid.ny} grid with {n_comp} components")
    i, j = rows[:, 0], rows[:, 1]
    valid = ((i == np.floor(i)) & (0 <= i) & (i < grid.nx)
             & (j == np.floor(j)) & (0 <= j) & (j < grid.ny))
    if not valid.all():
        bad = int(np.argmin(valid))
        raise ArchiveError(f"{path}: data row {bad + 1} has cell index "
                           f"({rows[bad, 0]:g}, {rows[bad, 1]:g}), not an integer "
                           f"index of the {grid.nx}x{grid.ny} grid")
    cell = i.astype(np.int64) * grid.ny + j.astype(np.int64)
    if not (np.bincount(cell, minlength=n_cells) == 1).all():
        raise ArchiveError(f"{path}: some cells appear more than once, others not at all")
    data = np.empty((n_comp, n_cells))
    data[:, cell] = rows[:, 2:].T
    if not np.isfinite(data).all():
        raise ArchiveError(f"{path}: non-finite value")
    return data.reshape(n_comp, grid.nx, grid.ny)


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
        try:
            meta = json.load(f)
            return Grid2P(int(meta["nx"]), int(meta["ny"]),
                          float(meta["lx"]), float(meta["ly"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise ArchiveError(f"{path}: malformed grid sidecar ({exc!r})") from None


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
        try:
            manifest = json.load(f)
        except ValueError as exc:
            raise ArchiveError(f"{manifest_file}: not JSON ({exc})") from None
    fmt = manifest.get("format") if isinstance(manifest, dict) else None
    if fmt != "sbenflow-path/1":
        raise ArchiveError(f"{directory}: unsupported format {fmt!r}")
    grid = load_grid(os.path.join(directory, "grid.json"))
    if expect_grid is not None and grid != expect_grid:
        raise ArchiveError(
            f"archive grid {grid.nx}x{grid.ny} does not match configured grid "
            f"{expect_grid.nx}x{expect_grid.ny}")
    try:
        eos = _eos_from_json(manifest["eos"])
        slices = [(float(entry["t"]), entry["v"], entry.get("rho"))
                  for entry in manifest["slices"]]
        pressure_names = manifest.get("pressures")
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ArchiveError(f"{manifest_file}: malformed manifest ({exc!r})") from None
    states = []
    for t, v_name, rho_name in slices:
        if not np.isfinite(t):
            raise ArchiveError(f"{directory}: non-finite slice time {t!r}")
        v = load_vector(os.path.join(directory, v_name), grid)
        if rho_name is not None:
            rho = load_scalar(os.path.join(directory, rho_name), grid)
            if (rho.data <= 0).any():
                raise ArchiveError(f"{directory}: {rho_name} has a non-positive density")
        else:
            rho = ScalarField.full(grid, eos.rho0)
        states.append(FluidState(t, v, rho, eos))
    path = Path(states)
    if pressure_names is not None:
        path.pressures = [load_scalar(os.path.join(directory, n), grid)
                          for n in pressure_names]
    return path
