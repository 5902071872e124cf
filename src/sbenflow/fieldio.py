"""CSV serialization of fields and directory archives of paths.

One CSV per field with header ``i,j,c0[,c1,...]`` and one ``i,j,c0,...`` row
per cell, written in row-major cell order; grid metadata lives in a
``grid.json`` sidecar.  A path archive is a directory holding the sidecar,
one velocity (and density) CSV per slice, optional per-interval pressure
CSVs, and a ``manifest.json`` tying them together (format
``sbenflow-path/1``).  Floats are written exactly as ``%.17g`` writes them
(17 significant digits), so a round trip is bit exact and runs are
reproducible.  The writer encodes them with numpy, a block of grid rows at a
time, and leaves to Python's own ``%.17g`` only the values the vectorized
encoder cannot round without doubt: non-finite, subnormal and out-of-range
values, and near ties (see the encoder below).  The bytes of the format are
fixed (``tests/test_fieldio.py`` pins them and checks the encoder against
``f"{x:.17g}"``): the same field always gives the same file.

Reading accepts the rows in any order.  The indices must be integers inside
the grid and every cell must appear exactly once.  Any malformed input (bytes
that are not UTF-8, a wrong header, a non-numeric cell, a missing column, an
index out of range, a repeated or missing cell, a non-finite value, a
non-positive density, a truncated or incomplete ``grid.json`` or
``manifest.json``, slice times not uniformly increasing, pressures that are
not one file per interval of an incompressible path) raises ArchiveError
naming the file, which the CLI reports with exit code 2.
"""

from __future__ import annotations

import functools
import json
import os
import warnings
from typing import Optional

import numpy as np

from .balance import Eos, IncompressibleEos
from .config import eos_from_json, eos_to_json
from .fields import Grid2P, ScalarField, VectorField
from .sben import Path, check_path_times


class ArchiveError(ValueError):
    """Malformed or inconsistent path archive."""


def _header(n_comp: int) -> str:
    return "i,j," + ",".join(f"c{c}" for c in range(n_comp))


# --- the %.17g encoder --------------------------------------------------------
#
# A finite value with 1e-280 < |x| < 1e280 is encoded with numpy, many values at
# a time.  Its decimal exponent E (10**E <= |x| < 10**(E + 1)) and its 17
# significant digits D = round(|x| * 10**(16 - E)) come from a double-double
# product good to 1e-14, which rounds D correctly unless the scaled fraction
# lies within 1e-7 of a half; then the digits are laid out as %g lays them
# out.  Zeros are encoded alongside.  Python formats the rest, one value at a
# time: non-finite, subnormal and out-of-range values, and those near ties.
#
# Each value gets a slot of four little-endian 64-bit words with zero bytes as
# padding, which the writer drops at the end:
#   word 0     sign, "0." and up to three zeros (for -4 <= E < 0), first digit
#   words 1-3  bytes 0-16: the other 16 digits with the point among them;
#              bytes 18-22: the exponent ("e+dd" or "e-ddd"); byte 23: separator

_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_E_MIN, _E_MAX = -281, 280        # decimal exponents of the fast values, one to spare
_TIE_MARGIN = 1e-7
_SPLIT = 134217729.0              # 2**27 + 1, Dekker's splitting constant
_BLOCK_VALUES = 4096              # values encoded at once: bounds the transient buffers
_U64 = np.dtype("<u8")            # a slot is a byte string: little-endian on any machine
_BYTE, _TOP_BYTE = np.uint64(8), np.uint64(56)
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_COMMA, _NEWLINE = np.uint64(ord(",") << 56), np.uint64(ord("\n") << 56)


def _read_only(a: np.ndarray) -> np.ndarray:
    """The cached tables are shared by every call: no call may change them."""
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=None)
def _powers_of_ten() -> np.ndarray:
    """Rows (hi, lo, hi's upper half, hi's lower half) of 10**n = hi + lo for
    16 - _E_MAX <= n <= 16 - _E_MIN, from exact integers (int / int rounds
    correctly); the halves are Dekker's split of hi."""
    hi, lo = [], []
    for n in range(16 - _E_MAX, 16 - _E_MIN + 1):
        if n >= 0:
            hi.append(float(10**n))
            lo.append(float(10**n - int(hi[-1])))
        else:
            den = 10**-n
            hi.append(1 / den)
            num, pow2 = hi[-1].as_integer_ratio()
            lo.append((pow2 - num * den) / (pow2 * den))
    hi = np.array(hi)
    upper = _SPLIT * hi - (_SPLIT * hi - hi)
    return _read_only(np.stack([hi, np.array(lo), upper, hi - upper], axis=1))


@functools.lru_cache(maxsize=None)
def _layout_tables():
    """The constant parts of the layout.

    Per decimal exponent E (index E - _E_MIN): 17 times the layout class (0
    exponent form, 1 + E for a fixed 0 <= E <= 16, 18 for a fixed -4 <= E < 0),
    and the words (word 0 without sign and first digit, word 3 with only the
    exponent).

    Per layout class and index of the last nonzero digit (row 17 * class +
    last): masks of words 1-3 that keep the digits before the point (A), the
    digits after it, shifted up one byte (B), and the point itself (C), as the
    row (A1, A2, B1, B2, B3, C1, C2).  Trailing zeros of the fraction, and a
    point with no fraction after it, are masked out.

    The four ASCII digits of every integer below 10**4, one uint32 each.
    """
    e = np.arange(_E_MIN, _E_MAX + 1)
    layout = np.where((e < -4) | (e > 16), 0, np.where(e < 0, 18, e + 1))
    words = np.zeros((e.size, 2, 8), np.uint8)
    for row, ev in enumerate(e.tolist()):
        if -4 <= ev < 0:
            words[row, 0, 2:4] = np.frombuffer(b"0.", np.uint8)
            words[row, 0, 8 + ev:7] = ord("0")
        elif layout[row] == 0:
            text = "e" + "-+"[ev > 0] + str(abs(ev)).zfill(2).rjust(3, "\0")
            words[row, 1, 2:7] = np.frombuffer(text.encode(), np.uint8)

    # point position p and first fraction digit f of each class: digit j >= 1
    # sits at byte j - 1 before the point and at byte j after it.  For
    # -4 <= E < 0 word 0 holds "0.", so every digit is a fraction digit and
    # the point at byte 16 is always cut.
    p = np.array([0] + list(range(17)) + [16])[:, None, None]
    f = np.array([1] + list(range(1, 18)) + [0])[:, None, None]
    last = np.arange(17)[None, :, None]
    keep = np.where(last >= f, np.where(last - 1 < p, last, last + 1), p)
    q = np.arange(24)[None, None, :]
    a, b, c = (np.broadcast_to(sel & (q < keep), (19, 17, 24)).reshape(-1, 3, 8)
               for sel in (q < p, q > p, q == p))
    masks = np.where(np.concatenate([a[:, :2], b, c[:, :2]], axis=1), 0xFF, 0)
    masks[:, 5:] &= ord(".")

    k = np.arange(10**4, dtype=np.uint16)
    groups = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1)
    return (_read_only(17 * layout), _read_only(words.reshape(-1, 16).view(_U64)),
            _read_only(masks.astype(np.uint8).reshape(-1, 56).view(_U64)),
            _read_only((groups.astype(np.uint8) + np.uint8(ord("0"))).view("<u4")[:, 0]))


@functools.lru_cache(maxsize=8)
def _cell_prefixes(nx: int, ny: int) -> np.ndarray:
    """``"i,j,"`` of every cell in row-major order, one row of little-endian
    words per cell, zero bytes as padding."""
    def column(n):
        width = len(str(n - 1))
        text = "".join(str(k).rjust(width, "\0") + "," for k in range(n))
        return np.frombuffer(text.encode(), np.uint8).reshape(n, width + 1)
    ci, cj = column(nx), column(ny)
    out = np.zeros((nx, ny, -(-(ci.shape[1] + cj.shape[1]) // 8) * 8), np.uint8)
    out[:, :, :ci.shape[1]] = ci[:, None, :]
    out[:, :, ci.shape[1]:ci.shape[1] + cj.shape[1]] = cj[None, :, :]
    return _read_only(out.reshape(nx * ny, -1).view(_U64))


def _round17(ax: np.ndarray, e: np.ndarray):
    """hi + lo = ax * 10**(16 - e) to within 1e-14 (Dekker's exact product of
    ax and hi of the power, plus ax times its lo), D = round(hi + lo), and
    whether hi + lo is too close to a tie to round that way."""
    t_hi, t_lo, t_hh, t_hl = _powers_of_ten().take(_E_MAX - e, axis=0).T
    product = ax * t_hi
    upper = _SPLIT * ax
    upper -= upper - ax
    lower = ax - upper
    lo = ((upper * t_hh - product) + upper * t_hl + lower * t_hh) + lower * t_hl + ax * t_lo
    hi = product + lo
    lo -= hi - product
    rounded = np.rint(lo)
    d = hi.astype(np.int64) + rounded.astype(np.int64)
    return hi, lo, d, np.abs(lo - rounded) > 0.5 - _TIE_MARGIN


def _encode(x: np.ndarray) -> np.ndarray:
    """f"{v:.17g}" of every value v of x (m,), as slots (m, 4) of words; byte 23
    of each slot, the separator, is left zero."""
    layout17, e_words, masks, groups = _layout_tables()
    ax = np.abs(x)
    fast = (ax > _FAST_MIN) & (ax < _FAST_MAX)
    np.copyto(ax, 2.0, where=~fast)
    e = np.floor(np.log10(ax)).astype(np.intp)
    hi, lo, d, tie = _round17(ax, e)
    # log10 can be one off next to a power of ten, and D can carry to 10**17:
    # correct E from the unrounded product, which needs 17 integer digits
    near = np.flatnonzero(np.abs(hi - 5.5e16) >= 4.5e16 - 16)
    if near.size:
        h, h_lo = hi[near], lo[near]
        e_near = e[near] + ((h > 1e17) | (h == 1e17) & (h_lo >= 0))
        e_near -= (h < 1e16) | (h == 1e16) & (h_lo < 0)
        _, _, d_near, tie[near] = _round17(ax[near], e_near)
        carry = d_near == 10**17
        d[near] = np.where(carry, 10**16, d_near)
        e[near] = e_near + carry

    # the first digit, then the other 16 in ASCII, as two words of eight
    first = d // 10**16
    rest = d - first * 10**16
    zero = x == 0
    first[zero] = 0
    top = rest // 10**8
    bottom = rest - top * 10**8
    g = np.empty((x.size, 4), np.intp)
    np.floor_divide(top, 10**4, out=g[:, 0])
    np.subtract(top, g[:, 0] * 10**4, out=g[:, 1])
    np.floor_divide(bottom, 10**4, out=g[:, 2])
    np.subtract(bottom, g[:, 2] * 10**4, out=g[:, 3])
    w = groups.take(g).view(_U64)
    w1, w2 = w.T
    # index of the last nonzero digit, from the float exponent of the digit
    # values read as one 128-bit number
    raw = w ^ _ASCII_ZEROS
    bits = (raw[:, 1].astype(float) * 2.0**64 + raw[:, 0]).view(np.int64) >> 52
    last = np.maximum(bits - 1015, 0) >> 3

    # insert the point: keep the bytes before it, shift the rest up one byte
    row = e - _E_MIN
    a1, a2, b1, b2, b3, c1, c2 = masks.take(layout17.take(row) + last, axis=0).T
    w0, w3 = e_words.take(row, axis=0).T
    words = np.empty((x.size, 4), _U64)
    np.bitwise_or(w0, (first.view(np.uint64) + np.uint64(ord("0"))) << _TOP_BYTE, out=words[:, 0])
    words[:, 0] |= np.signbit(x) * np.uint64(ord("-"))
    np.bitwise_and(w1, a1, out=words[:, 1])
    shifted = w1 << _BYTE
    shifted &= b1
    words[:, 1] |= shifted
    words[:, 1] |= c1
    np.bitwise_and(w2, a2, out=words[:, 2])
    shifted = w2 << _BYTE
    shifted |= w1 >> _TOP_BYTE
    shifted &= b2
    words[:, 2] |= shifted
    words[:, 2] |= c2
    np.bitwise_and(w2 >> _TOP_BYTE, b3, out=words[:, 3])
    words[:, 3] |= w3

    for i in np.flatnonzero(tie | ~(fast | zero)).tolist():
        words[i] = np.frombuffer((b"%.17g" % x[i]).ljust(32, b"\0"), _U64)
    return words


def _write_csv(path: str, grid: Grid2P, components: np.ndarray):
    n_comp = components.shape[0]
    prefixes = _cell_prefixes(grid.nx, grid.ny)
    n_cells = grid.nx * grid.ny
    values = components.transpose(1, 2, 0).reshape(-1)
    block = max(1, _BLOCK_VALUES // (grid.ny * n_comp)) * grid.ny
    with open(path, "wb") as f:
        f.write((_header(n_comp) + "\n").encode())
        for start in range(0, n_cells, block):
            cells = min(block, n_cells - start)
            words = _encode(np.asarray(values[start * n_comp:(start + cells) * n_comp],
                                       dtype=float))
            words[:, 3] |= _COMMA
            words[n_comp - 1::n_comp, 3] ^= _COMMA ^ _NEWLINE
            rows = np.concatenate([prefixes[start:start + cells],
                                   words.reshape(cells, 4 * n_comp)], axis=1)
            f.write(rows.tobytes().translate(None, b"\0"))


def _read_csv(path: str, grid: Grid2P, n_comp: int) -> np.ndarray:
    with open(path) as f:
        try:
            header = f.readline().strip()
        except UnicodeDecodeError as exc:
            raise ArchiveError(f"{path}: {exc}") from None
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


def save_path_archive(directory: str, path: Path):
    """One CSV per slice of the path's velocity (and density) arrays."""
    os.makedirs(directory, exist_ok=True)
    save_grid(os.path.join(directory, "grid.json"), path.grid)
    slices = []
    compressible = path.kind == "compressible"
    for k, t in enumerate(path.times.tolist()):
        v_name = f"v_{k:04d}.csv"
        save_vector(os.path.join(directory, v_name), VectorField(path.grid, path.V[k]))
        entry = {"index": k, "t": t, "v": v_name}
        if compressible:
            rho_name = f"rho_{k:04d}.csv"
            save_scalar(os.path.join(directory, rho_name), ScalarField(path.grid, path.rho[k]))
            entry["rho"] = rho_name
        slices.append(entry)
    manifest = {
        "format": "sbenflow-path/1",
        "kind": path.kind,
        "eos": eos_to_json(path.eos),
        "slices": slices,
    }
    if path.pressures is not None:
        names = []
        for k, p in enumerate(path.pressures):
            name = f"p_{k:04d}.csv"
            save_scalar(os.path.join(directory, name), ScalarField(path.grid, p))
            names.append(name)
        manifest["pressures"] = names
    with open(os.path.join(directory, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")


def load_path_archive(directory: str, expect_grid: Optional[Grid2P] = None,
                      expect_eos: Optional[Eos] = None) -> Path:
    """The archived path, its slices read into the path's arrays.  The
    manifest's eos must name every constant of its kind (eos_from_json)."""
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
        eos = eos_from_json(manifest["eos"])
        slices = [(float(entry["t"]), entry["v"], entry.get("rho"))
                  for entry in manifest["slices"]]
        pressure_names = manifest.get("pressures")
        check_path_times([t for t, _, _ in slices])  # before any CSV is opened
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ArchiveError(f"{manifest_file}: malformed manifest ({exc!r})") from None
    if expect_eos is not None and eos != expect_eos:
        raise ArchiveError(f"archive eos {eos} does not match configured eos {expect_eos}")
    incompressible = isinstance(eos, IncompressibleEos)
    if pressure_names is not None and not (incompressible and isinstance(pressure_names, list)
                                           and len(pressure_names) == len(slices) - 1):
        raise ArchiveError(f"{manifest_file}: pressures {pressure_names!r} is not a list of "
                           f"one file per interval of an incompressible path")
    kind = "incompressible" if incompressible else "compressible"
    if manifest.get("kind") != kind:
        raise ArchiveError(
            f"{manifest_file}: kind {manifest.get('kind')!r} does not match its {kind} eos")
    if any((rho is None) != incompressible for _, _, rho in slices):
        raise ArchiveError(f"{manifest_file}: every slice of a compressible path names a "
                           f"density file, and no slice of an incompressible one")
    names = [v for _, v, _ in slices] + [rho for _, _, rho in slices if rho is not None]
    for name in names + (pressure_names or []):
        if not isinstance(name, str):
            raise ArchiveError(f"{manifest_file}: file name {name!r} is not a string")
    V = np.empty((len(slices), 3, *grid.shape))
    rho = None if incompressible else np.empty((len(slices), *grid.shape))
    for k, (_, v_name, rho_name) in enumerate(slices):
        V[k] = load_vector(os.path.join(directory, v_name), grid).data
        if rho_name is not None:
            rho[k] = load_scalar(os.path.join(directory, rho_name), grid).data
            if (rho[k] <= 0).any():
                raise ArchiveError(f"{directory}: {rho_name} has a non-positive density")
    pressures = None if pressure_names is None else np.empty((len(pressure_names), *grid.shape))
    for k, name in enumerate(pressure_names or []):
        pressures[k] = load_scalar(os.path.join(directory, name), grid).data
    return Path(grid, eos, [t for t, _, _ in slices], V, rho, pressures)
