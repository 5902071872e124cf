"""Periodic-grid fields and their discrete calculus.

Everything lives on a rectangular, doubly periodic grid.  The setting is a
planar slab: samples depend on (x, y) only, but vector and tensor fields
keep all three Cartesian components so that the full 3-D formulas (cross
products, deviatoric 1/3 factors) apply verbatim with d/dz == 0.

Derivatives are second-order central differences with periodic wrap,
quadrature is the periodic midpoint rule.  With this pairing the discrete
gradient is exactly minus the adjoint of the discrete divergence, which the
conjugation and projection machinery downstream relies on.  On the periodic
grid each central difference is a Fourier multiplier (see spectral_symbols),
so the elliptic solves downstream are exact per-wavenumber inverses.

The differences work on the flat buffer without rolled copies (see _ddx).
central_differences returns the two in-plane derivative columns, for callers
that build several operators from one Jacobian (strain_from_columns turns
them into D, advect_columns into the advection); sym_grad and div_tensor
each take their six derivatives in one such call.  It binds Differences to
its arrays and applies them once; a caller that takes the same differences
many times, such as the reference stepper, binds them once and applies them
at each step.

A field's data may carry leading axes: a stack of fields on one grid, such as
the consecutive slices of a path, components on axis -3.  The arithmetic,
the differences, grad_scalar, sym_grad, strain_from_columns, advect_columns,
div_tensor, div_outer, cross, scalar_times_vector, component_means,
remove_stencil_null, null_coefficients and null_part act on each field of a
stack, and integrate, inner, spectral_inner and l2_norm give one value per
field, each with the bits of the field alone; the other operators take one
field.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Component order of the symmetric tensor storage.
XX, YY, ZZ, XY, XZ, YZ = range(6)

# Off-diagonal entries count twice in contractions of symmetric tensors.
_SYM_WEIGHTS = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])


class GridMismatchError(ValueError):
    """Raised when an operation combines fields on incompatible grids."""


@dataclass(frozen=True)
class Grid2P:
    """Doubly periodic rectangular grid with nx*ny collocated cells."""

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"grid needs at least 4 cells per direction, got {self.nx}x{self.ny}")
        if not (0 < self.lx < math.inf and 0 < self.ly < math.inf):
            raise ValueError(f"box lengths must be positive and finite, got {self.lx}, {self.ly}")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def x(self) -> np.ndarray:
        """Cell-center x coordinates, shape (nx, ny)."""
        xs = (np.arange(self.nx) + 0.5) * self.dx
        return np.broadcast_to(xs[:, None], self.shape).copy()

    def y(self) -> np.ndarray:
        """Cell-center y coordinates, shape (nx, ny)."""
        ys = (np.arange(self.ny) + 0.5) * self.dy
        return np.broadcast_to(ys[None, :], self.shape).copy()


def components(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """The component planes of (a stack of) vector or tensor data (..., c, nx, ny), as views."""
    return tuple(a[..., i, :, :] for i in range(a.shape[-3]))


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError(
            f"incompatible fields: {a.grid.nx}x{a.grid.ny} box ({a.grid.lx}, {a.grid.ly}) "
            f"vs {b.grid.nx}x{b.grid.ny} box ({b.grid.lx}, {b.grid.ly})"
        )


class _FieldOps:
    """Shared linear-space arithmetic for the field wrappers."""

    __slots__ = ()

    def __add__(self, other):
        _check_same_grid(self, other)
        return type(self)(self.grid, self.data + other.data)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return type(self)(self.grid, self.data - other.data)

    def __mul__(self, a: float):
        return type(self)(self.grid, self.data * float(a))

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(self.grid, -self.data)

    def copy(self):
        return type(self)(self.grid, self.data.copy())


@dataclass(frozen=True)
class ScalarField(_FieldOps):
    grid: Grid2P
    data: np.ndarray  # (..., nx, ny)

    def __post_init__(self):
        if self.data.shape[-2:] != self.grid.shape:
            raise ValueError(f"scalar data shape {self.data.shape} != (..., {self.grid.nx}, {self.grid.ny})")

    @classmethod
    def zeros(cls, grid: Grid2P) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid: Grid2P, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))


@dataclass(frozen=True)
class VectorField(_FieldOps):
    grid: Grid2P
    data: np.ndarray  # (..., 3, nx, ny)

    def __post_init__(self):
        if self.data.shape[-3:] != (3, *self.grid.shape):
            raise ValueError(f"vector data shape {self.data.shape} != (..., 3, {self.grid.nx}, {self.grid.ny})")

    @classmethod
    def zeros(cls, grid: Grid2P) -> "VectorField":
        return cls(grid, np.zeros((3, *grid.shape)))

    @classmethod
    def from_components(cls, grid: Grid2P, cx, cy, cz=None) -> "VectorField":
        data = np.zeros((3, *grid.shape))
        data[0] = cx
        data[1] = cy
        if cz is not None:
            data[2] = cz
        return cls(grid, data)


@dataclass(frozen=True)
class SymTensorField(_FieldOps):
    """Symmetric tensor with the six independent components xx, yy, zz, xy, xz, yz."""

    grid: Grid2P
    data: np.ndarray  # (..., 6, nx, ny)

    def __post_init__(self):
        if self.data.shape[-3:] != (6, *self.grid.shape):
            raise ValueError(f"tensor data shape {self.data.shape} != (..., 6, {self.grid.nx}, {self.grid.ny})")

    @classmethod
    def zeros(cls, grid: Grid2P) -> "SymTensorField":
        return cls(grid, np.zeros((6, *grid.shape)))

    def trace(self) -> ScalarField:
        return ScalarField(self.grid, self.data[XX] + self.data[YY] + self.data[ZZ])


@dataclass(frozen=True)
class Tensor33Field(_FieldOps):
    """Full 3x3 tensor; entry [i, j] holds the j-derivative of component i."""

    grid: Grid2P
    data: np.ndarray  # (3, 3, nx, ny)

    def __post_init__(self):
        if self.data.shape != (3, 3, *self.grid.shape):
            raise ValueError(f"tensor data shape {self.data.shape} != (3, 3, {self.grid.nx}, {self.grid.ny})")

    @classmethod
    def zeros(cls, grid: Grid2P) -> "Tensor33Field":
        return cls(grid, np.zeros((3, 3, *grid.shape)))


# --- central differences -------------------------------------------------

# Both differences work on the flat buffer of a C-contiguous (..., nx, ny)
# array: one subtraction at offset +-ny (x) or +-1 (y) covers every interior
# row or column of every leading block, then the two wrap rows or columns,
# where the flat offset runs into the neighbouring row or block, are
# overwritten.  Each output is a[i+1] - a[i-1] over 2h, the operands and
# order of (roll(a, -1) - roll(a, 1)) / 2h, so results match it bit for bit.
# A difference is bound to its arrays once (the views of _x_views and
# _y_views, and _out_for's checks) and applied by _apply: three subtractions
# and one division.  A given out must be C-contiguous, of a's shape, and
# must not overlap a.

def _out_for(a: np.ndarray, out: Optional[np.ndarray], *apart) -> np.ndarray:
    """out checked against a, and against the arrays apart; a new one if None."""
    if out is None:
        return np.empty_like(a)
    bad = out.shape != a.shape or not out.flags.c_contiguous
    for b in (a, *apart):
        bad = bad or np.may_share_memory(b, out)
    if bad:
        raise ValueError("out must be a C-contiguous array of the input's shape, apart from it")
    return out


def _x_views(a: np.ndarray, out: np.ndarray) -> tuple:
    """d/dx's three subtractions of a into out, as (minuend, subtrahend, out) views."""
    step = a.shape[-1]
    flat, flat_out = a.reshape(-1), out.reshape(-1)
    return ((flat[2 * step:], flat[:-2 * step], flat_out[step:-step]),
            (a[..., 1, :], a[..., -1, :], out[..., 0, :]),
            (a[..., 0, :], a[..., -2, :], out[..., -1, :]))


def _y_views(a: np.ndarray, out: np.ndarray) -> tuple:
    """d/dy's three subtractions of a into out, as (minuend, subtrahend, out) views."""
    flat, flat_out = a.reshape(-1), out.reshape(-1)
    return ((flat[2:], flat[:-2], flat_out[1:-1]),
            (a[..., 1], a[..., -1], out[..., 0]),
            (a[..., 0], a[..., -2], out[..., -1]))


def _apply(subtractions: tuple, out: np.ndarray, h2: float) -> np.ndarray:
    for a, b, o in subtractions:
        np.subtract(a, b, out=o)
    out /= h2
    return out


def _ddx(grid: Grid2P, a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    a = np.ascontiguousarray(a)
    out = _out_for(a, out)
    return _apply(_x_views(a, out), out, 2.0 * grid.dx)


def _ddy(grid: Grid2P, a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    a = np.ascontiguousarray(a)
    out = _out_for(a, out)
    return _apply(_y_views(a, out), out, 2.0 * grid.dy)


class Differences:
    """central_differences bound to its arrays, for a caller that takes the
    same differences many times: the views and the checks are made once, and
    each call writes (d/dx ax, d/dy ay), of what ax and ay hold then, into
    out and returns that pair.

    ax and ay (ay defaults to ax) must be C-contiguous arrays (..., nx, ny);
    out is a pair of C-contiguous arrays of their shapes, apart from both
    inputs and from each other (new arrays if None).
    """

    __slots__ = ("out", "_x", "_y", "_hx", "_hy")

    def __init__(self, grid: Grid2P, ax: np.ndarray, ay: Optional[np.ndarray] = None,
                 out: Optional[tuple[np.ndarray, np.ndarray]] = None):
        ay = ax if ay is None else ay
        if not (ax.flags.c_contiguous and ay.flags.c_contiguous):
            raise ValueError("bound differences need C-contiguous inputs")
        ox, oy = (None, None) if out is None else out
        ox = _out_for(ax, ox, ay)
        oy = _out_for(ay, oy, ax, ox)
        self.out = (ox, oy)
        self._x, self._y = _x_views(ax, ox), _y_views(ay, oy)
        self._hx, self._hy = 2.0 * grid.dx, 2.0 * grid.dy

    def __call__(self) -> tuple[np.ndarray, np.ndarray]:
        ox, oy = self.out
        _apply(self._x, ox, self._hx)
        _apply(self._y, oy, self._hy)
        return self.out


def central_differences(grid: Grid2P, ax: np.ndarray, ay: Optional[np.ndarray] = None,
                        out: Optional[tuple[np.ndarray, np.ndarray]] = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx ax, d/dy ay) for arrays of shape (..., nx, ny); ay defaults to ax.

    With one array these are the two in-plane columns of its Jacobian; with
    the two columns of a Jacobian, their sum is the Laplacian.  With out, a
    pair of C-contiguous arrays apart from the inputs and from each other,
    the two differences are written there and returned.  It binds
    Differences to (contiguous copies of) the inputs and applies them once.
    """
    ax = np.ascontiguousarray(ax)
    ay = ax if ay is None else np.ascontiguousarray(ay)
    return Differences(grid, ax, ay, out)()


def grad_scalar(s: ScalarField) -> VectorField:
    """Gradient of a scalar; the out-of-plane component is identically zero."""
    g = np.zeros((*s.data.shape[:-2], 3, *s.grid.shape))
    g[..., 0, :, :], g[..., 1, :, :] = central_differences(s.grid, s.data)
    return VectorField(s.grid, g)


def grad_vector(v: VectorField) -> Tensor33Field:
    """Jacobian of a vector field: entry [i, j] = d v_i / d x_j (j = z column is zero)."""
    j = np.zeros((3, 3, *v.grid.shape))
    j[:, 0], j[:, 1] = central_differences(v.grid, v.data)
    return Tensor33Field(v.grid, j)


def div_vector(v: VectorField) -> ScalarField:
    return ScalarField(v.grid, _ddx(v.grid, v.data[0]) + _ddy(v.grid, v.data[1]))


def div_tensor(t: SymTensorField) -> VectorField:
    """Row-wise divergence of a symmetric tensor field.

    The six derivatives are one central_differences call on the stacked rows
    (XX, XY, XZ) and (XY, YY, YZ); component i is d/dx T[i, x] + d/dy T[i, y],
    summed in that order.
    """
    g = t.grid
    d = t.data
    out, out_y = central_differences(g, d[..., [XX, XY, XZ], :, :], d[..., [XY, YY, YZ], :, :])
    out += out_y
    return VectorField(g, out)


def curl(v: VectorField) -> VectorField:
    g = v.grid
    out = np.zeros((3, *g.shape))
    out[0] = _ddy(g, v.data[2])
    out[1] = -_ddx(g, v.data[2])
    out[2] = _ddx(g, v.data[1]) - _ddy(g, v.data[0])
    return VectorField(g, out)


def laplacian(v: VectorField) -> VectorField:
    """Componentwise Laplacian, built as div(grad) so it pairs exactly with the stencils above."""
    g = v.grid
    return VectorField(g, _ddx(g, _ddx(g, v.data)) + _ddy(g, _ddy(g, v.data)))


def laplacian_scalar(s: ScalarField) -> ScalarField:
    g = s.grid
    return ScalarField(g, _ddx(g, _ddx(g, s.data)) + _ddy(g, _ddy(g, s.data)))


def sym_grad(v: VectorField) -> SymTensorField:
    """Symmetric velocity gradient D = (grad v + (grad v)^T) / 2."""
    return strain_from_columns(v.grid, *central_differences(v.grid, v.data))


def strain_from_columns(grid: Grid2P, jx: np.ndarray, jy: np.ndarray) -> SymTensorField:
    """D from the Jacobian columns (jx, jy) = central_differences(grid, v.data).

    For callers that difference v once and build several operators from it;
    sym_grad(v) is this applied to v's own columns.
    """
    out = np.zeros((*jx.shape[:-3], 6, *grid.shape))
    d, x, y = components(out), components(jx), components(jy)
    d[XX][...] = x[0]
    d[YY][...] = y[1]
    d[XY][...] = 0.5 * (y[0] + x[1])
    d[XZ][...] = 0.5 * x[2]
    d[YZ][...] = 0.5 * y[2]
    return SymTensorField(grid, out)


def advect_columns(v: np.ndarray, jx: np.ndarray, jy: np.ndarray) -> np.ndarray:
    """(v . grad) b = v_x jx + v_y jy from the Jacobian columns (jx, jy) of b,
    with the operands and order of advect, written over jx (jy is scratch) and
    returned: for callers that build other operators from the same columns."""
    jx *= v[..., :1, :, :]
    jy *= v[..., 1:2, :, :]
    jx += jy
    return jx


# --- pointwise algebra ----------------------------------------------------

def advect(a: VectorField, b: VectorField) -> VectorField:
    """(a . grad) b."""
    _check_same_grid(a, b)
    g = a.grid
    return VectorField(g, a.data[0] * _ddx(g, b.data) + a.data[1] * _ddy(g, b.data))


def div_outer(a: VectorField, b: VectorField) -> VectorField:
    """Divergence of the outer product: component i is sum_j d_j (a_j b_i).

    Exact discrete adjoint of -advect(a, .) on periodic grids.
    """
    _check_same_grid(a, b)
    g = a.grid
    return VectorField(g, _ddx(g, a.data[..., :1, :, :] * b.data)
                       + _ddy(g, a.data[..., 1:2, :, :] * b.data))


def cross(a: VectorField, b: VectorField) -> VectorField:
    _check_same_grid(a, b)
    ax, ay, az = components(a.data)
    bx, by, bz = components(b.data)
    out = np.empty(np.broadcast_shapes(a.data.shape, b.data.shape))
    out[..., 0, :, :] = ay * bz - az * by
    out[..., 1, :, :] = az * bx - ax * bz
    out[..., 2, :, :] = ax * by - ay * bx
    return VectorField(a.grid, out)


def jac_transpose_dot(j: Tensor33Field, v: VectorField) -> VectorField:
    """Component i is sum_j v_j J[j,i] (contraction leaving the derivative index free)."""
    _check_same_grid(j, v)
    return VectorField(v.grid, np.einsum("ji...,j...->i...", j.data, v.data))


def scalar_times_vector(s, v: VectorField) -> VectorField:
    """s v for a ScalarField s on v's grid, or a constant s (the bits of the
    field full of it)."""
    if isinstance(s, ScalarField):
        _check_same_grid(s, v)
        s = s.data[..., None, :, :]
    return VectorField(v.grid, s * v.data)


def dot_vectors(a: VectorField, b: VectorField) -> ScalarField:
    _check_same_grid(a, b)
    return ScalarField(a.grid, np.einsum("i...,i...->...", a.data, b.data))


# --- quadrature -----------------------------------------------------------

def _per_field(total: np.ndarray):
    """A float for one field, an array of one value per field for a stack."""
    return float(total) if total.ndim == 0 else total


def integrate(s: ScalarField):
    """Midpoint-rule integral over the periodic box (per unit slab depth)."""
    return _per_field(s.data.sum(axis=(-2, -1)) * s.grid.cell_area)


def inner(u: VectorField, w: VectorField):
    """L2 pairing of two vector fields over the box."""
    _check_same_grid(u, w)
    return _per_field((u.data * w.data).sum(axis=(-3, -2, -1)) * u.grid.cell_area)


def l2_norm(v):
    if isinstance(v, VectorField):
        return np.sqrt(np.maximum(inner(v, v), 0.0))
    return np.sqrt(np.maximum(integrate(ScalarField(v.grid, v.data**2)), 0.0))


def linf_norm(v) -> float:
    return float(np.abs(v.data).max())


# --- null modes of the central-difference stencils -------------------------

def component_means(v: VectorField) -> np.ndarray:
    return v.data.mean(axis=(-2, -1))


def remove_mean(v: VectorField) -> VectorField:
    return VectorField(v.grid, v.data - component_means(v)[:, None, None])


@functools.lru_cache(maxsize=16)
def _null_patterns(grid: Grid2P) -> tuple[np.ndarray, ...]:
    """Orthogonal basis of the central-difference null space (constants and,
    on even-sized grids, the odd-even checkerboards), each of mean square 1;
    built once per grid, shared read-only, as broadcast views of sign vectors."""
    sx = np.where(np.arange(grid.nx) % 2 == 0, 1.0, -1.0)[:, None]
    sy = np.where(np.arange(grid.ny) % 2 == 0, 1.0, -1.0)[None, :]
    pats = [np.broadcast_to(1.0, grid.shape)]
    if grid.nx % 2 == 0:
        pats.append(np.broadcast_to(sx, grid.shape))
    if grid.ny % 2 == 0:
        pats.append(np.broadcast_to(sy, grid.shape))
    if grid.nx % 2 == 0 and grid.ny % 2 == 0:
        pats.append(np.broadcast_to(sx * sy, grid.shape))
    return tuple(pats)


def remove_stencil_null(v: VectorField) -> VectorField:
    """Project out all grid modes annihilated by the central-difference operators."""
    return VectorField(v.grid, v.data - null_part(v.grid, null_coefficients(v)))


def null_coefficients(v: VectorField) -> np.ndarray:
    """<v, p> / (nx ny) of each null pattern p, as (..., 3, n_patterns)."""
    n = v.grid.nx * v.grid.ny
    return np.stack([(v.data * p).sum(axis=(-2, -1)) / n for p in _null_patterns(v.grid)], -1)


def null_part(grid: Grid2P, coeffs: np.ndarray) -> np.ndarray:
    """The null part (..., 3, nx, ny) of a field, from its null_coefficients."""
    return sum(coeffs[..., k, None, None] * p for k, p in enumerate(_null_patterns(grid)))


# --- Fourier symbols of the central differences ----------------------------

@dataclass(frozen=True)
class SpectralSymbols:
    """Central-difference symbols in numpy.fft.rfft2 layout (nx, ny//2 + 1).

    On mode (mx, my) the x-difference multiplies by i*sx and the y-difference
    by i*sy.  inv_s2 is 1/|s|^2, set to 0 on the stencil null modes (the
    constant and the checkerboards), so it inverts -laplacian on the range.
    weights are the Parseval weights of a spectrum's interleaved real and
    imaginary parts, 0 on the null modes.  The arrays are read-only: one
    instance is shared per grid.
    """

    sx: np.ndarray       # (nx, 1)
    sy: np.ndarray       # (1, ny//2 + 1)
    inv_s2: np.ndarray   # (nx, ny//2 + 1)
    weights: np.ndarray  # (nx, 2 (ny//2 + 1))


@functools.lru_cache(maxsize=16)
def spectral_symbols(grid: Grid2P) -> SpectralSymbols:
    """The grid's symbols, computed once per grid (Grid2P is frozen and hashable)."""
    mx = np.arange(grid.nx)
    my = np.arange(grid.ny // 2 + 1)
    # null rows of each direction: the constant (m = 0) and, on even sizes,
    # the checkerboard (2m = n), picked by index since sin(pi) is only ~1e-16
    null_x = (mx == 0) | (2 * mx == grid.nx)
    null_y = (my == 0) | (2 * my == grid.ny)
    sx = np.where(null_x, 0.0, np.sin(2.0 * np.pi * mx / grid.nx) / grid.dx)[:, None]
    sy = np.where(null_y, 0.0, np.sin(2.0 * np.pi * my / grid.ny) / grid.dy)[None, :]
    null = null_x[:, None] & null_y[None, :]
    s2 = np.where(null, 1.0, sx**2 + sy**2)
    inv_s2 = np.where(null, 0.0, 1.0 / s2)
    # a half-spectrum column counts for its conjugate too, unless it is its own
    parseval = np.where(null_y, 1.0, 2.0) * grid.cell_area / (grid.nx * grid.ny)
    weights = np.repeat(np.where(null, 0.0, parseval), 2, axis=-1)
    for a in (sx, sy, inv_s2, weights):
        a.flags.writeable = False
    return SpectralSymbols(sx, sy, inv_s2, weights)


def spectral_inner(grid: Grid2P, ah: np.ndarray, bh: np.ndarray):
    """<a, b> of two vector fields without their null modes, from their rfft2
    spectra (Parseval): one value per field of a stack."""
    prod = ah.view(np.float64) * bh.view(np.float64)
    prod *= spectral_symbols(grid).weights
    return _per_field(prod.sum(axis=(-3, -2, -1)))
