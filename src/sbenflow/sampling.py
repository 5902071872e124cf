"""Seeded band-limited random fields for the property suites.

All generators draw from a caller-supplied numpy Generator and build fields
from low-wavenumber Fourier modes only (|k| <= kmax componentwise, strictly
below the grid Nyquist), so sampled fields are smooth and runs are
reproducible from the seed.  A field is the sum over one representative
(kx, ky) per +-k pair of c cos(2 pi (kx x / lx + ky y / ly) + p) at the cell
centres, each scalar drawing its coefficients c ~ N(0, 1) and then its
phases p ~ U(0, 2 pi) in the mode order of ``_mode_table``.  The sum is not
taken term by term: the draws of a whole stack of fields are placed into one
``rfft2``-layout spectrum, and one ``irfft2`` makes the stack.  A seed draws
the fields the direct sum would, equal to round-off, and leaves the
generator where the direct sum would.  The coefficients of the stencil null
modes (the mean and the Nyquist checkerboards) are exactly zero, so the
fields' null content is round-off.
"""

from __future__ import annotations

import functools

import numpy as np

from .fields import Grid2P, ScalarField, VectorField, central_differences


@functools.lru_cache(maxsize=16)
def _mode_table(nx: int, ny: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (kx, ky) of one representative per +-k pair, in draw order:
    kx = 0..kmax, then ky = -kmax..kmax, without ky <= 0 at kx = 0."""
    if 2 * kmax >= min(nx, ny):
        raise ValueError(f"kmax={kmax} too large for {nx}x{ny} grid")
    kx, ky = np.meshgrid(np.arange(kmax + 1), np.arange(-kmax, kmax + 1), indexing="ij")
    keep = (kx > 0) | (ky > 0)
    kx, ky = kx[keep], ky[keep]
    kx.setflags(write=False)
    ky.setflags(write=False)
    return kx, ky


def _synthesize(grid: Grid2P, rng: np.random.Generator, kmax: int, amplitude: float,
                count: int) -> np.ndarray:
    """``count`` random scalars (count, nx, ny), drawn one after another, from
    one irfft2.  Mode (kx, ky) with z = c exp(i (p + pi (kx/nx + ky/ny))), the
    phase shifted by the half cell of the cell centres, sits at (kx, ky) of
    the spectrum; one with ky < 0 enters as its mirror (-kx, -ky, conj z).
    The conjugate of a mode with ky > 0 is implied by the half spectrum, but
    the ky = 0 column holds both members of a pair, so such a mode is also
    set at (-kx, 0) as conj z."""
    nx, ny = grid.nx, grid.ny
    kx, ky = _mode_table(nx, ny, kmax)
    mirror, axis = ky < 0, ky == 0
    rows, cols = np.where(mirror, -kx, kx) % nx, np.abs(ky)
    shift = np.pi * (kx / nx + ky / ny)
    spectrum = np.zeros((count, nx, ny // 2 + 1), dtype=complex)
    for s in spectrum:
        c = rng.normal(size=len(kx))
        p = rng.uniform(0.0, 2.0 * np.pi, size=len(kx))
        # irfft2 divides by nx ny, and the two terms of a pair make 2 Re z
        z = (0.5 * nx * ny) * c * np.exp(1j * (p + shift))
        s[rows, cols] = np.where(mirror, z.conj(), z)
        s[-kx[axis] % nx, 0] = z[axis].conj()
    fields = np.fft.irfft2(spectrum, s=grid.shape)
    fields *= amplitude / max(1, np.sqrt(len(kx)))
    return fields


def random_scalar(grid: Grid2P, rng: np.random.Generator, kmax: int = 3,
                  amplitude: float = 1.0) -> ScalarField:
    """Zero-mean random trigonometric polynomial."""
    return ScalarField(grid, _synthesize(grid, rng, kmax, amplitude, 1)[0])


def random_vector(grid: Grid2P, rng: np.random.Generator, kmax: int = 3,
                  amplitude: float = 1.0) -> VectorField:
    """Three random scalars, the components in order."""
    return VectorField(grid, _synthesize(grid, rng, kmax, amplitude, 3))


def random_solenoidal(grid: Grid2P, rng: np.random.Generator, kmax: int = 3,
                      amplitude: float = 1.0) -> VectorField:
    """Random field with exactly zero discrete divergence.

    In-plane part is the discrete curl of a random stream function (the
    central-difference operators commute, so div vanishes to round-off);
    the out-of-plane component is unconstrained.
    """
    psi, vz = _synthesize(grid, rng, kmax, amplitude, 2)
    dx, dy = central_differences(grid, psi)
    return VectorField(grid, np.stack([dy, -dx, vz]))
