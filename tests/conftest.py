import math

import numpy as np
import pytest

from sbenflow import fields as fd
from sbenflow.balance import IncompressibleEos
from sbenflow.fields import Grid2P, ScalarField
from sbenflow.sben import Path, evaluate_path, slave_density

TWO_PI = 2.0 * math.pi


@pytest.fixture
def grid32():
    return Grid2P(32, 32, TWO_PI, TWO_PI)


@pytest.fixture
def grid16():
    return Grid2P(16, 16, TWO_PI, TWO_PI)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def observed_order(errors, factor=2.0):
    """Least-order estimate over successive refinements by `factor`."""
    orders = [math.log(errors[i] / errors[i + 1]) / math.log(factor)
              for i in range(len(errors) - 1)]
    return min(orders)


def functional_report(path, mu, grav, kind):
    """The functional's report from sben.evaluate_path, on a path of the kind
    the test means."""
    assert path.kind == kind
    return evaluate_path(path, mu, grav)[0]


def leray_two_component(v):
    """The Leray projection in its two-component spectral form,
    q_hat = -i (sx vx_hat + sy vy_hat) / |s|^2: the formula leray_project
    used before it formed the divergence first.  Kept as a round-off
    reference for it; returns (v - grad q, q)."""
    sym = fd.spectral_symbols(v.grid)
    vh = np.fft.rfft2(v.data[:2])
    qh = -1j * (sym.sx * vh[0] + sym.sy * vh[1]) * sym.inv_s2
    q = ScalarField(v.grid, np.fft.irfft2(qh, s=v.grid.shape))
    return v - fd.grad_scalar(q), q


def signed_zero_vectors(grid, rng, lead=()):
    """(*lead, 3, nx, ny) velocities drawn from {+0, -0, 1.5, -2}, so that
    every component holds zeros of both signs, with one -inf and one NaN
    entry: inputs on which a composition of IEEE operations shows its order."""
    v = rng.choice(np.array([0.0, -0.0, 1.5, -2.0]), size=(*lead, 3, *grid.shape))
    v[..., 0, 1, 2] = -np.inf
    v[..., 2, 3, 1] = np.nan
    return v


def compressible_path(grid, eos, times, velocities, densities=None):
    """The path of these velocities (VectorFields) and densities (arrays),
    or with the densities slaved to the mass balance from rho0."""
    V = np.stack([v.data for v in velocities])
    if densities is None:
        densities = slave_density(ScalarField.full(grid, eos.rho0), V, times)
    return Path(grid, eos, times, V, np.stack(densities))


def interval_midpoint(s_prev, s_next, multiplier=None):
    """The Midpoint of the one interval of the path of two FluidStates, with
    an incompressible interval's multiplier; its residuals are stacks of one."""
    rho = (None if isinstance(s_prev.eos, IncompressibleEos)
           else np.stack([s_prev.rho.data, s_next.rho.data]))
    path = Path(s_prev.grid, s_prev.eos, [s_prev.t, s_next.t],
                np.stack([s_prev.v.data, s_next.v.data]), rho)
    return path.midpoint(slice(0, 1), multiplier)
