"""The calculus and solves must not assume square boxes, equal spacing or
even cell counts; these cases exercise the anisotropic and odd-parity paths."""

import numpy as np
import pytest

from sbenflow import fields as fd
from sbenflow.dissipation import apply_k, fenchel_gap, phi, solve_k
from sbenflow.fields import Grid2P, ScalarField
from sbenflow.sampling import random_scalar, random_solenoidal, random_vector
from sbenflow.sben import leray_project

GRIDS = [
    Grid2P(24, 16, 2 * np.pi, 4 * np.pi),   # non-square box, anisotropic spacing
    Grid2P(15, 11, 1.0, 2.0),               # odd sizes: no checkerboard null modes
    Grid2P(16, 9, 3.0, 1.5),                # mixed parity
]


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_integration_by_parts_stays_exact(grid):
    rng = np.random.default_rng(11)
    s = random_scalar(grid, rng)
    v = random_vector(grid, rng)
    lhs = fd.inner(fd.grad_scalar(s), v)
    rhs = fd.integrate(ScalarField(grid, s.data * fd.div_vector(v).data))
    assert abs(lhs + rhs) <= 1e-12 * (abs(lhs) + 1.0)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_conjugate_solve_round_trip(grid):
    rng = np.random.default_rng(12)
    mu = 0.3
    v0 = random_vector(grid, rng)
    v = solve_k(apply_k(v0, mu), mu)
    ref = fd.remove_mean(v0)
    assert fd.l2_norm(v - ref) <= 1e-8 * fd.l2_norm(ref)
    assert abs(fenchel_gap(v0, apply_k(v0, mu), mu)) <= 1e-8 * (phi(v0, mu) + 1)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_projection_properties(grid):
    rng = np.random.default_rng(13)
    w = random_vector(grid, rng)
    w_df, _ = leray_project(w)
    assert fd.linf_norm(fd.div_vector(w_df)) <= 1e-10 * fd.l2_norm(w) / min(grid.dx, grid.dy)
    w_df2, _ = leray_project(w_df)
    assert fd.linf_norm(w_df2 - w_df) <= 1e-10 * (fd.linf_norm(w_df) + 1.0)
    sol = random_solenoidal(grid, rng)
    kept, _ = leray_project(sol)
    assert fd.linf_norm(kept - sol) <= 1e-10 * (fd.linf_norm(sol) + 1.0)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_anisotropic_gradient_is_consistent(grid):
    x, y = grid.x(), grid.y()
    s = ScalarField(grid, np.sin(2 * np.pi * x / grid.lx) * np.cos(2 * np.pi * y / grid.ly))
    gs = fd.grad_scalar(s)
    gx_exact = (2 * np.pi / grid.lx) * np.cos(2 * np.pi * x / grid.lx) \
        * np.cos(2 * np.pi * y / grid.ly)
    gy_exact = -(2 * np.pi / grid.ly) * np.sin(2 * np.pi * x / grid.lx) \
        * np.sin(2 * np.pi * y / grid.ly)
    assert np.abs(gs.data[0] - gx_exact).max() <= 0.7 * (2 * np.pi / grid.lx) ** 3 * grid.dx**2
    assert np.abs(gs.data[1] - gy_exact).max() <= 0.7 * (2 * np.pi / grid.ly) ** 3 * grid.dy**2
