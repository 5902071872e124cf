"""Properties of the exact per-wavenumber K^(-1) and Leray solves on random
grids (odd and even sizes, unequal spacing), and their agreement with the
iterative conjugate-gradient solve they replace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbenflow import fields as fd
from sbenflow.dissipation import apply_k, solve_k
from sbenflow.fields import Grid2P, ScalarField, VectorField
from sbenflow.sben import leray_project
from sbenflow.solvers import conjugate_gradient

from conftest import leray_two_component



@st.composite
def grids(draw):
    return Grid2P(draw(st.integers(4, 40)), draw(st.integers(4, 40)),
                  draw(st.floats(0.5, 8.0)), draw(st.floats(0.5, 8.0)))


def _noise(grid, seed):
    """White noise: every mode populated, the stencil null modes included."""
    return VectorField(grid, np.random.default_rng(seed).normal(size=(3, *grid.shape)))


def _null_coefficients(data, grid):
    """Projections of each component onto the stencil null patterns."""
    return np.array([(data * pat).sum(axis=(-2, -1)) / pat.size
                     for pat in fd._null_patterns(grid)])


PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)


@PROPERTIES
@given(grid=grids(), seed=seeds, mu=st.floats(0.01, 10.0))
def test_solve_k_inverts_k_on_its_range(grid, seed, mu):
    f = apply_k(_noise(grid, seed), mu)
    u = solve_k(f, mu)
    assert fd.l2_norm(apply_k(u, mu) - f) <= 1e-12 * fd.l2_norm(f)
    # the representative is mean-free and free of the checkerboards
    assert np.abs(_null_coefficients(u.data, grid)).max() <= 1e-14 * fd.linf_norm(u)


@PROPERTIES
@given(grid=grids(), seed=seeds)
def test_leray_projection(grid, seed):
    v = _noise(grid, seed)
    v_df, q = leray_project(v)
    h = min(grid.dx, grid.dy)
    assert fd.linf_norm(fd.div_vector(v_df)) <= 1e-12 * fd.linf_norm(v) / h
    v_df2, q2 = leray_project(v_df)
    assert fd.linf_norm(v_df2 - v_df) <= 1e-12 * fd.linf_norm(v)
    assert fd.linf_norm(q2) <= 1e-12 * (fd.linf_norm(q) + fd.linf_norm(v) * h)
    # means (and the other null modes) pass through; q carries none of them
    assert np.abs(_null_coefficients(v_df.data - v.data, grid)).max() <= 1e-14 * fd.linf_norm(v)
    assert np.abs(_null_coefficients(q.data, grid)).max() <= 1e-14 * fd.linf_norm(q)
    # the out-of-plane component is untouched
    assert np.array_equal(v_df.data[2], v.data[2])
    # the in-place solve gives the bits of the divergence-first formula
    # written out, also when it writes into a given array
    inv_s2 = fd.spectral_symbols(grid).inv_s2
    q_ref = np.fft.irfft2(-np.fft.rfft2(fd.div_vector(v).data) * inv_s2, s=grid.shape)
    v_ref = (v - fd.grad_scalar(ScalarField(grid, q_ref))).data
    out = np.full((3, *grid.shape), np.nan)
    v_out, q_out = leray_project(v, out=out)
    assert v_out.data is out
    for got, want in ((v_df.data, v_ref), (out, v_ref), (q.data, q_ref), (q_out.data, q_ref)):
        assert got.tobytes() == want.tobytes()


@PROPERTIES
@given(grid=grids(), seed=seeds)
def test_leray_projection_matches_two_component_formula(grid, seed):
    # the divergence-first solve against the two-component spectral formula
    # it replaced: equal in exact arithmetic.  Measured over 2000 random
    # grids of this strategy: |dv| <= 3.5e-15 |v|, |dq| <= 1.2e-14 |q|.
    v = _noise(grid, seed)
    v_df, q = leray_project(v)
    v_old, q_old = leray_two_component(v)
    assert fd.linf_norm(v_df - v_old) <= 5e-14 * fd.linf_norm(v)
    assert fd.linf_norm(q - q_old) <= 1e-13 * fd.linf_norm(q_old)


def test_projection_out_must_be_apart_from_input(grid16):
    v = _noise(grid16, 4)
    with pytest.raises(ValueError):
        leray_project(v, out=v.data)


def test_non_finite_projection_input_rejected(grid16):
    v = _noise(grid16, 3)
    v.data[0, 1, 2] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite"):
        leray_project(v)


CG_GRIDS = [Grid2P(16, 16, 2 * np.pi, 2 * np.pi), Grid2P(15, 10, 1.0, 2.5)]


@pytest.mark.parametrize("grid", CG_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_spectral_solves_match_conjugate_gradient(grid):
    mu = 0.3
    n = grid.nx * grid.ny

    f = fd.remove_stencil_null(_noise(grid, 5))
    u = solve_k(f, mu)

    def k_matvec(flat):
        return apply_k(VectorField(grid, flat.reshape(3, *grid.shape)), mu).data.ravel()

    u_cg = conjugate_gradient(k_matvec, f.data.ravel(), tol=1e-13, max_iter=10 * n)
    u_cg = fd.remove_mean(VectorField(grid, u_cg.reshape(3, *grid.shape)))
    assert fd.l2_norm(u - u_cg) <= 1e-9 * fd.l2_norm(u)

    v = _noise(grid, 6)
    v_df, q = leray_project(v)

    def neg_laplace(flat):
        return -fd.laplacian_scalar(ScalarField(grid, flat.reshape(grid.shape))).data.ravel()

    # -laplacian(q) = -div(v), with the round-off of div(v) in the null modes stripped
    rhs = -fd.div_vector(v).data
    for pat in fd._null_patterns(grid):
        rhs -= (rhs * pat).sum() / n * pat
    q_cg = conjugate_gradient(neg_laplace, rhs.ravel(), tol=1e-13, max_iter=10 * n)
    assert np.abs(q.data.ravel() - q_cg).max() <= 1e-9 * fd.linf_norm(q)
    v_df_cg = v - fd.grad_scalar(ScalarField(grid, q_cg.reshape(grid.shape)))
    assert fd.linf_norm(v_df - v_df_cg) <= 1e-9 * fd.linf_norm(v)
