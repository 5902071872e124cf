"""Sampled fields come from one spectral synthesis per stack; they are the
fields of the direct sum of their modes' cosines, drawn the same way."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbenflow import fields as fd
from sbenflow.fields import Grid2P
from sbenflow.sampling import random_scalar, random_solenoidal, random_vector

TOL = 1e-13


def _direct_sum(grid, rng, kmax, amplitude):
    """The former random_scalar: one representative per +-k pair, kx outer,
    drawn as N(0, 1) coefficients then U(0, 2 pi) phases, each mode's cosine
    summed at the cell centres.  Kept as the reference of the synthesis."""
    if 2 * kmax >= min(grid.nx, grid.ny):
        raise ValueError(f"kmax={kmax} too large for {grid.nx}x{grid.ny} grid")
    x, y = grid.x(), grid.y()
    modes = [(kx, ky) for kx in range(-kmax, kmax + 1) for ky in range(-kmax, kmax + 1)
             if kx > 0 or (kx == 0 and ky > 0)]
    coeffs = rng.normal(size=len(modes))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(modes))
    data = np.zeros(grid.shape)
    for (kx, ky), c, p in zip(modes, coeffs, phases):
        data += c * np.cos(2.0 * np.pi * (kx * x / grid.lx + ky * y / grid.ly) + p)
    data *= amplitude / max(1, np.sqrt(len(modes)))
    return data


def _reference(kind, grid, rng, kmax, amplitude):
    if kind == "scalar":
        return _direct_sum(grid, rng, kmax, amplitude)[None]
    if kind == "vector":
        return np.stack([_direct_sum(grid, rng, kmax, amplitude) for _ in range(3)])
    psi = _direct_sum(grid, rng, kmax, amplitude)
    vz = _direct_sum(grid, rng, kmax, amplitude)
    dx, dy = fd.central_differences(grid, psi)
    return np.stack([dy, -dx, vz])


SAMPLERS = {"scalar": lambda *a: random_scalar(*a).data[None],
            "vector": lambda *a: random_vector(*a).data,
            "solenoidal": lambda *a: random_solenoidal(*a).data}

# any amplitude whose fields stay normal floats, of either sign
amplitudes = st.one_of(st.just(0.0), st.floats(1e-280, 1e280), st.floats(-1e280, -1e-280))


@st.composite
def cases(draw):
    nx, ny = draw(st.integers(4, 40)), draw(st.integers(4, 40))
    grid = Grid2P(nx, ny, draw(st.floats(0.5, 8.0)), draw(st.floats(0.5, 8.0)))
    return grid, draw(st.integers(0, (min(nx, ny) - 1) // 2)), draw(amplitudes)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=cases(), kind=st.sampled_from(sorted(SAMPLERS)), seed=st.integers(0, 2**32 - 1))
def test_synthesis_is_the_direct_sum(case, kind, seed):
    grid, kmax, amplitude = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fields = SAMPLERS[kind](grid, rng, kmax, amplitude)
    reference = _reference(kind, grid, ref_rng, kmax, amplitude)
    # the same draws: the generator ends where the direct sum leaves it
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    scale = np.abs(reference).max()
    assert np.abs(fields - reference).max() <= TOL * scale
    if kmax == 0:
        assert not fields.any()
    # the stencil null modes (mean, checkerboards) hold round-off only
    for pattern in fd._null_patterns(grid):
        assert np.abs((fields * pattern).mean(axis=(-2, -1))).max() <= TOL * scale
    if kind == "solenoidal":
        dx, dy = fd.central_differences(grid, fields[0], fields[1])
        div = dx + dy
        assert np.abs(div).max() <= TOL * np.abs(fields[:2]).max() / min(grid.dx, grid.dy)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(nx=st.integers(4, 40), ny=st.integers(4, 40), excess=st.integers(0, 20),
       kind=st.sampled_from(sorted(SAMPLERS)))
def test_kmax_at_or_above_half_the_grid_raises(nx, ny, excess, kind):
    grid = Grid2P(nx, ny, 1.0, 1.0)
    kmax = (min(nx, ny) + 1) // 2 + excess     # 2 kmax >= min(nx, ny)
    with pytest.raises(ValueError, match="too large"):
        SAMPLERS[kind](grid, np.random.default_rng(0), kmax, 1.0)
