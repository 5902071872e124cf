import math

import numpy as np
import pytest

from sbenflow import fields as fd
from sbenflow.fields import Grid2P, ScalarField

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
