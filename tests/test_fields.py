import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbenflow import fields as fd
from sbenflow.fields import (Grid2P, GridMismatchError, ScalarField, SymTensorField,
                             Tensor33Field, VectorField, XX, YY, ZZ, XY, XZ, YZ)
from sbenflow.sampling import random_scalar, random_solenoidal, random_vector

from conftest import TWO_PI, observed_order


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2P(3, 8, 1.0, 1.0)
    with pytest.raises(ValueError):
        Grid2P(8, 8, -1.0, 1.0)
    g = Grid2P(8, 16, 2.0, 4.0)
    assert g.dx == pytest.approx(0.25)
    assert g.dy == pytest.approx(0.25)


def test_grad_of_constant_is_zero(grid32):
    s = ScalarField.full(grid32, 3.7)
    assert fd.linf_norm(fd.grad_scalar(s)) == 0.0


def test_grad_sine_converges_at_order_two():
    errs = []
    for nx in (16, 32, 64):
        g = Grid2P(nx, nx, TWO_PI, TWO_PI)
        s = ScalarField(g, np.sin(2 * np.pi * g.x() / g.lx))
        exact = (2 * np.pi / g.lx) * np.cos(2 * np.pi * g.x() / g.lx)
        errs.append(np.abs(fd.grad_scalar(s).data[0] - exact).max())
    order = observed_order(errs)
    print("grad orders from errors", errs, "->", order)
    assert 1.8 <= order <= 2.2
    # out-of-plane derivative is structurally zero
    g = Grid2P(16, 16, TWO_PI, TWO_PI)
    s = random_scalar(g, np.random.default_rng(0))
    assert np.all(fd.grad_scalar(s).data[2] == 0.0)


def test_grad_vector_single_mode(grid32):
    y = grid32.y()
    v = VectorField.from_components(grid32, np.sin(y), 0 * y)
    jac = fd.grad_vector(v)
    # only d v_x / d y is nonzero, equal to cos y at second order
    assert np.abs(jac.data[0, 1] - np.cos(y)).max() < 0.5 * grid32.dy**2
    mask = np.ones((3, 3), dtype=bool)
    mask[0, 1] = False
    for i in range(3):
        for j in range(3):
            if mask[i, j]:
                assert np.abs(jac.data[i, j]).max() == 0.0


def test_divergence_matches_jacobian_trace(grid32, rng):
    v = random_vector(grid32, rng)
    jac = fd.grad_vector(v)
    from_jac = jac.data[0, 0] + jac.data[1, 1] + jac.data[2, 2]
    assert np.array_equal(fd.div_vector(v).data, from_jac)


def test_sym_grad_cases(grid32):
    # constants have no strain
    c = VectorField.from_components(grid32, np.full(grid32.shape, 1.0),
                                    np.full(grid32.shape, -2.0), np.full(grid32.shape, 0.5))
    assert fd.linf_norm(fd.sym_grad(c)) == 0.0

    # shear mode: only the xy entry, at cos(y)/2
    y = grid32.y()
    v = VectorField.from_components(grid32, np.sin(y), 0 * y)
    d = fd.sym_grad(v)
    assert np.abs(d.data[XY] - 0.5 * np.cos(y)).max() < 0.3 * grid32.dy**2
    for c_idx in (XX, YY, ZZ, 4, 5):
        assert np.abs(d.data[c_idx]).max() == 0.0


def test_out_of_plane_component_strains(grid32):
    x = grid32.x()
    v = VectorField.from_components(grid32, 0 * x, 0 * x, np.sin(x))
    d = fd.sym_grad(v)
    assert np.abs(d.data[4] - 0.5 * np.cos(x)).max() < 0.3 * grid32.dx**2  # xz
    assert np.abs(d.data[5]).max() == 0.0  # yz


def test_curl_of_gradient_vanishes(grid32, rng):
    # commuting central differences make this exact, well below the O(h^2) bound
    s = random_scalar(grid32, rng)
    cg = fd.curl(fd.grad_scalar(s))
    assert fd.linf_norm(cg) <= 1e-13 * (fd.linf_norm(fd.grad_scalar(s)) + 1)


def test_integrate_area(grid32):
    assert fd.integrate(ScalarField.full(grid32, 1.0)) == pytest.approx(TWO_PI**2)


def test_inner_taylor_green_energy(grid32):
    x, y = grid32.x(), grid32.y()
    v = VectorField.from_components(grid32, np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y))
    # integral of sin^2 x cos^2 y + cos^2 x sin^2 y over the box is 2 pi^2,
    # exact for the periodic midpoint sum on this trigonometric polynomial
    assert fd.inner(v, v) == pytest.approx(2 * np.pi**2, rel=1e-13)


def test_inner_symmetry_and_mismatch(grid32, grid16, rng):
    u, w = random_vector(grid32, rng), random_vector(grid32, rng)
    assert fd.inner(u, w) == pytest.approx(fd.inner(w, u), rel=1e-14)
    with pytest.raises(GridMismatchError):
        fd.inner(u, random_vector(grid16, rng))
    with pytest.raises(GridMismatchError):
        fd.integrate(ScalarField.full(grid32, 1.0) + ScalarField.full(grid16, 1.0))


def test_integration_by_parts_exact(rng):
    for nx in (16, 32, 48):
        g = Grid2P(nx, nx, TWO_PI, TWO_PI)
        s = random_scalar(g, rng)
        v = random_vector(g, rng)
        lhs = fd.inner(fd.grad_scalar(s), v)
        rhs = fd.integrate(ScalarField(g, s.data * fd.div_vector(v).data))
        assert abs(lhs + rhs) <= 1e-12 * (abs(lhs) + 1.0)


def test_tensor_divergence_adjoint_to_sym_grad(grid32, rng):
    # <div T, u> = -<T, sym_grad u> exactly, for symmetric T
    t = SymTensorField(grid32, np.stack([random_scalar(grid32, rng).data for _ in range(6)]))
    u = random_vector(grid32, rng)
    lhs = fd.inner(fd.div_tensor(t), u)
    # the full contraction sum_ij T_ij D_ij over the box, off-diagonals twice
    d = fd.sym_grad(u).data
    rhs = -(t.data * d * fd._SYM_WEIGHTS[:, None, None]).sum() * grid32.cell_area
    assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1.0)


def test_operator_convergence_orders():
    cases = {"div": [], "curl": [], "laplacian": []}
    for nx in (16, 32, 64):
        g = Grid2P(nx, nx, TWO_PI, TWO_PI)
        x, y = g.x(), g.y()
        v = VectorField.from_components(g, np.sin(x) * np.cos(2 * y),
                                        np.cos(2 * x) * np.sin(y), np.sin(x + y))
        div_exact = np.cos(x) * np.cos(2 * y) + np.cos(2 * x) * np.cos(y)
        cases["div"].append(np.abs(fd.div_vector(v).data - div_exact).max())
        curl_z = -2 * np.sin(2 * x) * np.sin(y) + 2 * np.sin(x) * np.sin(2 * y)
        cases["curl"].append(np.abs(fd.curl(v).data[2] - curl_z).max())
        lap_x = -5 * np.sin(x) * np.cos(2 * y)
        cases["laplacian"].append(np.abs(fd.laplacian(v).data[0] - lap_x).max())
    for name, errs in cases.items():
        order = observed_order(errs)
        print(name, errs, "order", order)
        assert 1.8 <= order <= 2.2


def test_advect_and_div_outer_are_adjoint(grid32, rng):
    a = random_vector(grid32, rng)
    b = random_vector(grid32, rng)
    w = random_vector(grid32, rng)
    lhs = fd.inner(w, fd.advect(a, b))
    rhs = -fd.inner(fd.div_outer(a, w), b)
    assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1.0)


def test_cross_product_orthogonality(grid32, rng):
    a, b = random_vector(grid32, rng), random_vector(grid32, rng)
    c = fd.cross(a, b)
    assert fd.linf_norm(fd.dot_vectors(c, a)) <= 1e-12 * fd.linf_norm(a)**2 * 3
    assert fd.linf_norm(fd.dot_vectors(c, b)) <= 1e-12 * fd.linf_norm(b)**2 * 3


def test_random_solenoidal_is_discretely_divergence_free(grid32, rng):
    v = random_solenoidal(grid32, rng)
    assert fd.linf_norm(fd.div_vector(v)) <= 1e-13 * fd.linf_norm(v) / grid32.dx


def test_stencil_null_removal(grid32, rng):
    v = random_vector(grid32, rng)
    sx = np.where(np.arange(grid32.nx) % 2 == 0, 1.0, -1.0)[:, None]
    v = VectorField(grid32, v.data + 0.5 * sx + 0.25)
    cleaned = fd.remove_stencil_null(v)
    assert np.abs(fd.component_means(cleaned)).max() < 1e-14
    # removing twice changes nothing
    again = fd.remove_stencil_null(cleaned)
    assert fd.linf_norm(again - cleaned) < 1e-14


# --- flat-buffer stencils against the np.roll formula they replace -----------

# the difference times the reciprocal 1/(2h), as the stencils scale it
def _roll_ddx(grid, a):
    return (np.roll(a, -1, axis=-2) - np.roll(a, 1, axis=-2)) * (1.0 / (2.0 * grid.dx))


def _roll_ddy(grid, a):
    return (np.roll(a, -1, axis=-1) - np.roll(a, 1, axis=-1)) * (1.0 / (2.0 * grid.dy))


def _same_bits(a, b):
    """Equal values, and equal bytes too (signed zeros, NaN payloads)."""
    return np.array_equal(a, b) and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(nx=st.integers(4, 40), ny=st.integers(4, 40),
       lx=st.floats(0.5, 8.0), ly=st.floats(0.5, 8.0),
       lead=st.sampled_from([(), (3,), (3, 3)]),
       coarse=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stencils_match_roll_formula(nx, ny, lx, ly, lead, coarse, seed):
    grid = Grid2P(nx, ny, lx, ly)
    rng = np.random.default_rng(seed)
    shape = (*lead, nx, ny)
    # coarse values repeat, so many differences are exact zeros
    a = rng.integers(-2, 3, size=shape).astype(float) if coarse else rng.normal(size=shape)
    before = a.copy()
    dx, dy = fd.central_differences(grid, a)
    assert _same_bits(dx, _roll_ddx(grid, a)) and _same_bits(dy, _roll_ddy(grid, a))
    assert _same_bits(a, before)
    # a non-contiguous input: one derivative column of a full tensor
    t = Tensor33Field(grid, rng.normal(size=(3, 3, nx, ny)))
    column = t.data[:, 0]
    assert not column.flags.c_contiguous
    dx, dy = fd.central_differences(grid, column)
    assert _same_bits(dx, _roll_ddx(grid, column)) and _same_bits(dy, _roll_ddy(grid, column))
    # two arrays, such as the two columns of a Jacobian
    dx, dy = fd.central_differences(grid, a, column[0])
    assert _same_bits(dx, _roll_ddx(grid, a)) and _same_bits(dy, _roll_ddy(grid, column[0]))
    # written into given arrays, which come back, over whatever they held
    out = (np.full(shape, np.nan), np.full(shape, np.nan))
    dx, dy = fd.central_differences(grid, a, out=out)
    assert dx is out[0] and dy is out[1]
    assert _same_bits(dx, _roll_ddx(grid, a)) and _same_bits(dy, _roll_ddy(grid, a))
    assert _same_bits(a, before)


@pytest.mark.parametrize("grid", [Grid2P(16, 16, TWO_PI, TWO_PI), Grid2P(15, 12, 2.0, 3.5),
                                  Grid2P(64, 64, TWO_PI, TWO_PI)],
                         ids=lambda g: f"{g.nx}x{g.ny}")
def test_stencils_on_fourier_modes(grid):
    # every mode cos(m x + n y) of the grid, one stack: the differences are
    # -(sin(m dx)/dx, sin(n dy)/dy) sin(m x + n y) up to round-off, whatever
    # the kernel's rounding.  The phase is reduced in integers, so each cosine
    # is within an ulp; a difference of two over 2h is then off by a few ulps
    # of 1/h, the largest derivative a unit mode has.  Measured at most 3.14
    # ulps of 1/h (64^2), 2.87 (15x12) and 2.55 (16^2); bound 4.
    nx, ny = grid.shape
    i, j = np.arange(nx)[:, None], np.arange(ny)[None, :]
    q = np.arange(-(ny // 2), ny // 2 + 1)[:, None, None]
    eps = np.finfo(float).eps
    for p in range(-(nx // 2), nx // 2 + 1):     # the modes of one m as one stack
        turns = (p * (2 * i + 1) * ny + q * (2 * j + 1) * nx) % (2 * nx * ny)
        phase = TWO_PI * turns / (2 * nx * ny)
        dx, dy = fd.central_differences(grid, np.cos(phase))
        want_x = -np.sin(TWO_PI * p / nx) / grid.dx * np.sin(phase)
        want_y = -np.sin(TWO_PI * q / ny) / grid.dy * np.sin(phase)
        assert np.abs(dx - want_x).max() <= 4 * eps / grid.dx, p
        assert np.abs(dy - want_y).max() <= 4 * eps / grid.dy, p


def test_stencil_out_must_be_contiguous_and_apart(grid16):
    a = np.ones((3, *grid16.shape))
    other = np.empty_like(a)
    for bad in (a, a[0:1], np.ones((3, 16, 32))[:, :, ::2]):
        with pytest.raises(ValueError):
            fd.central_differences(grid16, a, out=(bad, other))
        with pytest.raises(ValueError):
            fd.central_differences(grid16, a, out=(other, bad))


@pytest.mark.parametrize("grid", [Grid2P(15, 12, 2.0, 3.5), Grid2P(16, 16, 6.0, 6.0)],
                         ids=lambda g: f"{g.nx}x{g.ny}")
@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
def test_bound_differences_match_central_differences(grid, lead):
    # bound once, applied to whatever the inputs hold at each call: the bits
    # of central_differences (and of the np.roll formula) every time
    rng = np.random.default_rng(11)
    shape = (*lead, *grid.shape)
    ax, ay = np.empty(shape), np.empty(shape)
    out = (np.empty(shape), np.empty(shape))
    bound = fd.Differences(grid, ax, ay, out=out)
    one = fd.Differences(grid, ax)
    for coarse in (False, True, False):
        for a in (ax, ay):
            a[...] = rng.integers(-2, 3, size=shape) if coarse else rng.normal(size=shape)
        dx, dy = bound()
        assert dx is out[0] and dy is out[1]
        want_x, want_y = fd.central_differences(grid, ax, ay)
        assert _same_bits(dx, want_x) and _same_bits(dy, want_y)
        assert _same_bits(dx, _roll_ddx(grid, ax)) and _same_bits(dy, _roll_ddy(grid, ay))
        dx, dy = one()
        assert _same_bits(dx, _roll_ddx(grid, ax)) and _same_bits(dy, _roll_ddy(grid, ax))


def test_binding_checks_its_arrays(grid16):
    a, b = np.ones((3, *grid16.shape)), np.ones((3, *grid16.shape))
    other = np.empty_like(a)
    bad_outs = [
        (a, other), (other, a),                        # overlaps its own input
        (b, other), (other, b),                        # overlaps the other input
        (a[0:1].copy(), other),                        # wrong shape
        (np.ones((3, 16, 32))[:, :, ::2], other),      # not C-contiguous
        (other, other)]                                # the two outs overlap
    for out in bad_outs:
        with pytest.raises(ValueError, match="out must be"):
            fd.Differences(grid16, a, b, out=out)
    # an input must be C-contiguous, since the views bound to it are read
    # at every call
    with pytest.raises(ValueError, match="C-contiguous inputs"):
        fd.Differences(grid16, np.ones((3, 16, 32))[:, :, ::2])


# --- every operator on a stack: the bits of each field alone -------------------

# name -> (operator, the kinds of its arguments: s scalar, v vector, t tensor)
STACK_OPERATORS = {
    "div_vector": (fd.div_vector, "v"),
    "curl": (fd.curl, "v"),
    "laplacian": (fd.laplacian, "v"),
    "laplacian_scalar": (fd.laplacian_scalar, "s"),
    "advect": (fd.advect, "vv"),
    "div_outer": (fd.div_outer, "vv"),
    "grad_scalar": (fd.grad_scalar, "s"),
    "sym_grad": (fd.sym_grad, "v"),
    "div_tensor": (fd.div_tensor, "t"),
    "trace": (SymTensorField.trace, "t"),
    "remove_mean": (fd.remove_mean, "v"),
    "dot_vectors": (fd.dot_vectors, "vv"),
}
_KINDS = {"s": (ScalarField, ()), "v": (VectorField, (3,)), "t": (SymTensorField, (6,))}


@pytest.mark.parametrize("grid", [Grid2P(16, 16, TWO_PI, TWO_PI), Grid2P(15, 12, 2.0, 3.5)],
                         ids=lambda g: f"{g.nx}x{g.ny}")
@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
@pytest.mark.parametrize("name", sorted(STACK_OPERATORS))
def test_operators_act_on_each_field_of_a_stack(grid, lead, name):
    op, kinds = STACK_OPERATORS[name]
    rng = np.random.default_rng(len(name) * grid.nx + len(lead))
    stacks = [rng.normal(size=(*lead, *_KINDS[k][1], *grid.shape)) for k in kinds]
    got = op(*(_KINDS[k][0](grid, a) for k, a in zip(kinds, stacks))).data
    assert got.shape[:len(lead)] == lead
    for index in np.ndindex(lead):
        alone = op(*(_KINDS[k][0](grid, a[index]) for k, a in zip(kinds, stacks))).data
        assert _same_bits(got[index], alone), index


@pytest.mark.parametrize("grid", [Grid2P(16, 16, TWO_PI, TWO_PI), Grid2P(15, 12, 2.0, 3.5)],
                         ids=lambda g: f"{g.nx}x{g.ny}")
def test_operators_are_the_roll_compositions_they_replaced(grid):
    # one field: the bits of the same formulas over np.roll differences
    rng = np.random.default_rng(grid.nx)
    a, b = (VectorField(grid, rng.normal(size=(3, *grid.shape))) for _ in range(2))
    s = ScalarField(grid, rng.normal(size=grid.shape))
    ddx, ddy = (lambda f: _roll_ddx(grid, f)), (lambda f: _roll_ddy(grid, f))
    (ax, ay, az), (bx, by, bz) = a.data, b.data
    assert _same_bits(fd.div_vector(a).data, ddx(ax) + ddy(ay))
    assert _same_bits(fd.curl(a).data, np.stack([ddy(az), -ddx(az), ddx(ay) - ddy(ax)]))
    assert _same_bits(fd.laplacian(a).data, ddx(ddx(a.data)) + ddy(ddy(a.data)))
    assert _same_bits(fd.laplacian_scalar(s).data, ddx(ddx(s.data)) + ddy(ddy(s.data)))
    assert _same_bits(fd.advect(a, b).data, ax * ddx(b.data) + ay * ddy(b.data))
    assert _same_bits(fd.div_outer(a, b).data, ddx(ax * b.data) + ddy(ay * b.data))


# --- one-call sym_grad and div_tensor against the six-call formulas ---------

def _six_call_sym_grad(v):
    """sym_grad as six single-component differences, the form it replaced."""
    g = v.grid
    out = np.zeros((6, *g.shape))
    out[XX] = _roll_ddx(g, v.data[0])
    out[YY] = _roll_ddy(g, v.data[1])
    out[XY] = 0.5 * (_roll_ddy(g, v.data[0]) + _roll_ddx(g, v.data[1]))
    out[XZ] = 0.5 * _roll_ddx(g, v.data[2])
    out[YZ] = 0.5 * _roll_ddy(g, v.data[2])
    return out


def _six_call_div_tensor(t):
    """div_tensor as six single-component differences, the form it replaced."""
    g = t.grid
    out = np.zeros((3, *g.shape))
    out[0] = _roll_ddx(g, t.data[XX]) + _roll_ddy(g, t.data[XY])
    out[1] = _roll_ddx(g, t.data[XY]) + _roll_ddy(g, t.data[YY])
    out[2] = _roll_ddx(g, t.data[XZ]) + _roll_ddy(g, t.data[YZ])
    return out


@pytest.mark.parametrize("nx, ny", [(16, 16), (12, 10), (70, 33)])
@pytest.mark.parametrize("coarse", [False, True])
def test_one_call_sym_grad_and_div_tensor_match_six_calls(nx, ny, coarse):
    grid = Grid2P(nx, ny, TWO_PI, 3.0)
    rng = np.random.default_rng(nx * ny)

    def sample(n):
        # coarse values repeat, so many differences are exact zeros
        shape = (n, nx, ny)
        return rng.integers(-2, 3, size=shape).astype(float) if coarse else rng.normal(size=shape)

    v = VectorField(grid, sample(3))
    d = fd.sym_grad(v)
    assert _same_bits(d.data, _six_call_sym_grad(v))
    assert _same_bits(fd.strain_from_columns(grid, *fd.central_differences(grid, v.data)).data,
                      d.data)
    t = SymTensorField(grid, sample(6))
    assert _same_bits(fd.div_tensor(t).data, _six_call_div_tensor(t))


# --- cached null patterns against the builder they replaced -------------------

def _built_null_patterns(grid):
    """The null-pattern builder as it was before caching, run afresh."""
    ones = np.ones(grid.shape)
    pats = [ones]
    sx = np.where(np.arange(grid.nx) % 2 == 0, 1.0, -1.0)[:, None]
    sy = np.where(np.arange(grid.ny) % 2 == 0, 1.0, -1.0)[None, :]
    if grid.nx % 2 == 0:
        pats.append(ones * sx)
    if grid.ny % 2 == 0:
        pats.append(ones * sy)
    if grid.nx % 2 == 0 and grid.ny % 2 == 0:
        pats.append(sx * sy)
    return pats


@pytest.mark.parametrize("nx, ny", [(16, 16), (12, 9), (9, 12), (7, 11)])
def test_null_patterns_cached_read_only_and_unchanged(nx, ny):
    grid = Grid2P(nx, ny, TWO_PI, 3.0)
    pats = fd._null_patterns(grid)
    assert isinstance(pats, tuple)
    assert fd._null_patterns(Grid2P(nx, ny, TWO_PI, 3.0)) is pats
    built = _built_null_patterns(grid)
    assert len(pats) == len(built)
    for pat, ref in zip(pats, built):
        assert _same_bits(pat, ref)
        with pytest.raises(ValueError):
            pat[0, 0] = 2.0
    # remove_stencil_null gives the bits of the old builder's patterns: v less
    # the sum of each pattern times <v, pattern> / (nx ny)
    v = random_vector(grid, np.random.default_rng(nx + ny))
    coeffs = [(v.data * pat).sum(axis=(-2, -1)) / (nx * ny) for pat in built]
    data = v.data - sum(c[:, None, None] * pat for c, pat in zip(coeffs, built))
    assert _same_bits(fd.remove_stencil_null(v).data, data)
