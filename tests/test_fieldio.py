"""The ``sbenflow-path/1`` field CSV: exact bytes written, bit-exact reads, and
the reader's rules (rows in any order, each cell exactly once)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sbenflow.fieldio import ArchiveError, load_scalar, load_vector, save_scalar, save_vector
from sbenflow.fields import Grid2P, ScalarField, VectorField

GOLDEN = """\
i,j,c0,c1,c2
0,0,0,0.33333333333333331,1
0,1,-0,-0.66666666666666663,1.125
0,2,4.9406564584124654e-324,1e-300,1.25
0,3,1.7976931348623157e+308,-6.0221407599999999e+23,1.375
1,0,-2.5,-0.5,1.5
1,1,-2.375,-0.375,1.625
1,2,-2.25,-0.25,1.75
1,3,-2.125,-0.125,1.875
2,0,-2,0,2
2,1,-1.875,0.125,2.125
2,2,-1.75,0.25,2.25
2,3,-1.625,0.375,2.375
3,0,-1.5,0.5,2.5
3,1,-1.375,0.625,2.625
3,2,-1.25,0.75,2.75
3,3,-1.125,0.875,2.875
"""


def _golden_field() -> VectorField:
    values = np.arange(48, dtype=float).reshape(3, 4, 4) / 8 - 3
    values[0, 0, :] = [0.0, -0.0, 5e-324, 1.7976931348623157e308]
    values[1, 0, :] = [1 / 3, -2 / 3, 1e-300, -6.02214076e23]
    return VectorField(Grid2P(4, 4, 1.0, 1.0), values)


def _reference_text(components: np.ndarray) -> str:
    """The format spelled out one cell at a time: the oracle for the writer."""
    n_comp, nx, ny = components.shape
    lines = ["i,j," + ",".join(f"c{c}" for c in range(n_comp))]
    for i in range(nx):
        for j in range(ny):
            vals = ",".join(f"{components[c, i, j]:.17g}" for c in range(n_comp))
            lines.append(f"{i},{j},{vals}")
    return "\n".join(lines) + "\n"


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def test_golden_bytes(tmp_path):
    f = tmp_path / "v.csv"
    save_vector(str(f), _golden_field())
    assert f.read_bytes() == GOLDEN.encode()


def test_golden_read_is_bit_exact(tmp_path):
    f = tmp_path / "v.csv"
    f.write_text(GOLDEN)
    field = _golden_field()
    assert np.array_equal(_bits(load_vector(str(f), field.grid).data), _bits(field.data))


finite_doubles = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def fields(draw):
    grid = Grid2P(draw(st.integers(4, 11)), draw(st.integers(4, 11)), 1.0, 1.0)
    n_comp = draw(st.sampled_from([1, 3]))
    return grid, draw(arrays(np.float64, (n_comp, grid.nx, grid.ny), elements=finite_doubles))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fields())
def test_round_trip_bit_exact_and_bytes_match_reference(tmp_path_factory, drawn):
    grid, data = drawn
    f = str(tmp_path_factory.mktemp("csv") / "field.csv")
    if data.shape[0] == 1:
        save_scalar(f, ScalarField(grid, data[0]))
        back = load_scalar(f, grid).data[None]
    else:
        save_vector(f, VectorField(grid, data))
        back = load_vector(f, grid).data
    with open(f) as fh:
        assert fh.read() == _reference_text(data)
    assert np.array_equal(_bits(back), _bits(data))


def test_permuted_rows_load_to_the_same_field(tmp_path):
    field = _golden_field()
    header, *rows = GOLDEN.splitlines(keepends=True)
    order = np.random.default_rng(7).permutation(len(rows))
    f = tmp_path / "v.csv"
    f.write_text(header + "".join(rows[k] for k in order))
    assert np.array_equal(_bits(load_vector(str(f), field.grid).data), _bits(field.data))


def _edit(text: str, row: int, new_row: str) -> str:
    lines = text.splitlines(keepends=True)
    lines[row + 1] = new_row + "\n"
    return "".join(lines)


MALFORMED = {
    "non-numeric cell": _edit(GOLDEN, 5, "1,1,-2.375,abc,1.625"),
    "missing column": _edit(GOLDEN, 5, "1,1,-2.375,-0.375"),
    "fractional index": _edit(GOLDEN, 5, "1.5,1,-2.375,-0.375,1.625"),
    "index too large": _edit(GOLDEN, 5, "99,1,-2.375,-0.375,1.625"),
    "negative index": _edit(GOLDEN, 5, "-1,1,-2.375,-0.375,1.625"),
    "repeated cell": _edit(GOLDEN, 5, "1,0,-2.375,-0.375,1.625"),
    "missing row": "".join(GOLDEN.splitlines(keepends=True)[:-1]),
    "extra row": GOLDEN + "3,3,0,0,0\n",
    "header only": GOLDEN.splitlines(keepends=True)[0],
    "non-finite value": _edit(GOLDEN, 5, "1,1,-2.375,nan,1.625"),
    "wrong header": "i,j,c0,c1\n" + "".join(GOLDEN.splitlines(keepends=True)[1:]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_csv_raises_archive_error_naming_the_file(tmp_path, case):
    f = tmp_path / "v.csv"
    f.write_text(MALFORMED[case])
    with pytest.raises(ArchiveError, match="v.csv"):
        load_vector(str(f), Grid2P(4, 4, 1.0, 1.0))
