"""The ``sbenflow-path/1`` field CSV: exact bytes written, bit-exact reads, and
the reader's rules (rows in any order, each cell exactly once).  The writer's
vectorized encoder is compared in bulk against Python's ``f"{x:.17g}"``.  The
binary copy an archive keeps beside each CSV gives the bits the CSV parse
gives, and any copy that is not the copy of those very CSV bytes is passed
over for the parse."""

import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sbenflow import fieldio
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


def _load(f: str, grid: Grid2P, n_comp: int) -> np.ndarray:
    return load_vector(f, grid).data if n_comp == 3 else load_scalar(f, grid).data[None]


def _read_both_ways(f: str, grid: Grid2P, n_comp: int):
    """The values read from the binary copy (a parse would fail the call),
    then, with the copy deleted, parsed from the CSV."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fieldio, "_parse_csv", _no_parse)
        from_copy = _load(f, grid, n_comp)
    os.remove(f + ".f8")
    return from_copy, _load(f, grid, n_comp)


def _no_parse(path, *args):
    raise AssertionError(f"{path} was parsed, not read from its binary copy")


def _save_with_copy(f: str, field):
    """Save field to f, then write its binary copy as an archive does."""
    (save_vector if isinstance(field, VectorField) else save_scalar)(f, field)
    fieldio._write_copy(f, field.data.reshape(-1, *field.grid.shape))


def test_golden_read_from_the_binary_copy_is_bit_exact(tmp_path):
    f = str(tmp_path / "v.csv")
    field = _golden_field()
    _save_with_copy(f, field)
    for back in _read_both_ways(f, field.grid, 3):
        assert np.array_equal(_bits(back), _bits(field.data))


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
    _save_with_copy(f, ScalarField(grid, data[0]) if data.shape[0] == 1
                    else VectorField(grid, data))
    with open(f) as fh:
        assert fh.read() == _reference_text(data)
    for back in _read_both_ways(f, grid, data.shape[0]):
        assert np.array_equal(_bits(back), _bits(data))


def _encoded(values) -> list[str]:
    """The writer's encoding of each value, in chunks of at most 2**16 values."""
    values = np.asarray(values, dtype=float).ravel()
    out = []
    for start in range(0, values.size, 2**16):
        words = fieldio._encode(values[start:start + 2**16])
        words[:, 3] |= np.uint64(ord("\n") << 56)
        out += words.tobytes().translate(None, b"\0").decode().splitlines()
    return out


def _assert_encodes_like_python(values):
    values = np.asarray(values, dtype=float).ravel().tolist()
    got, expected = _encoded(values), [f"{v:.17g}" for v in values]
    if got != expected:
        bad = [(repr(v), g) for v, g, e in zip(values, got, expected) if g != e]
        pytest.fail(f"{len(bad)} of {len(values)} differ, first {bad[:5]}")


def test_encoder_on_random_bit_patterns():
    bits = np.random.default_rng(20261018).integers(0, 2**64, 2**20, dtype=np.uint64)
    values = bits.view(np.float64)
    _assert_encodes_like_python(values[np.isfinite(values)])


def test_encoder_on_random_values_of_every_layout():
    # random mantissas at every decimal exponent from -8 to 19: fixed notation
    # with and without a leading "0.000", and the exponent form on both sides
    rng = np.random.default_rng(7)
    scale = 10.0 ** rng.integers(-8, 20, 2**17)
    _assert_encodes_like_python(rng.uniform(-10, 10, 2**17) * scale)


def test_encoder_next_to_every_power_of_ten():
    # 1e-300 ... 1e299 and their eight neighbours in ulps either side: where
    # log10 is one off, where the digits carry to the next power, 1e-06 as
    # "9.9999999999999995e-07"
    powers = np.array([float(f"1e{k}") for k in range(-300, 300)])
    steps = np.arange(-8, 9)
    near = (powers.view(np.int64)[:, None] + steps[None, :]).view(np.float64)
    _assert_encodes_like_python(np.concatenate([near.ravel(), -near.ravel()]))


def test_encoder_on_near_ties():
    # 18-digit decimals (10k + 5) * 10**m round to the double next to a tie
    # at the 17th digit; (2j + 1) / 2**17 in [1, 10) are exact ties
    rng = np.random.default_rng(11)
    ties = [float(f"{10 * int(k) + 5}e{m}")
            for m in range(-320, 292, 3) for k in rng.integers(10**15, 10**16, 8)]
    exact = (2 * rng.integers(2**16, 10 * 2**16, 4096) + 1) / 2**17
    _assert_encodes_like_python(np.concatenate([ties, exact, -exact, exact * 2**-40]))


def _near_ties(count: int) -> np.ndarray:
    """Doubles m * 2**-86 in [1e-10, 1e-9) whose digits scaled to 17 integer
    places, m * 5**26 / 2**60, lie within 1e-14 of a half but not on it."""
    inverse = pow(5**26, -1, 2**60)
    out, t = [], 1
    while len(out) < count:
        for s in (t, -t):
            m = (2**59 + s) * inverse % 2**60
            if 7.8e15 < m < 2**53:
                out.append(m * 2.0**-86)
        t += 1
    return np.array(out)


def test_python_rounds_values_next_to_a_half():
    # exact ties, a hair either side of one (the double-double error would
    # decide these), and plain values
    ties = np.array([1 + 2**-17, 7 + 3 * 2**-17])
    near = _near_ties(6)
    plain = np.array([1 + 2**-16, 1.25, 3.0])
    x = np.concatenate([ties, near, plain])
    e = np.floor(np.log10(x)).astype(np.intp)
    *_, near_tie = fieldio._round17(x, e)
    assert near_tie.tolist() == [True] * 8 + [False] * 3
    _assert_encodes_like_python(np.concatenate([x, -x]))


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-280,
           1.7976931348623157e308, -1.7976931348623157e308, 1e280, 0.1, 0.5, -1.5,
           0.30000000000000004, 1e-4, 1e-5, 2.5e-5, 0.001, 100.0, -1000.5, 10.25, 120.0,
           123456.0, 99999.0, 1e15, 1e16, 12345678901234567.0, 1e17, 1.5e17, 1e21, 1e22,
           1e23, 1e100, 1e-100, 6.02214076e23]


def test_encoder_on_short_decimals_zeros_and_extremes():
    _assert_encodes_like_python(SPECIAL)


def test_non_finite_values_keep_their_bytes():
    assert _encoded([np.nan, np.inf, -np.inf, -np.nan]) == ["nan", "inf", "-inf", "nan"]


@pytest.mark.parametrize("nx, ny", [(70, 33), (4, 1400)])
def test_round_trip_across_write_blocks(tmp_path, nx, ny):
    # more values than one write block: several grid rows per block, and
    # grid rows longer than a block
    grid = Grid2P(nx, ny, 1.0, 1.0)
    rng = np.random.default_rng(nx)
    data = rng.standard_normal((3, nx, ny)) * 10.0 ** rng.integers(-6, 18, (3, nx, ny))
    data[2, ::7] = 0.0
    data.flat[::97] = np.array(SPECIAL)[np.arange(data.size)[::97] % len(SPECIAL)]
    assert data.size > fieldio._BLOCK_VALUES
    f = tmp_path / "v.csv"
    _save_with_copy(str(f), VectorField(grid, data))
    assert f.read_text() == _reference_text(data)
    for back in _read_both_ways(str(f), grid, 3):
        assert np.array_equal(_bits(back), _bits(data))


def _outcome(f: str, grid: Grid2P):
    """The bits of the vector field read from f, or the ArchiveError's message."""
    try:
        return _bits(load_vector(f, grid).data).tolist()
    except ArchiveError as exc:
        return str(exc)


def _parsed_outcome(f: str, grid: Grid2P):
    """_outcome, where the copy must be passed over for the parse."""
    parses = []

    def parse(*args):
        parses.append(args[0])
        return parse_csv(*args)
    parse_csv = fieldio._parse_csv
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fieldio, "_parse_csv", parse)
        outcome = _outcome(f, grid)
    assert parses == [f]
    return outcome


def _flip_value_byte(csv, copy):
    raw = bytearray(copy.read_bytes())
    raw[32 + 24 + 8 * 5 + 3] ^= 0x10
    copy.write_bytes(bytes(raw))


# a 16^2 vector field whose first value is 0.1, written with its copy -> how
# the pair is changed afterwards
DAMAGED_COPY = {
    "CSV digit edited": lambda csv, copy: csv.write_bytes(csv.read_bytes().replace(
        b"0,0,0.10000000000000001,", b"0,0,0.10000000000000003,")),
    "value byte of the copy flipped": _flip_value_byte,
    "copy truncated": lambda csv, copy: copy.write_bytes(copy.read_bytes()[:-8]),
    "copy empty": lambda csv, copy: copy.write_bytes(b""),
    "copy one byte longer": lambda csv, copy: copy.write_bytes(copy.read_bytes() + b"\0"),
    "copy of another CSV": lambda csv, copy: copy.write_bytes(
        (copy.read_bytes()[:32] + (csv.parent / "other.csv.f8").read_bytes()[32:])),
}


@pytest.mark.parametrize("case", sorted(DAMAGED_COPY))
def test_a_copy_that_does_not_match_gives_what_the_parse_gives(tmp_path, case):
    grid = Grid2P(16, 16, 1.0, 1.0)
    data = np.random.default_rng(3).standard_normal((3, 16, 16))
    data[0, 0, 0] = 0.1
    csv, copy = tmp_path / "v.csv", tmp_path / "v.csv.f8"
    _save_with_copy(str(csv), VectorField(grid, data))
    _save_with_copy(str(tmp_path / "other.csv"), VectorField(grid, 2 * data))
    DAMAGED_COPY[case](csv, copy)
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(csv, bare / "v.csv")
    parsed = _outcome(str(bare / "v.csv"), grid)
    assert _parsed_outcome(str(csv), grid) == parsed
    edited = case == "CSV digit edited"
    assert (parsed == _bits(data).tolist()) != edited


def test_a_copy_read_against_another_grid_of_its_size_gives_what_the_parse_gives(tmp_path):
    data = np.random.default_rng(4).standard_normal((3, 16, 16))
    f = str(tmp_path / "v.csv")
    _save_with_copy(f, VectorField(Grid2P(16, 16, 1.0, 1.0), data))
    other = Grid2P(8, 32, 1.0, 1.0)
    with_copy = _parsed_outcome(f, other)
    os.remove(f + ".f8")
    assert with_copy == _outcome(f, other)
    assert "not an integer index of the 8x32 grid" in with_copy


def test_a_written_nan_read_from_the_copy_is_non_finite(tmp_path):
    grid = Grid2P(4, 4, 1.0, 1.0)
    data = np.ones((3, 4, 4))
    data[1, 2, 3] = np.nan
    f = str(tmp_path / "v.csv")
    _save_with_copy(f, VectorField(grid, data))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fieldio, "_parse_csv", _no_parse)
        with pytest.raises(ArchiveError, match="v.csv: non-finite value"):
            load_vector(f, grid)


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
    "non-UTF-8 bytes": b"\xff\xfe" + GOLDEN.encode(),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_csv_raises_archive_error_naming_the_file(tmp_path, case):
    f = tmp_path / "v.csv"
    text = MALFORMED[case]
    f.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ArchiveError, match="v.csv"):
        load_vector(str(f), Grid2P(4, 4, 1.0, 1.0))
