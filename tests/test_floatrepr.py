"""The CSV number kernel against CPython's repr, value by value."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chansounder import _floatrepr


def kernel_texts(values: np.ndarray) -> list[str]:
    newline = np.full(len(values), ord("\n"), dtype=np.uint8)
    return _floatrepr.reprs(values, newline).decode("ascii").split("\n")[:-1]


def assert_reprs(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    got, want = kernel_texts(values), [repr(v) for v in values.tolist()]
    assert len(got) == len(want)
    bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert bad is None, f"bits {values[bad:bad + 1].view(np.uint64)[0]:#018x}: {got[bad]} != {want[bad]}"


def edge_values() -> np.ndarray:
    """Powers of two and of ten with both neighbours, the switch values
    between positional and scientific text, and the special values."""
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    centres = np.concatenate([powers, tens])
    fixed = [
        1e-4, 1e-5, 1e16, 9999999999999998.0, 0.00010000000000000002, 9.999999999999999e-05,
        1.5e100, 2.5e-150, 1.7976931348623157e308, 1e-100, 1e100, 5e-324, 8e-323,
        0.0, -0.0, math.inf, -math.inf, math.nan,
    ]
    near = np.concatenate([centres, np.nextafter(centres, 0.0), np.nextafter(centres, math.inf)])
    return np.concatenate([near, -near, fixed])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=40))
def test_any_float_matches_repr(values):
    assert_reprs(values)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_any_bit_pattern_matches_repr(patterns):
    assert_reprs(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_fixed_sweep_matches_repr():
    bits = np.random.default_rng(2020).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    assert_reprs(np.concatenate([bits.view(np.float64), edge_values()]))


def test_switch_and_special_texts():
    values = [1e-4, 1e-5, 1e16, 9999999999999998.0, 5e-324, 8e-323, 0.0, -0.0, math.inf, -math.inf, math.nan]
    assert kernel_texts(np.array(values)) == [
        "0.0001", "1e-05", "1e+16", "9999999999999998.0", "5e-324", "8e-323",
        "0.0", "-0.0", "inf", "-inf", "nan",
    ]


def test_separators_follow_each_value():
    values = np.array([1.0, -2.5, 1e300])
    seps = np.array([ord(","), ord("\n"), ord(";")], dtype=np.uint8)
    assert _floatrepr.reprs(values, seps) == b"1.0,-2.5\n1e+300;"
