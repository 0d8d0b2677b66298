"""Correlation kernel tests against the loop oracle and known identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chansounder.corrmath import fast_pccf

from conftest import oracle_pccf, random_complex


def test_fast_matches_direct_sweep(rng):
    """200 random pairs over short lengths plus the long campaign sizes."""
    sizes = [int(rng.integers(1, 65)) for _ in range(200)] + [1023, 1024]
    for n in sizes:
        a = random_complex(rng, n)
        b = random_complex(rng, n)
        direct = np.array(oracle_pccf(a, b))
        fast = fast_pccf(a, b)
        bound = 1e-9 * n * np.abs(a).max() * np.abs(b).max()
        assert np.max(np.abs(fast - direct)) <= bound


def test_delay_peak_lands_at_delay_lag(rng):
    n = 64
    x = random_complex(rng, n)
    for d in (0, 1, 5, 63):
        received = np.roll(x, d)
        vals = fast_pccf(received, x)
        assert int(np.argmax(np.abs(vals))) == d


def test_shifted_perfect_sequence_single_peak():
    from chansounder.seqgen import generate_fzc

    x = generate_fzc(64, 7).samples
    vals = fast_pccf(np.roll(x, 3), x)
    assert abs(vals[3]) == pytest.approx(64.0, rel=1e-12)
    off = np.abs(np.delete(vals, 3))
    assert np.max(off) < 1e-9 * 64


def test_pacf_peak_is_energy(rng):
    a = random_complex(rng, 32)
    vals = fast_pccf(a, a)
    assert vals[0].real == pytest.approx(float(np.sum(np.abs(a) ** 2)), rel=1e-12)
    assert abs(vals[0].imag) < 1e-9


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(
        np.complex128,
        st.integers(min_value=1, max_value=24),
        elements=st.complex_numbers(
            max_magnitude=1e3, allow_nan=False, allow_infinity=False
        ),
    )
)
def test_pacf_conjugate_symmetry(a):
    vals = fast_pccf(a, a)
    n = len(vals)
    mirrored = np.conj(vals[(-np.arange(n)) % n])
    assert np.allclose(vals, mirrored, atol=1e-6 * max(1.0, np.abs(vals).max()))


def test_input_validation():
    with pytest.raises(ValueError, match="equal lengths"):
        fast_pccf(np.ones(4), np.ones(5))
    with pytest.raises(ValueError, match="equal lengths"):
        fast_pccf(np.ones((3, 31)), np.ones(32))
    with pytest.raises(ValueError, match="non-empty"):
        fast_pccf(np.array([]), np.array([]))
    with pytest.raises(ValueError, match="1-d"):
        fast_pccf(np.ones((2, 2)), np.ones((2, 2)))


@settings(max_examples=80, deadline=None)
@given(
    n=st.one_of(st.integers(1, 300), st.sampled_from([1023, 1024, 4096])),
    rows=st.sampled_from([None, 1, 3]),
    kind=st.sampled_from(["complex128", "float64", "int64"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_matches_out_of_place_formula_bitwise(n, rows, kind, seed):
    """fast_pccf widens ``a`` and transforms the copy in place; for double
    and integer input that gives the bits of transforming ``a`` out of place."""
    rng = np.random.default_rng(seed)
    shape = (n,) if rows is None else (rows, n)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a = {"complex128": a, "float64": a.real.copy(), "int64": np.rint(100 * a.real).astype(np.int64)}[kind]
    b = random_complex(rng, n)
    spec = np.fft.fft(a, axis=-1).astype(np.complex128, copy=False)
    spec *= np.conj(np.fft.fft(b))
    want = np.fft.ifft(spec, axis=-1)
    assert np.array_equal(fast_pccf(a, b).view(np.uint64), want.view(np.uint64))


def test_single_precision_input_is_transformed_in_double(rng):
    a = random_complex(rng, (3, 256)).astype(np.complex64)
    b = random_complex(rng, 256)
    got = fast_pccf(a, b)
    assert got.dtype == np.complex128
    assert np.array_equal(got, fast_pccf(a.astype(np.complex128), b))
