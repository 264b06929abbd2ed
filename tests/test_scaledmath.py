import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from nanoshell import scaledmath as sm
from nanoshell.errors import RangeError


def _scaled(rng, n):
    """Random scaled arrays whose plain values are still doubles, plus zeros."""
    m = rng.normal(size=n) + 1j * rng.normal(size=n)
    m[::7] = 0.0
    return sm.canonical(m * 10.0 ** rng.uniform(-80, 80, n), rng.uniform(-60, 60, n))


def test_array_ops_match_plain_complex_arithmetic():
    rng = np.random.default_rng(5)
    x, y = _scaled(rng, 200), _scaled(rng, 200)
    px, py = sm.collapse(x), sm.collapse(y)
    c = 3.0 - 2.0j
    nonzero = py != 0
    assert_allclose(sm.collapse(sm.mul(x, y)), px * py, rtol=1e-13)
    assert_allclose(sm.collapse(sm.scale(x, c)), px * c, rtol=1e-13)
    for op, ref in ((sm.add, px + py), (sm.sub, px - py)):
        got = sm.collapse(op(x, y))
        assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))
    y_safe = (y[0][nonzero], y[1][nonzero])
    got = sm.collapse(sm.div((x[0][nonzero], x[1][nonzero]), y_safe))
    assert_allclose(got, px[nonzero] / py[nonzero], rtol=1e-13)
    assert_allclose(sm.log_abs(x)[px != 0], np.log(np.abs(px[px != 0])), rtol=1e-13)
    # a scalar or 0-d operand broadcasts against an array
    assert_allclose(sm.collapse(sm.add(x, sm.from_complex(2.0))), px + 2.0, rtol=1e-13)
    # a zero term does not set the scale of a sum, however small the other
    assert sm.log_abs(sm.add(sm.ZERO, (1.0 + 0j, -2000.0))) == -2000.0
    assert sm.log_abs(sm.sub((1.0 + 0j, -2000.0), sm.ZERO)) == -2000.0
    with pytest.raises(ZeroDivisionError):
        sm.div(x, sm.ZERO)


def test_collapse_names_first_overflowing_order():
    m = np.ones(4, dtype=complex)
    e = np.array([0.0, 800.0, -800.0, 900.0])
    with pytest.raises(RangeError, match=r"^g overflows double precision at order l=2$"):
        sm.collapse((m, e), "g", first_l=1)
    assert_allclose(sm.collapse((m[[0, 2]], e[[0, 2]])), [1.0, 0.0])


# mantissas: zeros, and magnitudes well inside and well outside canonical's
# [1e-100, 1e100] band, so that results take both of its paths
_NONZERO = st.builds(
    lambda p, phase: 10.0**p * np.exp(1j * phase),
    st.floats(-150.0, 150.0),
    st.floats(0.0, 2.0 * np.pi),
)
_MANTISSA = st.one_of(st.just(0j), _NONZERO)
_EXPONENT = st.floats(-700.0, 700.0)


@st.composite
def _stacked(draw, n, nonzero=False):
    """A scaled array of shape (2, n), its mantissas nonzero if asked."""
    mantissa = _NONZERO if nonzero else _MANTISSA
    m = draw(st.lists(mantissa, min_size=2 * n, max_size=2 * n))
    e = draw(st.lists(_EXPONENT, min_size=2 * n, max_size=2 * n))
    return np.array(m, dtype=complex).reshape(2, n), np.array(e).reshape(2, n)


def _half(x, k):
    return x[0][k], x[1][k]


@given(data=st.data(), n=st.integers(1, 6), broadcast=st.sampled_from(["none", "0-d", "python"]))
@settings(max_examples=80, deadline=None)
def test_ops_on_stacked_operands_match_each_half_bit_for_bit(data, n, broadcast):
    # every op is elementwise, renormalization included, so a result does
    # not depend on what shares its array: one op on operands stacked along
    # a new leading axis gives each unstacked result exactly
    x = data.draw(_stacked(n))
    cases = []
    for op in (sm.mul, sm.div, sm.add, sm.sub):
        y = data.draw(_stacked(n, nonzero=op is sm.div))
        if broadcast == "0-d":  # one numpy scalar shared by both halves
            y = (y[0][0, 0], y[1][0, 0])
            halves = (y, y)
        elif broadcast == "python":  # a plain Python scalar pair
            y = (complex(y[0][0, 0]), float(y[1][0, 0]))
            halves = (y, y)
        else:
            halves = (_half(y, 0), _half(y, 1))
        cases.append((op, y, halves))
    c = np.array(data.draw(st.lists(_MANTISSA, min_size=2 * n, max_size=2 * n))).reshape(2, n)
    c_halves = (c[0], c[1]) if broadcast == "none" else (c[0, 0], c[0, 0])
    cases.append((sm.scale, c if broadcast == "none" else c[0, 0], c_halves))
    for op, y, halves in cases:
        m, e = op(x, y)
        for k in (0, 1):
            mk, ek = op(_half(x, k), halves[k])
            assert np.array_equal(m[k], mk) and np.array_equal(e[k], ek), (op.__name__, k)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1.0, np.inf),
                                 complex(np.nan, 0.0)])
def test_canonical_rejects_a_non_finite_mantissa(bad):
    # alone, among in-band entries and beside zeros and out-of-band entries
    for m in ([bad], [1.0, bad, 2.0], [0.0, 1e300, bad]):
        with pytest.raises(RangeError, match="overflowed"):
            sm.canonical(np.array(m, dtype=complex), np.zeros(len(m)))
