import numpy as np
import pytest
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
