import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from nanoshell import specfun
from nanoshell.errors import DomainError, RangeError
from nanoshell.specfun import riccati_scaled

import oracles
from oracles import bessel_table, riccati

GOLD_N = 0.248 + 2.986j
K0_595 = 2 * math.pi / 595.0


def stable_wronskian_residual(tab):
    """|z^2 W(j, y) - 1| evaluated through the independent h1 family.

    W(j, y) = -i (j h1' - j' h1): products of one small and one large factor,
    so the check stays meaningful in strongly absorbing media where forming
    j*y' - j'*y directly cancels e^{2 Im z}-sized terms.
    """
    z = tab.argument
    w = -1j * (tab.j * tab.dh1 - tab.dj * tab.h1)
    return np.abs(z * z * w - 1.0)


def test_closed_form_order_zero():
    tab = bessel_table(1, 1.0)
    assert_allclose(tab.j[0], 0.841470984807897, rtol=1e-12)
    assert_allclose(tab.h1[0], 0.841470984807897 - 0.540302305868140j, rtol=1e-12)


def test_wronskian_at_two():
    tab = bessel_table(8, 2.0 + 0j)
    w = tab.j * tab.dy - tab.dj * tab.y
    assert_allclose(w, 0.25, rtol=1e-12)


def test_h1_matches_sum_for_real_argument():
    for z in (0.7, 2.0, 13.4, 61.0):
        tab = bessel_table(25, z)
        rel = np.abs(tab.h1 - (tab.j + 1j * tab.y)) / np.abs(tab.h1)
        assert rel.max() < 1e-10


def test_riccati_psi0_is_sin():
    tab = riccati(1, 1.0)
    assert_allclose(tab.psi[0], math.sin(1.0), rtol=1e-14)


def test_riccati_wronskian_is_unit():
    # with chi = -z*y the Riccati pair satisfies psi' chi - psi chi' = 1
    for z in (1.0, 0.5 + 0.5j, 3.0 - 0.2j):
        tab = riccati(6, z)
        w = tab.dpsi * tab.chi - tab.psi * tab.dchi
        assert_allclose(w, 1.0, rtol=1e-10)


def test_riccati_consistent_with_bessel_table():
    z = 0.5 + 0.5j
    rt = riccati(10, z)
    bt = bessel_table(10, z)
    assert_allclose(rt.psi, z * bt.j, rtol=1e-12)
    assert_allclose(rt.chi, -z * bt.y, rtol=1e-12)
    assert_allclose(rt.xi, z * bt.h1, rtol=1e-12)


def test_zero_argument_rejected():
    with pytest.raises(DomainError):
        bessel_table(5, 0.0)
    with pytest.raises(DomainError):
        riccati(5, 1e-12)


def test_huge_argument_rejected_before_any_recurrence():
    # the downward j recurrence would start at an order of ~|z|, beyond what
    # its renormalization holds; the error names |z|
    for z in (2.0e6, 1e303, complex(3.0, 2.0e5), math.inf, math.nan):
        with pytest.raises(DomainError, match=r"argument too large: \|z\| = "):
            riccati_scaled(5, np.array([1.0, z]))
    with pytest.raises(DomainError, match="too large"):
        riccati_scaled(10**5, 1.0)


def test_bad_order_rejected():
    with pytest.raises(DomainError):
        bessel_table(0, 1.0)


def test_overflow_names_failing_order():
    with pytest.raises(RangeError, match="order l="):
        bessel_table(400, 0.5)


def test_scaled_tables_stay_finite_far_beyond_double_range():
    # (psi, dpsi, xi, dxi) values and (psi, xi) log norms
    values, logs = riccati_scaled(2000, 2.1).table
    assert np.all(np.isfinite(values[2])) and np.all(np.isfinite(logs[1]))
    assert np.all(np.isfinite(values[0])) and np.all(np.isfinite(logs[0]))
    # xi_l at small argument dwarfs double range; the log norm carries it
    assert logs[1, -1] > 800


@pytest.mark.parametrize("z, l_max", [
    *((z, l_max) for z in (2.1 + 0.3j, 15.0, 7.5 + 22j, 40.0 + 1j) for l_max in (60, 1000, 4000)),
    # near the origin, where sin z formed from exp(+-iz) would cancel
    (1e-5 + 4e-5j, 60), (1.05e-8 + 4.42e-8j, 60),
])
def test_normalized_table_matches_mpmath(z, l_max):
    # each family over its norm max(|f|, |f'|), and the log of that norm,
    # against psi_l = sqrt(pi z / 2) J_{l+1/2}(z) and xi_l with H1 at 40 digits
    values, logs = riccati_scaled(l_max, z).table
    for l in (1, 7, l_max // 2, l_max):
        with mp.workdps(40):
            zc = mp.mpc(z)
            pref = mp.sqrt(mp.pi * zc / 2)
            want, want_logs = [], []
            for bessel in (mp.besselj, mp.hankel1):
                f_lo, f = (pref * bessel(k + mp.mpf(1) / 2, zc) for k in (l - 1, l))
                df = f_lo - l / zc * f
                norm = max(abs(f), abs(df))
                want += [complex(f / norm), complex(df / norm)]
                want_logs.append(float(mp.log(norm)))
        assert np.abs(values[:, l] - want).max() <= 2e-13, l
        assert np.abs(logs[:, l] - want_logs).max() <= 2e-11, l


def test_non_finite_table_entry_names_its_order(monkeypatch):
    # without renormalization the recurrences leave double range
    monkeypatch.setattr(specfun, "_RENORM", math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RangeError, match=r"order l=\d+"):
            riccati_scaled(400, 0.5)


def test_derivative_matches_finite_difference():
    h = 1e-6
    for z in (1.7, 2.0 + 1.1j):
        lo = bessel_table(6, z - h)
        hi = bessel_table(6, z + h)
        mid = bessel_table(6, z)
        fd = (hi.j - lo.j) / (2 * h)
        assert_allclose(mid.dj, fd, rtol=1e-8, atol=1e-12)
        fd = (hi.h1 - lo.h1) / (2 * h)
        assert_allclose(mid.dh1, fd, rtol=1e-8, atol=1e-12)


@st.composite
def arguments(draw):
    mag = draw(st.floats(min_value=0.1, max_value=500.0))
    # passive-media quadrant with bounded anisotropy |Im z| <= 5 |Re z|
    ratio = draw(st.floats(min_value=0.0, max_value=5.0))
    re = mag / math.hypot(1.0, ratio)
    return complex(re, ratio * re)


@given(z=arguments(), l_max=st.integers(min_value=1, max_value=60))
@settings(max_examples=60, deadline=None)
def test_wronskian_property(z, l_max):
    tab = bessel_table(l_max, z)
    assert stable_wronskian_residual(tab).max() < 1e-10


@given(z=arguments(), l_max=st.integers(min_value=2, max_value=60))
@settings(max_examples=60, deadline=None)
def test_recurrence_property(z, l_max):
    tab = bessel_table(l_max, z)
    ls = np.arange(1, l_max)
    for fam in (tab.j, tab.y, tab.h1):
        lhs = (2 * ls + 1) / z * fam[1:-1]
        rhs = fam[:-2] + fam[2:]
        scale = np.maximum(np.abs(lhs), np.maximum(np.abs(fam[:-2]), np.abs(fam[2:])))
        assert (np.abs(lhs - rhs) / scale).max() < 1e-10


def test_strongly_absorbing_wronskian():
    rng = np.random.default_rng(7)
    for _ in range(25):
        re = rng.uniform(4.0, 60.0)
        im = rng.uniform(5.0, 20.0)
        tab = bessel_table(40, complex(re, im))
        assert stable_wronskian_residual(tab).max() < 1e-10


def test_direct_sum_would_lose_h1_in_absorbing_media():
    # j + i*y cancels catastrophically once e^{2 Im z} eats the mantissa;
    # the independent recurrence keeps full precision (checked vs mpmath)
    z = GOLD_N * K0_595 * 650.0
    tab = bessel_table(60, z)
    for l in (0, 1, 5, 20, 40, 60):
        _, _, h_ref = oracles.mp_spherical(l, z)
        assert abs(tab.h1[l] - h_ref) / abs(h_ref) < 1e-8


@pytest.mark.parametrize("r_nm", [30.0, 150.0, 420.0, 700.0])
def test_gold_arguments_h1_accuracy(r_nm):
    z = GOLD_N * K0_595 * r_nm
    tab = bessel_table(60, z)
    for l in (0, 1, 2, 7, 19, 37, 60):
        j_ref, y_ref, h_ref = oracles.mp_spherical(l, z)
        assert abs(tab.h1[l] - h_ref) <= 1e-8 * abs(h_ref)
        assert abs(tab.j[l] - j_ref) <= 1e-10 * abs(j_ref)
        assert abs(tab.y[l] - y_ref) <= 1e-10 * abs(y_ref)


def test_tables_finite_over_spec_domain():
    rng = np.random.default_rng(11)
    for _ in range(40):
        mag = 10 ** rng.uniform(math.log10(0.1), math.log10(500.0))
        ratio = rng.uniform(0.0, 5.0)
        re = mag / math.hypot(1.0, ratio)
        tab = bessel_table(60, complex(re, ratio * re))
        for fam in (tab.j, tab.y, tab.h1, tab.dj, tab.dy, tab.dh1):
            assert np.all(np.isfinite(fam))


def test_scaled_table_of_an_argument_does_not_depend_on_its_call():
    # a scalar, a one-element array and the same argument inside a batch of
    # 30 give the same bits in every value and log norm
    z = (0.1 + 0.05j) * np.linspace(1.0, 40.0, 30)
    batch = riccati_scaled(60, z).table
    for i in range(len(z)):
        scalar = riccati_scaled(60, z[i]).table
        single = riccati_scaled(60, z[i:i + 1]).table
        for names, b, s, o in zip((("psi", "dpsi", "xi", "dxi"), ("log psi", "log xi")),
                                  batch, scalar, single):
            for f, name in enumerate(names):
                want = b[f, i].tobytes()
                assert s[f].tobytes() == want, (i, name)
                assert o[f, 0].tobytes() == want, (i, name)
