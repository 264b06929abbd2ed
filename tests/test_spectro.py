import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import spherical_jn

from nanoshell import model, spectro, sweep, transfer
from nanoshell.errors import DomainError, GeometryError

import oracles

LAM = 595.0


def test_channel_weights_satisfy_free_field_sum_rules():
    # the m-folded weights must reproduce the unit free-field normalizer
    for x in (0.8, 2.3, 7.9):
        l_max = int(x) + 40
        ls = np.arange(1, l_max + 1)
        j = spherical_jn(ls, x)
        dj = spherical_jn(ls, x, derivative=True)
        dpsi = j + x * dj
        radial = 1.5 * np.sum(ls * (ls + 1) * (2 * ls + 1) * (j / x) ** 2)
        tangential = 0.75 * np.sum((2 * ls + 1) * (j**2 + (dpsi / x) ** 2))
        assert_allclose(radial, 1.0, rtol=1e-12)
        assert_allclose(tangential, 1.0, rtol=1e-12)


def test_no_contrast_sphere_is_free_space():
    sph = model.build_sphere([(150.0, "water")], "water")
    for orientation in model.ORIENTATIONS:
        for r_d in (40.0, 200.0):
            res = spectro.evaluate(sph, model.DipoleSource(r_d, orientation, LAM))
            assert abs(res.wt_norm - 1.0) < 1e-12
            assert abs(res.wrad_norm - 1.0) < 1e-10
            assert abs(res.shift_norm) < 1e-12
            assert res.wohm_norm == 0.0
            assert abs(res.fluorescence_yield - 1.0) < 1e-10
    closure = transfer.solve_dipole_fields(sph, model.DipoleSource(40.0, "radial", LAM), 60)
    g_terms = spectro.partial_sums(closure)[3][0, 0]
    assert abs(np.cumsum(g_terms)[-1]) < 1e-12


def test_silica_sphere_center_values():
    sph = model.preset("D")
    dip = model.DipoleSource(0.0, "radial", LAM)
    res = spectro.evaluate(sph, dip)
    assert res.wt_norm == pytest.approx(0.94237, rel=1e-4)
    assert res.shift_norm == pytest.approx(0.0117, rel=6e-3)


def test_center_degeneracy_all_presets():
    # E and F are solid metal: the center is not a valid emitter host there
    for name in model.preset_names():
        sph = model.preset(name)
        if name in ("E", "F"):
            with pytest.raises(GeometryError):
                spectro.evaluate(sph, model.DipoleSource(0.0, "radial", LAM))
            continue
        ra = spectro.evaluate(sph, model.DipoleSource(0.0, "radial", LAM))
        ta = spectro.evaluate(sph, model.DipoleSource(0.0, "tangential", LAM))
        assert abs(ra.wt_norm - ta.wt_norm) <= 1e-10 * abs(ra.wt_norm)
        assert abs(ra.shift_norm - ta.shift_norm) <= 1e-10 * max(1e-6, abs(ra.shift_norm))
        assert abs(ra.wrad_norm - ta.wrad_norm) <= 1e-10 * abs(ra.wrad_norm)


def test_origin_is_the_limit_of_the_general_close():
    # a dipole at r = 0 is closed as the r -> 0 limit of the general close:
    # 1e-3 nm away every rate and the shift agree to O((k r)^2); the worst
    # gap over A-D measured 4.6e-10 (4.6e-8 at 1e-2 nm)
    for name in "ABCD":
        sphere = model.preset(name)
        at, near = (spectro.evaluate_orientations(sphere, r, LAM) for r in (0.0, 1e-3))
        for o in at:
            for f in ("wt_norm", "shift_norm", "wrad_norm", "wohm_norm"):
                x, y = getattr(at[o], f), getattr(near[o], f)
                assert abs(x - y) <= 2e-9 * max(abs(x), abs(y)), (name, o, f, x, y)
    # a tangential dipole at the origin drives no magnetic (TE) wave
    closure = transfer.solve_dipole_fields(
        model.preset("A"), model.DipoleSource(0.0, "tangential", LAM), 60
    )
    for x in (closure.g, closure.b_out, closure.q_out, closure.scat):
        assert np.all(x[closure.te] == 0.0)


def test_lossless_sphere_radiative_equals_total():
    sph = model.preset("D")
    for r_d in (30.0, 100.0, 149.0, 155.0, 250.0):
        for orientation in model.ORIENTATIONS:
            res = spectro.evaluate(sph, model.DipoleSource(r_d, orientation, LAM))
            assert abs(res.wt_norm - res.wrad_norm) / res.wt_norm < 1e-8
            assert res.wohm_norm == 0.0
            assert abs(res.fluorescence_yield - 1.0) < 1e-7


def test_engine_matches_interior_closed_form():
    ref = oracles.interior_dipole_rates(1.45, 1.33, 150.0, LAM, 90.0, l_max=40)
    sph = model.preset("D")
    for orientation in model.ORIENTATIONS:
        res = spectro.evaluate(sph, model.DipoleSource(90.0, orientation, LAM), l_max=40)
        wt_ref, sh_ref = ref[orientation]
        assert_allclose(res.wt_norm, wt_ref, rtol=1e-12)
        assert_allclose(res.shift_norm, sh_ref, rtol=1e-10)


def test_ohmic_zero_for_lossless():
    sph = model.preset("D")
    assert spectro.evaluate(sph, model.DipoleSource(75.0, "radial", LAM)).wohm_norm == 0.0


def test_ohmic_center_of_big_nanoshell():
    got = spectro.evaluate(model.preset("C"), model.DipoleSource(0.0, "radial", LAM)).wohm_norm
    assert got == pytest.approx(0.2102, rel=0.03)


def test_energy_balance_spot_checks():
    cases = [("A", 0.25), ("B", 1.35), ("C", 0.45), ("E", 1.10), ("F", 1.50)]
    for name, r_rs in cases:
        sph = model.preset(name)
        for orientation in model.ORIENTATIONS:
            dip = model.DipoleSource(r_rs * sph.outer_radius_nm, orientation, LAM)
            res = spectro.evaluate(sph, dip)
            bal = abs(res.wt_norm - res.wrad_norm - res.wohm_norm) / res.wt_norm
            assert bal < 1e-6, (name, r_rs, orientation, bal)


def test_quadrature_failure_reports_shell():
    sph = model.preset("A")
    dip = model.DipoleSource(0.45 * 157.0, "radial", LAM)
    with pytest.raises(oracles.QuadratureError) as err:
        oracles.quadrature_ohmic_rate(sph, dip, rtol=1e-15, max_panels=3)
    assert err.value.shell_index in (2, 4)
    assert err.value.achieved > 1e-15


def test_closed_form_ohmic_matches_quadrature_oracle():
    # (preset, r [nm] in a lossless host, r [nm] within 0.005 r_s of gold)
    cases = [
        ("A", 0.8 * 157.0, 107.0 + 0.004 * 157.0),
        ("B", 1.35 * 145.0, 1.004 * 145.0),
        ("C", 0.45 * 693.0, 418.0 + 0.004 * 693.0),
        ("E", 1.10 * 693.0, 1.004 * 693.0),
        ("F", 1.50 * 150.0, 1.004 * 150.0),
    ]
    queries = []
    for name, r_far, r_near in cases:
        for orientation in model.ORIENTATIONS:
            queries += [(name, r_far, orientation, lam) for lam in (LAM, 850.0)]
            queries.append((name, r_near, orientation, LAM))
    queries += [("A", 0.0, "radial", LAM), ("C", 0.0, "radial", LAM)]
    for name, r_nm, orientation, lam in queries:
        dip = model.DipoleSource(r_nm, orientation, lam)
        closure = transfer.solve_dipole_fields(model.preset(name), dip, 60)
        got = spectro.ohmic_rate_per_l(closure)[0, 0]
        ref, (rel, _) = oracles.quadrature_ohmic_per_l(closure, rtol=1e-11)
        total = abs(np.sum(ref))
        assert rel <= 1e-11
        assert abs(np.sum(got) - np.sum(ref)) <= 1e-9 * total, (name, r_nm, orientation, lam)
        assert np.max(np.abs(got - ref)) <= 1e-9 * total, (name, r_nm, orientation, lam)


def test_quasistatic_shift_operation():
    assert oracles.quasistatic_shift(2.0, 2.0, 2.0, 1.9, "tangential") == 0.0
    t = oracles.quasistatic_shift(2.1025, 1.7689, 2.0, 1.9, "tangential")
    r = oracles.quasistatic_shift(2.1025, 1.7689, 2.0, 1.9, "radial")
    assert r / t == pytest.approx(2.0, rel=1e-14)
    got = oracles.quasistatic_shift(2.1025, 1.7689, 2.0, 1.9, "tangential")
    assert got == pytest.approx((3 / 32) * (0.3336 / 3.8714) / 0.1**3, rel=1e-3)
    assert got == pytest.approx(8.078, rel=1e-3)
    with pytest.raises(DomainError):
        oracles.quasistatic_shift(1.0, -1.0, 2.0, 1.9, "radial")
    with pytest.raises(DomainError):
        oracles.quasistatic_shift(2.0, 1.0, 2.0, 2.0, "radial")


def test_a_non_positive_total_rate_names_its_row():
    # rows along the first axis, orientations along the second: the first
    # non-positive rate in row order is named by its row
    wt = np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 1.0]])
    with pytest.raises(DomainError, match="got -1.0") as err:
        spectro.fluorescence_yield(wt, np.ones(wt.shape), [(1.0, 595.0), (2.0, 600.0), (3.0, 0.5)])
    assert err.value.__notes__ == ["while evaluating row r=2 nm, lambda=600 nm"]


def test_no_rows_give_empty_columns_and_no_results():
    # the names and columns of no rows are those of one row, with no entries
    prepared = transfer.prepare(model.preset("D"), [595.0], 8)
    for orientations in (("tangential",), model.ORIENTATIONS):
        names, columns = spectro.observe_rows(prepared, [], orientations)
        one_names, one = spectro.observe_rows(prepared, [(75.0, 595.0)], orientations)
        assert names == one_names
        assert {f: (x.shape, x.dtype) for f, x in columns.items()} == {
            f: ((len(names), 0), x.dtype) for f, x in one.items()}
        assert spectro.evaluate_rows(prepared, [], orientations) == []


def test_yield_and_average_operations():
    assert spectro.fluorescence_yield(2.0, 1.0) == 0.5
    with pytest.raises(DomainError):
        spectro.fluorescence_yield(0.0, 1.0)
    assert spectro.orientation_average(3.0, 3.0) == 3.0
    assert spectro.orientation_average(3.0, 0.0) == 1.0
    assert spectro.photostability_ratio(1.0) == 1.0
    assert spectro.photostability_ratio(0.73) == 0.73


def test_orientation_average_at_center_equals_either():
    res = spectro.evaluate_orientations(model.preset("B"), 0.0, LAM)
    assert res["average"].wt_norm == pytest.approx(res["radial"].wt_norm, rel=1e-12)
    assert res["average"].fluorescence_yield == pytest.approx(0.694, rel=0.02)


def test_photostability_equals_normalized_radiative_rate():
    sph = model.preset("C")
    res = spectro.evaluate(sph, model.DipoleSource(0.199055 * 693.0, "tangential", LAM))
    assert res.photostability == res.wrad_norm
    assert res.photostability == pytest.approx(0.0204, rel=0.02)


def test_far_field_decoupling():
    # the tails oscillate around their limits, so compare window envelopes
    def envelope(sph, r_rs):
        rs = sph.outer_radius_nm
        sh, wt = 0.0, 0.0
        for f in np.linspace(0.92, 1.08, 7):
            res = spectro.evaluate(sph, model.DipoleSource(f * r_rs * rs, "radial", LAM))
            sh = max(sh, abs(res.shift_norm))
            wt = max(wt, abs(res.wt_norm - 1.0))
        return sh, wt

    for name in ("D", "A"):
        sph = model.preset(name)
        envs = [envelope(sph, r_rs) for r_rs in (5.0, 10.0, 20.0)]
        shifts = [e[0] for e in envs]
        wts = [e[1] for e in envs]
        assert shifts[0] > shifts[1] > shifts[2]
        assert wts[0] > wts[1] > wts[2]
        assert wts[2] < 1e-4 and shifts[2] < 1e-4


def test_near_metal_dipole_flagged_unconverged():
    sph = model.preset("A")
    r = 80.0 - 0.003 * 157.0  # 0.47 nm below the core/gold interface
    res = spectro.evaluate(sph, model.DipoleSource(r, "radial", LAM))
    assert not res.converged


def test_result_converged_away_from_metal():
    res = spectro.evaluate(model.preset("D"), model.DipoleSource(75.0, "radial", LAM))
    assert res.converged
    assert res.wt_spread < 1e-8 and res.wrad_spread < 1e-8


def test_converged_holds_the_shift_to_the_wt_rule():
    # a lossless four-shell sphere, the dipole 1.8 nm outside the interface
    # at 108.89 nm: wt has converged, but the last shift terms are ~3 each
    # (shift_norm 113, shift_tail 12665), so the row is not converged
    sph = sweep.sphere_from_spec({
        "shells": [[47.162934, {"n": [2.063453, 0.0]}], [70.46254, {"n": [1.892999, 0.0]}],
                   [108.885882, {"n": [1.66032, 0.0]}], [157.436854, {"n": [1.790942, 0.0]}]],
        "ambient": "water"})
    r = 0.7032595472339793 * sph.outer_radius_nm
    res = spectro.evaluate(sph, model.DipoleSource(r, "radial", LAM))
    assert res.wt_spread < 1e-8 and res.wrad_spread < 1e-8 and res.shift_tail > 1e4
    assert not res.converged
    # preset D at 0.5 r_s: every series, the shift's too, has converged
    d = model.preset("D")
    for orientation in model.ORIENTATIONS:
        dip = model.DipoleSource(0.5 * d.outer_radius_nm, orientation, LAM)
        assert spectro.evaluate(d, dip).converged


def test_self_field_partial_sums_monotone_convergence():
    dip = model.DipoleSource(75.0, "radial", LAM)
    closure = transfer.solve_dipole_fields(model.preset("D"), dip, 30)
    g_terms = spectro.partial_sums(closure)[3][0, 0]
    partial = np.cumsum(g_terms)
    tail = np.abs(partial[-10:] - partial[-1])
    assert tail.max() < 1e-10 * abs(partial[-1] + 1e-30) + 1e-12


def test_near_gold_series_matches_readme_table():
    # README's criterion-8 note: preset A at the grid point r/r_s = 0.85425,
    # tangential, 0.88 nm outside the gold shell at 135 nm, where the series
    # is still growing at l = 60; wt rounds to the documented values
    sph = model.preset("A")
    dip = model.DipoleSource(0.85425 * sph.outer_radius_nm, "tangential", LAM)
    documented = {60: 474, 100: 1474, 200: 4870, 400: 8900, 800: 9922,
                  transfer.L_MAX_CEILING: 9940}
    for l_max, wt in documented.items():
        res = spectro.evaluate(sph, dip, l_max)
        assert round(res.wt_norm) == wt, (l_max, res.wt_norm)
        balance = abs(res.wt_norm - res.wrad_norm - res.wohm_norm)
        assert balance <= 1e-10 * res.wt_norm, (l_max, balance)
