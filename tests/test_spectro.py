import random
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import spherical_jn

from nanoshell import materials, model, spectro, sweep, transfer
from nanoshell.errors import (
    ConfigError,
    DomainError,
    GeometryError,
    MaterialRangeError,
    NanoshellError,
)

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


# ---------------------------------------------------------------------------
# single queries share one prepare per (sphere, wavelength, l_max)


def _five_region_dielectric():
    return model.build_sphere(
        [(40.0, materials.constant_index(1.6)), (70.0, materials.constant_index(2.1)),
         (95.0, "silica"), (120.0, materials.constant_index(1.9))], materials.water())


def _hosts(sphere):
    """Radii [nm] at the origin, in the core, in the spacer (region 3, of a
    five-region sphere) and in the ambient."""
    radii = sphere.radii
    spacer = [0.5 * (radii[1] + radii[2])] if len(radii) == 4 else []
    return [0.0, 0.5 * radii[0], *spacer, 1.3 * radii[-1]]


def _outcome(call):
    """What ``call()`` returns, as exact text, or the error it raises."""
    try:
        out = call()
    except NanoshellError as exc:
        return "raised", type(exc), str(exc), getattr(exc, "__notes__", None)
    if isinstance(out, transfer._Closure):
        return [np.asarray(x).tobytes() for x in (out.g, out.b_out, out.q_out, out.scat,
                                                   out.a, out.b)]
    return repr(out)


def _memo_call(sphere, r, wl, l_max, kind):
    if kind == "both":
        return lambda: spectro.evaluate_orientations(sphere, r, wl, l_max)
    orientation, how = kind.split("-")
    dipole = model.DipoleSource(r, orientation, wl)
    if how == "fields":
        return lambda: transfer.solve_dipole_fields(sphere, dipole, l_max)
    return lambda: spectro.evaluate(sphere, dipole, l_max)


def _fresh_call(sphere, r, wl, l_max, kind):
    """The query on a prepare of its own, through spectro.evaluate_rows."""
    def call():
        prepared = transfer.prepare(sphere, [wl], l_max)
        if kind == "both":
            return spectro.evaluate_rows(prepared, [(r, wl)], model.ORIENTATIONS)[0]
        orientation, how = kind.split("-")
        result = spectro.evaluate_rows(prepared, [(r, wl)], (orientation,))[0][orientation]
        return transfer.close(prepared, [(r, wl)], (orientation,)) if how == "fields" else result
    return call


_KINDS = ("radial-evaluate", "tangential-evaluate", "both", "radial-fields", "tangential-fields")


@pytest.mark.parametrize("seed", [0, 1])
def test_shared_prepares_give_a_fresh_prepares_results_in_any_order(seed):
    # shuffled single queries over presets A-F and a five-region dielectric
    # sphere, at the origin and in core, spacer and ambient, at two
    # wavelengths and l_max 8 and 60, each query twice: every result, and
    # every error (the gold cores of E and F host none), is bit for bit
    # that of a fresh prepare, whether its prepare was new or shared
    rng = random.Random(seed)
    spheres = [model.preset(p) for p in "ABCDEF"] + [_five_region_dielectric()]
    queries = [(sphere, r, wl, l_max, rng.choice(_KINDS))
               for sphere in spheres for r in _hosts(sphere)
               for wl in (LAM, 800.0) for l_max in (8, 60)]
    queries = queries * 2
    rng.shuffle(queries)
    fresh = {}
    for n, query in enumerate(queries):
        key = (id(query[0]),) + query[1:]
        if key not in fresh:
            fresh[key] = _outcome(_fresh_call(*query))
        assert _outcome(_memo_call(*query)) == fresh[key], (n, query[1:])
    assert any(outcome[0] == "raised" for outcome in fresh.values())


def test_a_failing_query_raises_alike_and_keeps_no_prepare():
    # a prepare whose read or point check raises is not held; a point that
    # fails against a held prepare raises what it raises against a new one
    sphere = model.preset("A")
    outside = model.DipoleSource(150.0, "radial", 1200.0)  # past the gold table
    in_gold = model.DipoleSource(95.0, "radial", LAM)  # an absorbing host
    on_shell = model.DipoleSource(107.0, "radial", LAM)  # on an interface
    fine = model.DipoleSource(50.0, "radial", LAM)
    for dipole, error in ((outside, MaterialRangeError), (in_gold, GeometryError),
                          (on_shell, GeometryError)):
        with pytest.raises(error) as miss:
            spectro.evaluate(sphere, dipole)
        assert not transfer._SHARED
        spectro.evaluate(sphere, fine)
        with pytest.raises(error) as hit:
            spectro.evaluate(sphere, dipole)
        assert str(hit.value) == str(miss.value)
        transfer._SHARED.clear()
    for call in (lambda: transfer.solve_dipole_fields(sphere, in_gold, 60),
                 lambda: spectro.evaluate_orientations(sphere, 107.0, LAM)):
        with pytest.raises(GeometryError):
            call()
        assert not transfer._SHARED


def test_l_max_is_checked_before_a_held_prepare_is_looked_up():
    sphere = model.preset("D")
    dipole = model.DipoleSource(50.0, "radial", LAM)
    for held, bad in ((1, True), (60, 60.0)):
        spectro.evaluate(sphere, dipole, held)
        for call in (lambda: spectro.evaluate(sphere, dipole, bad),
                     lambda: spectro.evaluate_orientations(sphere, 50.0, LAM, bad),
                     lambda: transfer.solve_dipole_fields(sphere, dipole, bad)):
            with pytest.raises(ConfigError, match=rf"^l_max must be an integer in 1\.\.4000, "
                                                  rf"got {bad!r}$"):
                call()


def test_held_prepares_stay_within_the_entry_budget():
    # at l_max 60, 33 five-region prepares fit (61 x 5 entries each); a
    # 34th drops the least recently used.  At l_max 4000 a core-and-ambient
    # prepare holds 8,002 entries, so only the newest is held
    sphere = model.preset("A")
    wavelengths = [500.0 + 2.0 * i for i in range(34)]
    for wl in wavelengths[:33]:
        spectro.evaluate(sphere, model.DipoleSource(50.0, "radial", wl))
    spectro.evaluate(sphere, model.DipoleSource(50.0, "radial", wavelengths[0]))  # a hit
    spectro.evaluate(sphere, model.DipoleSource(50.0, "radial", wavelengths[33]))
    held = [wl for _, wl, _ in transfer._SHARED]
    assert held == wavelengths[2:33] + wavelengths[:1] + wavelengths[33:]
    assert sum((p.l_max + 1) * p.n_regions
               for p in transfer._SHARED.values()) <= transfer.CLOSE_ENTRIES
    d = model.preset("D")
    for wl in (LAM, 800.0):
        spectro.evaluate(d, model.DipoleSource(50.0, "radial", wl), transfer.L_MAX_CEILING)
    assert list(transfer._SHARED) == [(d, 800.0, transfer.L_MAX_CEILING)]
    assert 2 * (transfer.L_MAX_CEILING + 1) <= transfer.CLOSE_ENTRIES


def test_a_sphere_that_cannot_be_hashed_gets_a_prepare_of_its_own():
    d = model.preset("D")
    listed = model.StratifiedSphere(list(d.shells), d.ambient)
    dipole = model.DipoleSource(50.0, "tangential", LAM)
    assert repr(spectro.evaluate(listed, dipole)) == repr(spectro.evaluate(d, dipole))
    assert list(transfer._SHARED) == [(d, LAM, 60)]


def test_threads_sharing_prepares_get_a_fresh_prepares_results():
    # more threads than cores extend the same few held prepares at once,
    # with a short switch interval; each result must equal a fresh
    # prepare's
    rng = random.Random(3)
    spheres = [model.preset("A"), _five_region_dielectric()]
    queries = [(sphere, r, wl, 60, kind) for sphere in spheres for r in _hosts(sphere)
               for wl in (LAM, 800.0) for kind in ("radial-evaluate", "both")]
    want = [_outcome(_fresh_call(*q)) for q in queries]
    for sphere in spheres:  # held, and extended by nothing yet
        for wl in (LAM, 800.0):
            transfer.shared_prepare(sphere, wl, 60, lambda prepared: None)
    got, workers = {}, []
    for t in range(6):
        order = list(range(len(queries)))
        rng.shuffle(order)
        workers.append(threading.Thread(target=lambda order=order, t=t: got.update(
            {(t, n): _outcome(_memo_call(*queries[n])) for n in order})))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert got == {(t, n): want[n] for t in range(6) for n in range(len(queries))}
