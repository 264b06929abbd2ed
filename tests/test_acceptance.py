"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line.  Numerical targets are the frozen benchmark values at 595 nm with their
stated tolerances; property criteria run over the default sweep grids.

Known-defective benchmark entries (see the failure notes and the decision
log outside the package) are asserted exactly as stated rather than loosened;
their failures are expected and documented.
"""

import math

import numpy as np
import pytest

from nanoshell import benchmarks, model, spectro, sweep, transfer
from nanoshell.errors import GeometryError

import oracles
from oracles import bessel_table
from test_specfun import stable_wronskian_residual

LAM = 595.0
PRESETS = ("A", "B", "C", "D", "E", "F")


def _finish(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:2d}: {label}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def benchmark_results():
    return benchmarks.run()


def _criterion_entries(benchmark_results, criterion):
    return [r for r in benchmark_results if r.entry.criterion == criterion]


def _summary(results):
    n_pass = sum(r.passed for r in results)
    bad = "; ".join(
        f"{r.entry.preset}/{r.entry.quantity}@{r.entry.r_over_rs:g}/"
        f"{r.entry.orientation}: got {r.got:.6g} want {r.entry.expected:g}"
        for r in results
        if not r.passed
    )
    return n_pass, f"{n_pass}/{len(results)} entries" + (f"; failing: {bad}" if bad else "")


def test_criterion_01_center_shifts(benchmark_results):
    results = _criterion_entries(benchmark_results, 1)
    n_pass, detail = _summary(results)
    _finish(1, "frequency shifts at sphere centers (tol 1%)", n_pass == len(results), detail)


def test_criterion_02_exterior_shifts(benchmark_results):
    results = _criterion_entries(benchmark_results, 2)
    n_pass, detail = _summary(results)
    _finish(2, "exterior red shifts at r/rs=1.005025 (tol 2%)", n_pass == len(results), detail)


def test_criterion_03_total_rates(benchmark_results):
    results = _criterion_entries(benchmark_results, 3)
    n_pass, detail = _summary(results)
    _finish(3, "total decay rates (tol 0.5%/2%)", n_pass == len(results), detail)


def test_criterion_04_radiative_minimum(benchmark_results):
    results = _criterion_entries(benchmark_results, 4)
    n_pass, detail = _summary(results)
    _finish(4, "radiative-rate minimum in the big core (tol 2%)", n_pass == len(results), detail)


def test_criterion_05_ohmic_rates(benchmark_results):
    results = _criterion_entries(benchmark_results, 5)
    n_pass, detail = _summary(results)
    _finish(5, "absorption rates for preset C (tol 3%)", n_pass == len(results), detail)


def test_criterion_06_yields(benchmark_results):
    results = _criterion_entries(benchmark_results, 6)
    n_pass, detail = _summary(results)
    _finish(6, "fluorescence yields (tol 2% / 0.93 bound)", n_pass == len(results), detail)


def _grid_points(sphere, margin_fraction):
    rs = sphere.outer_radius_nm
    pts = []
    for g in sweep.default_grid(sphere):
        r = g * rs
        if r > 0 and min(abs(r - R) for R in sphere.radii) < margin_fraction * rs:
            continue
        pts.append(r)
    return pts


def _host_points(sphere, margin_fraction):
    """The grid points model.validate_dipole accepts as emitter positions."""
    points = []
    for r in _grid_points(sphere, margin_fraction):
        try:
            model.validate_dipole(sphere, model.DipoleSource(r, model.RADIAL, LAM))
        except GeometryError:
            continue
        points.append(r)
    return points


def _evaluate_points(sphere, points):
    """Every orientation's results at the points, from one prepare with the
    points closed together, each row as it would be closed alone."""
    prepared = transfer.prepare(sphere, [LAM], 60)
    return spectro.evaluate_rows(prepared, [(r, LAM) for r in points], model.ORIENTATIONS)


def test_criterion_07_energy_balance():
    worst = (0.0, "")
    for name in ("A", "B", "C", "E", "F"):
        sphere = model.preset(name)
        points = _host_points(sphere, 0.01)
        for r, both in zip(points, _evaluate_points(sphere, points)):
            for orientation in model.ORIENTATIONS:
                res = both[orientation]
                bal = abs(res.wt_norm - res.wrad_norm - res.wohm_norm) / res.wt_norm
                if bal > worst[0]:
                    worst = (bal, f"{name} r={r:.2f} {orientation}")
    ok = worst[0] < 1e-4

    d_worst = 0.0
    sphere = model.preset("D")
    points = _grid_points(sphere, 0.0)
    for both in _evaluate_points(sphere, points):
        for orientation in model.ORIENTATIONS:
            res = both[orientation]
            d_worst = max(d_worst, abs(res.wt_norm - res.wrad_norm) / res.wt_norm)
    ok = ok and d_worst < 1e-8
    _finish(
        7,
        "energy balance wt = wrad + wohm (1e-4) and lossless identity (1e-8)",
        ok,
        f"worst absorbing balance {worst[0]:.2e} at {worst[1]}; lossless worst {d_worst:.2e}",
    )


def test_criterion_08_l_convergence():
    # one prepare per preset; the grid points model.validate_dipole accepts
    # are closed and summed together, each row as it would be alone
    worst = (0.0, "")
    for name in PRESETS:
        sphere = model.preset(name)
        rs = sphere.outer_radius_nm
        points = _host_points(sphere, 0.005)
        prepared = transfer.prepare(sphere, [LAM], 60)
        closure = transfer.close(prepared, [(r, LAM) for r in points], model.ORIENTATIONS)
        wt, _, wrad, _ = spectro.partial_sums(closure)
        d_wt = abs(wt[..., 59] - wt[..., 49]) / abs(wt[..., 59])
        d_wr = abs(wrad[..., 59] - wrad[..., 49]) / abs(wrad[..., 59])
        change = np.maximum(d_wt, d_wr).T
        for r, row in zip(points, change):
            for orientation, d in zip(model.ORIENTATIONS, row):
                if d > worst[0]:
                    worst = (d, f"{name} r/rs={r / rs:.4f} {orientation}")
    _finish(
        8,
        "l_max 50->60 moves wt and wrad by < 1e-8 (0.005 rs margins)",
        worst[0] < 1e-8,
        f"worst change {worst[0]:.3e} at {worst[1]}",
    )


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-9)


def test_criterion_09_homogeneous_sphere_oracle():
    # the positions of each preset are drawn first, then closed together
    # against one prepare, each row as it would be alone
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_checked = 0
    for name, n_in in (("D", 1.45), ("E", 0.248 + 2.986j), ("F", 0.248 + 2.986j)):
        sphere = model.preset(name)
        rs = sphere.outer_radius_nm
        lossless = name == "D"
        points = []
        while n_checked < 50 * (("DEF".index(name) + 1)):
            if lossless and rng.random() < 0.5:
                r_rs = rng.uniform(0.05, 0.97)
            else:
                r_rs = rng.uniform(1.03, 2.8)
            points.append(r_rs * rs)
            n_checked += 1
        prepared = transfer.prepare(sphere, [LAM], 60)
        results = spectro.evaluate_rows(prepared, [(r, LAM) for r in points], model.ORIENTATIONS)
        for r, by_orientation in zip(points, results):
            if r < rs:
                ref = oracles.interior_dipole_rates(n_in, 1.33, rs, LAM, r)
            else:
                ref = oracles.exterior_dipole_rates(n_in, 1.33, rs, LAM, r)
            for orientation in model.ORIENTATIONS:
                res = by_orientation[orientation]
                wt_ref, sh_ref = ref[orientation][0], ref[orientation][1]
                worst = max(worst, abs(res.wt_norm - wt_ref) / abs(wt_ref))
                worst = max(
                    worst, abs(res.shift_norm - sh_ref) / max(abs(sh_ref), 1e-6)
                )
                if r < rs:
                    worst = max(worst, abs(res.wrad_norm - wt_ref) / abs(wt_ref))
                else:
                    wrad_ref = ref[orientation][2]
                    worst = max(worst, abs(res.wrad_norm - wrad_ref) / abs(wrad_ref))
    _finish(
        9,
        "homogeneous spheres match the closed-form implementation (1e-10)",
        worst < 1e-10,
        f"worst relative deviation {worst:.2e} over {n_checked} positions",
    )


def _converged_shifts(sphere, radii, rel=3e-3):
    """Shift of each (radius, orientation) at the first l_max of the
    doubling 200 -> 3200 where it moves by <= rel relative to the previous
    one, else at 3200.  Each l_max has one prepare, which closes the radii
    still moving."""
    prev, done = {}, {}
    radii = list(dict.fromkeys(radii))
    for l_max in (200, 400, 800, 1600, 3200):
        todo = [r for r in radii if any((r, o) not in done for o in model.ORIENTATIONS)]
        if not todo:
            break
        prepared = transfer.prepare(sphere, [LAM], l_max)
        rows = [(r, LAM) for r in todo]
        for r, res in zip(todo, spectro.evaluate_rows(prepared, rows, model.ORIENTATIONS)):
            for o in model.ORIENTATIONS:
                if (r, o) in done:
                    continue
                shift = res[o].shift_norm
                if (r, o) in prev and abs(shift - prev[r, o]) <= rel * abs(shift):
                    done[r, o] = shift
                prev[r, o] = shift
    return {**prev, **done}


def test_criterion_10_quasistatic_oracle():
    k2 = 2 * math.pi / LAM * 1.33
    ok = True
    details = []
    near_d = {r_rs: r_rs * 150.0 for r_rs in (1.005025, 1.01, 1.02, 1.035, 1.05)}
    inner = {"A": 102.01 / 201, "B": 106.01 / 201, "C": 114.01 / 201, "D": 0.995075}
    ratio_detail = []
    for name in PRESETS:
        sphere = model.preset(name)
        rs = sphere.outer_radius_nm
        samples = [1.005025 * rs]
        if name in inner:
            samples.append(inner[name] * rs)
        shifts = _converged_shifts(sphere, samples + (list(near_d.values()) if name == "D" else []))
        if name == "D":
            for r_rs, r in near_d.items():
                qs = oracles.quasistatic_shift(1.45**2, 1.33**2, k2 * 150.0, k2 * r, "tangential")
                dev = abs(shifts[r, "tangential"] - qs) / abs(qs)
                details.append(f"r/rs={r_rs}: dev {dev:.1%}")
                ok = ok and dev < 0.15
        for r in samples:
            ratio = shifts[r, "radial"] / shifts[r, "tangential"]
            ratio_detail.append(f"{name}@{r / rs:.4f}: {ratio:.3f}")
            ok = ok and 1.8 <= ratio <= 2.2
    _finish(
        10,
        "quasistatic shift agreement (15%) and 2:1 radial/tangential ratio",
        ok,
        "; ".join(details + ratio_detail),
    )


def test_criterion_11_special_functions():
    rng = np.random.default_rng(5)
    worst_w = worst_r = 0.0
    for _ in range(40):
        mag = 10 ** rng.uniform(-1, math.log10(500.0))
        ratio = rng.uniform(0.0, 5.0)
        re = mag / math.hypot(1.0, ratio)
        z = complex(re, ratio * re)
        if z.imag > 20.0:
            z = complex(z.real, 20.0)
        l_max = int(rng.integers(1, 61))
        tab = bessel_table(l_max, z)
        worst_w = max(worst_w, float(stable_wronskian_residual(tab).max()))
        if l_max >= 3:
            ls = np.arange(1, l_max)
            for fam in (tab.j, tab.y, tab.h1):
                lhs = (2 * ls + 1) / z * fam[1:-1]
                rhs = fam[:-2] + fam[2:]
                scale = np.maximum(np.abs(lhs), np.maximum(np.abs(fam[:-2]), np.abs(fam[2:])))
                worst_r = max(worst_r, float((np.abs(lhs - rhs) / scale).max()))
    k_gold = 2 * math.pi / LAM * (0.248 + 2.986j)
    worst_h = 0.0
    for r_nm in (50.0, 250.0, 480.0, 700.0):
        tab = bessel_table(60, k_gold * r_nm)
        for l in (0, 1, 13, 37, 60):
            _, _, h_ref = oracles.mp_spherical(l, k_gold * r_nm)
            worst_h = max(worst_h, abs(tab.h1[l] - h_ref) / abs(h_ref))
    ok = worst_w < 1e-10 and worst_r < 1e-10 and worst_h < 1e-8
    _finish(
        11,
        "Wronskian/recurrence residuals < 1e-10; h1 8-digit agreement",
        ok,
        f"wronskian {worst_w:.1e}, recurrence {worst_r:.1e}, h1 vs reference {worst_h:.1e}",
    )


def test_criterion_12_deterministic_output():
    base_cfg = {
        "sphere": "A",
        "grid": [0.0, 0.3, 1.25, 1.9],
        "orientations": ["radial", "tangential", "average"],
    }
    texts = []
    for workers in (1, 1, 2, 3):
        cfg = sweep.config_from_dict({**base_cfg, "workers": workers})
        texts.append(sweep.run_sweep(cfg).to_csv().encode())
    ok = all(t == texts[0] for t in texts)
    _finish(12, "byte-identical CSV across runs and worker counts", ok)
