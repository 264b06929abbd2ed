"""Correctness gate: run on every benchmark run, never timed.

Each check returns a list of failure messages; an empty list is a pass.
"""

import json
import math
from pathlib import Path

import numpy as np

from nanoshell import benchmarks, spectro

import inputs

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Reference rows must agree to RTOL * (|ref| + |wt_ref|).  Tight enough that a
# wrong answer (off by 1e-4 or more) fails; loose enough for a change that
# moves wohm by <= 1e-9 relative or reorders the arithmetic.  Where the seed
# commit's own quadrature missed its tolerance (rows near gold), wohm may move
# by up to QUAD_SLACK times the error it reported.  Each recorded row is
# [*VALUES, quad_rel_err] at 13 significant digits.
RTOL = 1e-6
QUAD_SLACK = 10.0
ENERGY_RTOL = 1e-4
YIELD_RTOL = 1e-9
REFERENCE_ROWS = 6
VALUES = ("wt_norm", "wrad_norm", "wohm_norm", "shift_norm", "yield")
_RESULT_ATTR = {"yield": "fluorescence_yield"}


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_rows(rows, sw):
    """Row count, inputs echoed in order, finite values, yield = wrad/wt and
    wt = wrad + wohm on every row of one sweep."""
    errors = []
    expected = [(p, o) for p in sw.points for o in inputs.ORIENTATIONS]
    if len(rows) != len(expected):
        return [f"{sw.label}: {len(rows)} rows, expected {len(expected)}"]
    x_col = "r_over_rs" if sw.config["sweep"] == "radial" else "wavelength_nm"
    for i, (row, (p, o)) in enumerate(zip(rows, expected)):
        where = f"{sw.label} row {i}"
        if row[x_col] != f"{p:.12g}" or row["orientation"] != o:
            errors.append(f"{where}: input echo {row[x_col]},{row['orientation']} != {p:.12g},{o}")
            continue
        try:
            v = {k: float(row[k]) for k in (*VALUES, "photostability")}
        except ValueError as exc:
            errors.append(f"{where}: {exc}")
            continue
        if not all(math.isfinite(x) for x in v.values()):
            errors.append(f"{where}: non-finite value {v}")
            continue
        if row["converged"] not in ("true", "false"):
            errors.append(f"{where}: converged={row['converged']!r}")
        wt, wrad, wohm = v["wt_norm"], v["wrad_norm"], v["wohm_norm"]
        if wt <= 0 or abs(v["yield"] - wrad / wt) > YIELD_RTOL * abs(v["yield"]) + 1e-15:
            errors.append(f"{where}: yield {v['yield']!r} != wrad/wt {wrad / wt!r}")
        if abs(wt - wrad - wohm) > ENERGY_RTOL * abs(wt):
            errors.append(f"{where}: |wt - wrad - wohm| = {abs(wt - wrad - wohm):.3e} "
                          f"> {ENERGY_RTOL:g} wt")
    return errors


def reference_picks(workload):
    """The (sweep, point, orientation) rows compared against the seed
    commit; a pure function of the workload's seed."""
    rows = [(i, j, o) for i, s in enumerate(workload.sweeps)
            for j in range(len(s.points)) for o in inputs.ORIENTATIONS]
    rng = np.random.default_rng([99, inputs.WORKLOADS.index(workload.name), workload.seed])
    return [rows[k] for k in sorted(rng.permutation(len(rows))[:REFERENCE_ROWS])]


def result_values(res):
    return {k: getattr(res, _RESULT_ATTR.get(k, k)) for k in VALUES}


def evaluate_pick(workload, pick):
    """Values of one picked row, evaluated directly."""
    i, j, orientation = pick
    sw = workload.sweeps[i]
    r_nm, wl = sw.query(j)
    return result_values(spectro.evaluate_orientations(sw.sphere, r_nm, wl)[orientation])


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _compare(label, got, ref_row):
    ref = dict(zip((*VALUES, "quad_rel_err"), ref_row))
    errors = []
    wt_scale = abs(ref["wt_norm"])
    for k in VALUES:
        rtol = max(RTOL, QUAD_SLACK * ref["quad_rel_err"]) if k == "wohm_norm" else RTOL
        if not abs(got[k] - ref[k]) <= rtol * (abs(ref[k]) + wt_scale):
            errors.append(f"{label}: {k} {got[k]!r} vs reference {ref[k]!r} (rtol {rtol:g})")
    return errors


def check_reference(workload, tables, reference):
    """Rows against values recorded from the seed commit for the same seed.

    tables: parsed CSV rows per sweep.  A seed the reference does not hold,
    or a workload shrunk for the self-test, is checked on seed 0's picked
    rows instead, evaluated directly.
    """
    recorded = reference["workloads"][workload.name]
    key = str(workload.seed)
    errors = []
    if key in recorded and workload.scale == 1.0:
        for pick, ref in zip(reference_picks(workload), recorded[key]):
            i, j, o = pick
            row = tables[i][j * len(inputs.ORIENTATIONS) + inputs.ORIENTATIONS.index(o)]
            got = {k: float(row[k]) for k in VALUES}
            errors += _compare(f"seed {key} {workload.sweeps[i].label} row {pick}", got, ref)
        return errors, f"{len(recorded[key])} rows of seed {key}"
    base = inputs.generate(workload.name, 0)
    for pick, ref in zip(reference_picks(base), recorded["0"]):
        got = evaluate_pick(base, pick)
        errors += _compare(f"seed 0 {base.sweeps[pick[0]].label} row {pick}", got, ref)
    return errors, f"seed {key} at scale {workload.scale:g}: {len(recorded['0'])} rows of seed 0"


def regress_pass_set():
    return [i for i, r in enumerate(benchmarks.run()) if r.passed]


def check_regress(reference):
    """`benchmarks.run()` keeps the seed commit's pass set (37/43; the six
    documented criterion 3 and 5 entries still fail)."""
    passed = regress_pass_set()
    want = reference["regress_pass"]
    if passed == want:
        return []
    return [f"benchmark table pass set changed: {len(passed)}/{len(benchmarks.ENTRIES)} "
            f"passed, gained {sorted(set(passed) - set(want))}, "
            f"lost {sorted(set(want) - set(passed))}"]


def check_result(label, res):
    """Finite values and energy balance of one directly evaluated query."""
    vals = (res.wt_norm, res.wrad_norm, res.wohm_norm, res.shift_norm)
    if not all(math.isfinite(v) for v in vals):
        return [f"{label}: non-finite result {vals}"]
    if abs(res.wt_norm - res.wrad_norm - res.wohm_norm) > ENERGY_RTOL * abs(res.wt_norm):
        return [f"{label}: energy balance off"]
    return []
