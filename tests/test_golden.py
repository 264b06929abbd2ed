"""Sweep CSV bytes and convergence reports against recorded files.

Each case is a small sweep config; the CSV it produces must match its file
under ``tests/data/golden`` byte for byte.  The cases cover every preset on a
coarse radial grid that holds r = 0 and every lossless host, a five-region
dielectric sphere with rows in all five hosts, and preset C's 450-1050 nm
wavelength sweep inside its core.  Three ``nanoshell converge`` reports are
held the same way: a dipole between preset A's gold shells, one at preset
D's center and README's example outside preset C.  A change that moves a
cell on purpose rewrites the files in the same commit, with
``PYTHONPATH=src python tests/test_golden.py``, and lists each moved cell
with its relative change.
"""

import pathlib
import sys

import pytest

from nanoshell import model, sweep

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"

# region edges at r/r_s 0.357, 0.571, 0.786 and 1; two rows per host
FIVE_REGIONS = {
    "shells": [[250.0, {"n": 1.45}], [400.0, {"n": 2.1}], [550.0, {"n": 1.6}], [700.0, {"n": 2.4}]],
    "ambient": "water",
}

CASES = {
    **{
        f"radial_{name}.csv": {"sphere": name, "grid": {"linspace": [0.0, 2.0, 11]}}
        for name in "ABCDEF"
    },
    "radial_five_regions.csv": {
        "sphere": FIVE_REGIONS,
        "grid": [0.0, 0.2, 0.3, 0.45, 0.5, 0.65, 0.7, 0.85, 0.95, 1.1, 1.5],
    },
    "wavelength_C.csv": {
        "sphere": "C",
        "sweep": "wavelength",
        "r_over_rs": 0.45,
        "wavelengths_nm": [450.0 + 15.0 * i for i in range(41)],
    },
}


# `nanoshell converge` reports: (preset, r/r_s, orientation, l_max)
CONVERGE = {
    # metal preset, dipole in host region 3 between the gold shells
    "converge_A.txt": ("A", 0.8, model.TANGENTIAL, 80),
    # a dipole at the center, the r -> 0 limit of the general closure
    "converge_D.txt": ("D", 0.0, model.RADIAL, 60),
    # README's example, just outside the sphere in the ambient
    "converge_C.txt": ("C", 1.01, model.RADIAL, 60),
}


def _csv(name):
    return sweep.run_sweep(sweep.config_from_dict(CASES[name])).to_csv().encode()


def _report(name):
    preset, r_over_rs, orientation, l_max = CONVERGE[name]
    sphere = model.preset(preset)
    dipole = model.DipoleSource(r_over_rs * sphere.outer_radius_nm, orientation, 595.0)
    report = sweep.convergence_report(sphere, dipole, l_max)
    return "".join(f"{line}\n" for line in report.lines()).encode()


def _output(name):
    return _csv(name) if name in CASES else _report(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_csv_matches_recorded_bytes(name):
    assert _csv(name) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CONVERGE))
def test_convergence_report_matches_recorded_bytes(name):
    assert _report(name) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in sorted(CASES) + sorted(CONVERGE):
        (GOLDEN / case).write_bytes(_output(case))
        print(f"wrote {GOLDEN / case}", file=sys.stderr)
