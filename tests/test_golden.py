"""Sweep CSV bytes against recorded files.

Each case is a small sweep config; the CSV it produces must match its file
under ``tests/data/golden`` byte for byte.  The cases cover every preset on a
coarse radial grid that holds r = 0 and every lossless host, a five-region
dielectric sphere with rows in all five hosts, and preset C's 450-1050 nm
wavelength sweep inside its core.  A change that moves a cell on purpose
rewrites the files in the same commit, with
``PYTHONPATH=src python tests/test_golden.py``, and lists each moved cell
with its relative change.
"""

import pathlib
import sys

import pytest

from nanoshell import sweep

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


def _csv(name):
    return sweep.run_sweep(sweep.config_from_dict(CASES[name])).to_csv().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_csv_matches_recorded_bytes(name):
    assert _csv(name) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in sorted(CASES):
        (GOLDEN / case).write_bytes(_csv(case))
        print(f"wrote {GOLDEN / case}", file=sys.stderr)
