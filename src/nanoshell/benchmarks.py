"""Built-in benchmark table: frozen reference values for the preset spheres
at 595 nm, with the tolerances they are held to.

Near-interface entries are sensitive to the angular-momentum truncation; the
reference values correspond to l_max = 60 at the exact sampling radii listed
here.  Entries carrying a note are reproduced by the engine only under the
condition stated in the note and are reported, not hidden.
"""

from dataclasses import dataclass

from . import model, spectro

WAVELENGTH_NM = 595.0
L_MAX = 60

# reference sampling radii: the benchmark curves were sampled at
# r/r_s = (m + 0.01)/201; the last core points of A and B sit at these m
_A_CORE_EDGE = 102.01 / 201.0
_B_CORE_EDGE = 106.01 / 201.0


@dataclass(frozen=True)
class BenchmarkEntry:
    criterion: int
    preset: str
    r_over_rs: float
    orientation: str  # radial | tangential | average
    quantity: str  # a short name of model.QUANTITIES
    expected: float
    rtol: float
    kind: str = "value"  # value | lower_bound
    note: str = ""


_MISPRINT = "expected value appears misprinted: computed value matches its digits times 10"
_LOWL = "reference curve matches a low-order truncated evaluation (l <= 4), not l_max = 60"

ENTRIES = (
    # -- criterion 1: shifts at the sphere centers, tol 1%
    BenchmarkEntry(1, "A", 0.0, "radial", "shift", -1.941, 0.01),
    BenchmarkEntry(1, "B", 0.0, "radial", "shift", -1.691, 0.01),
    BenchmarkEntry(1, "C", 0.0, "radial", "shift", +0.903, 0.01),
    BenchmarkEntry(1, "D", 0.0, "radial", "shift", +0.0117, 0.01),
    # -- criterion 2: exterior red shifts just outside the surface, tol 2%
    BenchmarkEntry(2, "B", 1.005025, "radial", "shift", -7392.0, 0.02),
    BenchmarkEntry(2, "F", 1.005025, "radial", "shift", -5858.0, 0.02),
    BenchmarkEntry(2, "A", 1.005025, "radial", "shift", -5117.0, 0.02),
    BenchmarkEntry(2, "D", 1.005025, "radial", "shift", -334.0, 0.02),
    BenchmarkEntry(2, "C", 1.005025, "radial", "shift", -67.0, 0.02),
    BenchmarkEntry(2, "E", 1.005025, "radial", "shift", -67.0, 0.02),
    BenchmarkEntry(2, "B", 1.005025, "tangential", "shift", -3597.0, 0.02),
    BenchmarkEntry(2, "F", 1.005025, "tangential", "shift", -2839.0, 0.02),
    BenchmarkEntry(2, "A", 1.005025, "tangential", "shift", -2480.0, 0.02),
    BenchmarkEntry(2, "D", 1.005025, "tangential", "shift", -162.0, 0.02),
    BenchmarkEntry(2, "C", 1.005025, "tangential", "shift", -30.0, 0.02),
    BenchmarkEntry(2, "E", 1.005025, "tangential", "shift", -30.0, 0.02),
    # -- criterion 3: total rates; 0.5% away from interfaces, 2% near them
    BenchmarkEntry(3, "D", 0.0, "radial", "wt", 0.94237, 0.005),
    BenchmarkEntry(3, "D", 1.005025, "radial", "wt", 1.27798, 0.02),
    BenchmarkEntry(3, "D", 0.497562, "tangential", "wt", 0.95173, 0.005),
    BenchmarkEntry(3, "D", 1.860746, "tangential", "wt", 1.00414, 0.005),
    BenchmarkEntry(3, "A", 0.0, "radial", "wt", 0.8751, 0.005),
    BenchmarkEntry(3, "B", 0.0, "radial", "wt", 1.7979, 0.005),
    BenchmarkEntry(3, "A", _A_CORE_EDGE, "tangential", "wt", 2773.0, 0.02),
    BenchmarkEntry(3, "A", _A_CORE_EDGE, "radial", "wt", 5412.0, 0.02),
    BenchmarkEntry(3, "B", _B_CORE_EDGE, "tangential", "wt", 2445.0, 0.02),
    BenchmarkEntry(3, "B", _B_CORE_EDGE, "radial", "wt", 4765.0, 0.02),
    BenchmarkEntry(3, "C", 0.218955, "radial", "wt", 0.1696, 0.005),
    BenchmarkEntry(3, "C", 0.209005, "tangential", "wt", 0.1129, 0.005),
    BenchmarkEntry(3, "B", 2.01, "tangential", "wt", 0.10373, 0.005, note=_MISPRINT),
    BenchmarkEntry(3, "F", 2.01, "radial", "wt", 0.10188, 0.005, note=_MISPRINT),
    # -- criterion 4: radiative-rate minimum in the big nanoshell core, tol 2%
    BenchmarkEntry(4, "C", 0.199055, "tangential", "wrad", 0.0204, 0.02),
    # -- criterion 5: absorption rates for the big nanoshell, tol 3%
    BenchmarkEntry(5, "C", 0.0, "radial", "wohm", 0.2102, 0.03),
    BenchmarkEntry(5, "C", 0.228905, "tangential", "wohm", 0.086, 0.03, note=_LOWL),
    BenchmarkEntry(5, "C", 0.398060, "tangential", "wohm", 0.137, 0.03, note=_LOWL),
    BenchmarkEntry(5, "C", 0.567214, "tangential", "wohm", 0.047, 0.03, note=_LOWL),
    BenchmarkEntry(5, "C", 0.567214, "radial", "wohm", 0.044, 0.03, note=_LOWL),
    # -- criterion 6: orientation-averaged fluorescence yields
    BenchmarkEntry(6, "B", 0.0, "average", "yield", 0.694, 0.02),
    BenchmarkEntry(6, "C", 0.0, "average", "yield", 0.160, 0.02),
    BenchmarkEntry(6, "A", 2.0, "average", "yield", 0.93, 0.0, kind="lower_bound"),
    BenchmarkEntry(6, "B", 2.0, "average", "yield", 0.93, 0.0, kind="lower_bound"),
    BenchmarkEntry(6, "C", 2.0, "average", "yield", 0.93, 0.0, kind="lower_bound"),
    BenchmarkEntry(6, "E", 2.0, "average", "yield", 0.93, 0.0, kind="lower_bound"),
    BenchmarkEntry(6, "F", 2.0, "average", "yield", 0.93, 0.0, kind="lower_bound"),
)

@dataclass(frozen=True)
class BenchmarkResult:
    entry: BenchmarkEntry
    got: float
    passed: bool


def run(entries=ENTRIES, l_max=L_MAX):
    """Evaluate every entry; solves are shared per (preset, radius)."""
    cache = {}
    results = []
    for e in entries:
        key = (e.preset, e.r_over_rs)
        if key not in cache:
            sphere = model.preset(e.preset)
            cache[key] = spectro.evaluate_orientations(
                sphere, e.r_over_rs * sphere.outer_radius_nm, WAVELENGTH_NM, l_max
            )
        res = cache[key][e.orientation]
        got = float(getattr(res, model.QUANTITIES[e.quantity]))
        if e.kind == "lower_bound":
            passed = got > e.expected
        else:
            passed = abs(got - e.expected) <= e.rtol * abs(e.expected)
        results.append(BenchmarkResult(entry=e, got=got, passed=passed))
    return results


def format_results(results):
    lines = []
    n_pass = 0
    for r in results:
        e = r.entry
        status = "PASS" if r.passed else "FAIL"
        n_pass += r.passed
        rel = "lower bound" if e.kind == "lower_bound" else f"tol {e.rtol:.1%}"
        line = (
            f"[{status}] c{e.criterion} {e.preset} {e.quantity:5s} "
            f"r/rs={e.r_over_rs:<10.6g} {e.orientation:10s} "
            f"expected {e.expected:<12.6g} got {r.got:<14.8g} ({rel})"
        )
        if e.note and not r.passed:
            line += f"\n       note: {e.note}"
        lines.append(line)
    lines.append(f"{n_pass}/{len(results)} benchmark entries passed")
    return lines
