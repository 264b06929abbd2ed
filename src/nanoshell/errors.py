"""Exception taxonomy.

The CLI maps these onto exit codes: configuration and geometry problems
exit 2, material-range problems exit 3, numerical failures exit 4.
"""


class NanoshellError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(NanoshellError):
    """Input outside the mathematical domain of an operation."""


class RangeError(NanoshellError):
    """Result not representable: overflow at extreme order/argument ratios,
    or a wavelength outside a dispersion table."""


class MaterialRangeError(RangeError):
    """Wavelength outside a material model's validity range."""


class GeometryError(NanoshellError):
    """Invalid sphere/dipole geometry (non-monotone radii, dipole on an
    interface, dipole inside an absorbing region, ...)."""


class ConfigError(NanoshellError):
    """Malformed sweep configuration."""


class DegenerateSystemError(NanoshellError):
    """Singular 2x2 interface matching system for some (l, polarization)."""

    def __init__(self, l, pol, detail=""):
        self.l = l
        self.pol = pol
        self.detail = detail
        msg = f"degenerate interface system at l={l}, pol={pol}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)

    # the instance dict carries any notes across a process pool
    def __reduce__(self):
        return (type(self), (self.l, self.pol, self.detail), self.__dict__)


def at_row(exc, r_nm, wavelength_nm):
    """``exc`` with a note (3.10-safe add_note) naming the row (r_nm [nm],
    wavelength [nm]) that failed."""
    note = f"while evaluating row r={r_nm:.6g} nm, lambda={wavelength_nm:.6g} nm"
    if hasattr(exc, "add_note"):
        exc.add_note(note)
    elif exc.args:
        exc.args = (f"{exc.args[0]} [{note}]",) + exc.args[1:]
    else:
        exc.args = (note,)
    return exc
