"""Decay rates, frequency shifts, fluorescence yield and photostability of a
dipole emitter at any radial position inside or outside a stratified sphere.

Quick start::

    from nanoshell import model, spectro

    sphere = model.preset("A")
    dipole = model.DipoleSource(40.0, "radial", 595.0)
    result = spectro.evaluate(sphere, dipole)
    print(result.wt_norm, result.fluorescence_yield)

``nanoshell.benchmarks``, the paper's benchmark table, is imported on first
access, so a process that never reads it does not pay for building it.
"""

import importlib

from . import materials, model, spectro, specfun, sweep, transfer
from .errors import (
    ConfigError,
    DegenerateSystemError,
    DomainError,
    GeometryError,
    MaterialRangeError,
    NanoshellError,
    RangeError,
)
from .model import DipoleSource, SpectroResult, StratifiedSphere, build_sphere, preset
from .spectro import evaluate, evaluate_orientations

__all__ = [
    "ConfigError",
    "DegenerateSystemError",
    "DipoleSource",
    "DomainError",
    "GeometryError",
    "MaterialRangeError",
    "NanoshellError",
    "RangeError",
    "SpectroResult",
    "StratifiedSphere",
    "benchmarks",
    "build_sphere",
    "evaluate",
    "evaluate_orientations",
    "materials",
    "model",
    "preset",
    "specfun",
    "spectro",
    "sweep",
    "transfer",
]

__version__ = "0.1.0"


def __getattr__(name):
    # import_module, not `from . import benchmarks`: that looks the name up
    # on this package first, which calls back into this hook
    if name == "benchmarks":
        return importlib.import_module(".benchmarks", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
