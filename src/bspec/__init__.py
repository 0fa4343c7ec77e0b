"""Finite kernel for directed spectra of function-topology spaces.

Everything in this package is exact and exhaustively checkable: carriers are
finite setoids, reals are rationals, and topology membership is witnessed by
finite derivation certificates rather than decided.

The most commonly used entry points are re-exported here; the modules hold
the full surface (setoid, order, families, topology, spectra, limits,
duality, dsl, runner, cli).
"""

from .report import KernelError
from .setoid import Setoid, SetoidFn, make_fn, make_setoid
from .order import CofinalSubset, DirectedIndex, chain, make_directed
from .families import (
    CONTRAVARIANT,
    COVARIANT,
    DirectFamily,
    make_direct_family,
)
from .topology import BSpace, RFun, space, validate_certificate
from .spectra import Spectrum, constant_spectrum, make_spectrum
from .limits import direct_limit, inverse_limit
from .dsl import elaborate, parse
from .runner import RunConfig, run_suite

__version__ = "0.1.0"

__all__ = [
    "BSpace",
    "CofinalSubset",
    "CONTRAVARIANT",
    "COVARIANT",
    "DirectFamily",
    "DirectedIndex",
    "KernelError",
    "RFun",
    "RunConfig",
    "Setoid",
    "SetoidFn",
    "Spectrum",
    "chain",
    "constant_spectrum",
    "direct_limit",
    "elaborate",
    "inverse_limit",
    "make_directed",
    "make_direct_family",
    "make_fn",
    "make_setoid",
    "make_spectrum",
    "parse",
    "run_suite",
    "space",
    "validate_certificate",
]
