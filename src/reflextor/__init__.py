"""Exact graded commutative algebra over quotient rings.

Polynomial arithmetic over QQ or GF(p), Groebner bases for ideals and
free-module submodules, finitely presented graded modules with the
transpose / pushforward / Tor / Ext / depth toolbox, Serre-condition and
reflexivity verdicts, the Hochster-Huneke graph, and verification
pipelines replaying the worked hypersurface examples from the literature
on reflexivity of tensor products.
"""

__version__ = "0.1.0"

from .caps import Caps, CapExceeded, ComputationCancelled
from .fields import GF, QQ
from .orders import GREVLEX
from .parse import PolyParseError, parse_poly
from .poly import Poly, RingSignature
from .rings import QuotientRing, RIdeal, make_ring

__all__ = [
    "Caps",
    "CapExceeded",
    "ComputationCancelled",
    "GF",
    "QQ",
    "GREVLEX",
    "PolyParseError",
    "parse_poly",
    "Poly",
    "RingSignature",
    "QuotientRing",
    "RIdeal",
    "make_ring",
    "__version__",
]
