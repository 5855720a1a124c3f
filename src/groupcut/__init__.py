"""Exact arithmetic for cut-generating functions on finite cyclic groups and
the circle: construction, minimality certification, rearrangement, strength
criteria, and vertex enumeration of the minimal-function polytope.

Each public name is declared once, in its module's ``__all__``; the package
exports their union.  The command line (``groupcut.cli``) is not imported
here, so that importing the library does not load argparse."""

from . import (
    criteria,
    errors,
    experiments,
    finite_functions,
    group_core,
    polytope,
    rationals,
    torus,
)
from .criteria import *
from .errors import *
from .experiments import *
from .finite_functions import *
from .group_core import *
from .polytope import *
from .rationals import *
from .torus import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (
        criteria, errors, experiments, finite_functions,
        group_core, polytope, rationals, torus,
    )
    for name in module.__all__
]
