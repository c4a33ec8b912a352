"""Antipodal-free families of (0, +1, -1)-vectors: enumeration, exact
optimization, closed-form bounds, and mechanized certification of the
counting arguments behind them.  See the individual modules for the
mathematics; the `antipodal` console script exposes everything from the
command line.

The package namespace is the union of the modules' public names: each
module's `__all__`, and every exception class of `errors`."""

from .bounds import *
from .circle import *
from .constructions import *
from .errors import *
from .familyfile import *
from .search import *
from .setfamilies import *
from .theorem1 import *
from .vectors import *

__version__ = "0.1.0"
