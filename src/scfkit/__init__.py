"""Choose-one voting with abstentions: rules, axiom checkers, and exhaustive
search over the space of anonymous social choice functions."""

__version__ = "0.1.0"

from . import axioms, core, rules, search
from .core import *
from .rules import *
from .axioms import *
from .search import *

__all__ = ["__version__", *core.__all__, *rules.__all__, *axioms.__all__, *search.__all__]
