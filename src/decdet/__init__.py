"""Error exponents for decentralized detection networks with feedback.

A small numpy/scipy library for binary hypothesis testing over sensor
networks: quantizer design, Chernoff and rate-function machinery, optimal
asymptotic error exponents per architecture, exact finite-n error
probabilities by the method of types, Monte Carlo simulation, and an error
lower bound.  See the README for the architecture catalogue.
"""

from . import architectures, evaluator, exponents, model
from .architectures import *
from .evaluator import *
from .exponents import *
from .model import *

__version__ = "0.1.0"

# Each public name is listed once, in its own module's __all__.
__all__ = ["__version__"]
__all__ += model.__all__
__all__ += exponents.__all__
__all__ += architectures.__all__
__all__ += evaluator.__all__
