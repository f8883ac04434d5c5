"""Tikhonov regularization with oversmoothing penalties over a Volterra scale.

The package re-exports each module's ``__all__``; a public name is declared
once, in the module that defines it.
"""

__version__ = "0.1.0"

from .grids import *
from .scale import *
from .fitting import *
from .lavrentiev import *
from .exp_volterra import *
from .tikhonov import *
from .harness import *

__all__ = [
    "__version__",
    *grids.__all__,
    *scale.__all__,
    *fitting.__all__,
    *lavrentiev.__all__,
    *exp_volterra.__all__,
    *tikhonov.__all__,
    *harness.__all__,
]
