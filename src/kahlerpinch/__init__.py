"""Pointwise toolkit for pinched Kahler curvature tensors and Chern-form densities.

The package re-exports the public names (__all__) of its submodules space,
forms, curvature, pinching, chern and experiments, and the errors module.
"""

from . import chern, curvature, errors, experiments, forms, pinching, space
from .chern import *
from .curvature import *
from .experiments import *
from .forms import *
from .pinching import *
from .space import *

__version__ = "0.1.0"

__all__ = [
    *space.__all__,
    *forms.__all__,
    *curvature.__all__,
    *pinching.__all__,
    *chern.__all__,
    *experiments.__all__,
    "errors",
    "__version__",
]
