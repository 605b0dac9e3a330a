"""Analysis and simulation toolkit for observer-based servo loops.

The package re-exports every module's public names: its ``__all__`` is the
union of the modules' own ``__all__`` lists.
"""

from . import analysis, discretize, loops, lti, params, sim
from .analysis import *  # noqa: F403
from .discretize import *  # noqa: F403
from .loops import *  # noqa: F403
from .lti import *  # noqa: F403
from .params import *  # noqa: F403
from .sim import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for mod in (params, lti, discretize, loops, analysis, sim) for name in mod.__all__
]
