"""Matrix-free spectral solver and simulator for the planar
multiplier-transport model w_t = (Z11 w) w.

The package constructs the singular self-similar profile Q by solving the
restricted multiplier equation Z11 Q = 1 on a bounded set with conjugate
gradient, verifies the profile identity (Z11 Q) Q = Q, and integrates the
model in time to observe self-similar and generic finite-time blow-up.

The package republishes each module's ``__all__``, which is the one list
of that module's public names.
"""

from . import config, diagnostics, evolution, fieldio, profile, shapes, spectral
from .config import *  # noqa: F403
from .diagnostics import *  # noqa: F403
from .evolution import *  # noqa: F403
from .fieldio import *  # noqa: F403
from .profile import *  # noqa: F403
from .shapes import *  # noqa: F403
from .spectral import *  # noqa: F403

# Public in fieldio only so that the benchmark's tracer can wrap it.
del atomic_write_bytes  # noqa: F821

__version__ = "0.1.0"

__all__ = [
    name
    for module in (config, diagnostics, evolution, fieldio, profile, shapes, spectral)
    for name in module.__all__
    if name != "atomic_write_bytes"
]
