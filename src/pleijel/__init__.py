"""Certified spectral constants on H-type groups R^(2n) x R^m.

Computes, with proven error enclosures: the Landau-level series c(n, m),
the sharp L^2 Sobolev constant, the Weyl eigenvalue-counting constant,
the nodal-domain (Pleijel) bound gamma_tilde and its rational truncation
bound gamma_bar, the Radon-Hurwitz admissibility classification of
(n, m), and explicit integer matrix families realising the groups.

Each library module lists its public names once, in its ``__all__``; the
package exports exactly those.
"""

from . import admissibility, constants, core, htype_algebra, monotonicity, numerics, series
from .admissibility import *  # noqa: F403
from .constants import *  # noqa: F403
from .core import *  # noqa: F403
from .htype_algebra import *  # noqa: F403
from .monotonicity import *  # noqa: F403
from .numerics import *  # noqa: F403
from .series import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*core.__all__, *admissibility.__all__, *numerics.__all__, *series.__all__,
           *constants.__all__, *monotonicity.__all__, *htype_algebra.__all__]
