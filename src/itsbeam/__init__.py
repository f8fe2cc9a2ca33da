"""itsbeam: multi-user MIMO downlink beamforming through a transmissive surface.

A small active array illuminates a large passive surface whose elements apply
unit-modulus phase shifts; the surface, not the array, forms the beams toward
the users.  The package provides

* ``model``     the frozen problem instance and SINR / sum-rate / power ops;
* ``geometry``  array layouts, the cosine-power element pattern and the
  antenna-to-surface transfer matrix for full / partial / separate
  illumination;
* ``channel``   clustered stochastic surface-to-user channels with a
  log-distance pathloss law, plus the direct channel of the no-surface
  baseline;
* ``wmmse``     the block-coordinate solver (FP surrogate, gradient ascent on
  the unit circle for the phases, water-level dual for the precoder);
* ``zfwf``      the closed-form phase-alignment + zero-forcing +
  water-filling baseline;
* ``harness``   seeded Monte Carlo sweeps with deterministic CSV output.

See the README for the experiment CLI (``itsbeam sweep | solve | selfcheck``)
and the YAML configuration schema.
"""

from . import errors, model, geometry, channel, wmmse, zfwf, harness, config
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .geometry import *  # noqa: F403
from .channel import *  # noqa: F403
from .wmmse import *  # noqa: F403
from .zfwf import *  # noqa: F403
from .harness import *  # noqa: F403
from .config import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (errors, model, geometry, channel, wmmse, zfwf, harness, config)
__all__ = [name for module in _MODULES for name in module.__all__]
