"""Spectral sparsification of weighted graphs over edge streams.

The pipeline: effective resistances give per-edge sampling probabilities,
an incremental resparsification step maintains N weighted copies per kept
edge as blocks arrive, and the verification instruments measure how far
the result sits from the reference projection. A seeded experiment
harness reruns the whole construction under many tape seeds and reports
event rates with exact binomial intervals.
"""

from . import graph, harness, resistance, sparsify, tape, verify
from .graph import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .resistance import *  # noqa: F401,F403
from .sparsify import *  # noqa: F401,F403
from .tape import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *graph.__all__,
    *harness.__all__,
    *resistance.__all__,
    *sparsify.__all__,
    *tape.__all__,
    *verify.__all__,
    "__version__",
]
