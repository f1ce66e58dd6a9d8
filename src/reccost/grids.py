"""Symmetric evaluation grids used by the defect, identity and certificate sweeps.

``grid_intervals`` is the numpy-free rule that checks a grid's half-width and
step, so the CLI can refuse a bad grid before numpy loads.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

# intervals per side; it bounds the n x n sweeps, which tile [-2T, 2T] and so stop at 2^15
GRID_M_MAX = 2**16


def grid_intervals(half_width: float, step: float) -> int:
    """The number m of intervals on [0, half_width] for the requested step.

    The step is adjusted to half_width / m, the nearest value that tiles the
    interval exactly.
    """
    if not (half_width > 0 and math.isfinite(half_width)):
        raise DomainError(f"grid half-width must be positive and finite, got {half_width}")
    if not (0 < step <= half_width) or not math.isfinite(step):
        raise DomainError(f"grid step must satisfy 0 < step <= {half_width}, got {step}")
    if half_width / step > GRID_M_MAX + 0.5:
        raise DomainError(f"grid step {step} needs over {GRID_M_MAX} intervals on "
                          f"[0, {half_width}]")
    return max(1, int(round(half_width / step)))


def symmetric_grid(half_width: float, step: float) -> tuple[float, np.ndarray]:
    """Uniform inclusive grid on [-half_width, half_width] containing 0 and both endpoints.

    The step is adjusted as in ``grid_intervals``; the adjusted step is
    returned so reports can echo the grid actually used.  The grid is bitwise
    symmetric, which keeps evenness checks exact.
    """
    import numpy as np

    m = grid_intervals(half_width, step)
    right = np.linspace(0.0, half_width, m + 1)
    grid = np.concatenate([-right[:0:-1], right])
    return half_width / m, grid
