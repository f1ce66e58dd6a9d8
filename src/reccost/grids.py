"""Symmetric evaluation grids used by the defect, identity and certificate sweeps."""

import numpy as np

from .errors import DomainError

# intervals per side; it bounds the n x n sweeps, which tile [-2T, 2T] and so stop at 2^15
GRID_M_MAX = 2**16


def symmetric_grid(half_width: float, step: float) -> tuple[float, np.ndarray]:
    """Uniform inclusive grid on [-half_width, half_width] containing 0 and both endpoints.

    The step is adjusted to the nearest value that tiles the interval exactly;
    the adjusted step is returned so reports can echo the grid actually used.
    The grid is bitwise symmetric, which keeps evenness checks exact.
    """
    if not (half_width > 0 and np.isfinite(half_width)):
        raise DomainError(f"grid half-width must be positive and finite, got {half_width}")
    if not (0 < step <= half_width) or not np.isfinite(step):
        raise DomainError(f"grid step must satisfy 0 < step <= {half_width}, got {step}")
    if half_width / step > GRID_M_MAX + 0.5:
        raise DomainError(f"grid step {step} needs over {GRID_M_MAX} intervals on "
                          f"[0, {half_width}]")
    m = max(1, int(round(half_width / step)))
    right = np.linspace(0.0, half_width, m + 1)
    grid = np.concatenate([-right[:0:-1], right])
    return half_width / m, grid
