"""Grid-scan kernels behind the density and spiral searches.

Both kernels compare squared distances and take the first minimal index, and
evaluate each grid parameter as start + i*step (never by accumulation), so
results depend only on the inputs and the platform's libm.
"""

from __future__ import annotations

import math

BACKEND = "python"  # recorded in every perfbench/run.py result


def nearest_distances(grid, cloud, dim):
    """For each dim-dimensional point in the flat grid array, the distance to
    the nearest point in the flat cloud array and that point's index."""
    if dim <= 0:
        raise ValueError("dim must be positive")
    if len(grid) % dim or len(cloud) % dim:
        raise ValueError("flat arrays must have length divisible by dim")
    m = len(cloud) // dim
    if m == 0:
        raise ValueError("cloud is empty")
    g = len(grid) // dim
    dists = [0.0] * g
    idxs = [0] * g
    for i in range(g):
        base = i * dim
        best = math.inf
        best_j = 0
        for j in range(m):
            off = j * dim
            s = 0.0
            for d in range(dim):
                t = grid[base + d] - cloud[off + d]
                s += t * t
            if s < best:
                best = s
                best_j = j
        dists[i] = math.sqrt(best)
        idxs[i] = best_j
    return dists, idxs


def spiral_min_scan(log_base, angle_rate, target_re, target_im, s_start, step, count):
    """Minimize |base^s * exp(-i*s*rate) - target| over the s grid; returns
    (first minimal index, distance)."""
    if count <= 0:
        raise ValueError("count must be positive")
    best = math.inf
    best_i = 0
    for i in range(count):
        s = s_start + i * step
        m = math.exp(s * log_base)
        re = m * math.cos(s * angle_rate) - target_re
        im = -m * math.sin(s * angle_rate) - target_im
        d2 = re * re + im * im
        if d2 < best:
            best = d2
            best_i = i
    return best_i, math.sqrt(best)
