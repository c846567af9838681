"""Grid-scan kernels: hand-checked minima, tie-breaks and argument checks."""

import math

import pytest

from orbitlab._kernels import nearest_distances, spiral_min_scan


class TestPythonBackend:
    def test_nearest_by_hand(self):
        dists, idxs = nearest_distances([0.0, 0.0], [3.0, 4.0, 1.0, 0.0], 2)
        assert dists == [1.0]
        assert idxs == [1]

    def test_tie_break_takes_first_index(self):
        _, idxs = nearest_distances([0.0, 0.0], [1.0, 0.0, 1.0, 0.0, -1.0, 0.0], 2)
        assert idxs == [0]

    def test_spiral_scan_hits_origin_parameter(self):
        idx, dist = spiral_min_scan(math.log(2.0), 1.0, 1.0, 0.0, -2.0, 0.125, 33)
        assert idx == 16  # s = 0 on the grid
        assert dist <= 1e-12

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            nearest_distances([0.0, 0.0], [], 2)
        with pytest.raises(ValueError):
            spiral_min_scan(0.5, 1.0, 0.0, 0.0, 0.0, 0.1, 0)

