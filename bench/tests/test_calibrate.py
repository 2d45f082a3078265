"""Self-tests of the host-speed scaling.

    python3 -m pytest -q bench/tests
"""

import pytest

from calibrate import NEAREST, REF_KERNEL_S, WINDOW_S, Calibrator


def _calibrator(points):
    cal = Calibrator()
    for at, seconds in points:
        cal.at.append(at)
        cal.seconds.append(seconds)
    return cal


def test_scale_uses_the_kernel_times_in_the_window():
    # A slow spell around t = 100: ops there are scaled down by its kernel times.
    fast = [(float(t), REF_KERNEL_S) for t in range(50)]
    slow = [(100 + t / 10, 2 * REF_KERNEL_S) for t in range(-10, 11)]
    cal = _calibrator(fast + slow)
    assert cal.scale(100.0) == pytest.approx(0.5)
    assert cal.scale(25.0) == pytest.approx(1.0)


def test_scale_falls_back_to_the_nearest_kernel_times():
    cal = _calibrator([(t * 10 * WINDOW_S, REF_KERNEL_S * (1 + t)) for t in range(3 * NEAREST)])
    # No kernel time within the window of t = -1000: the first NEAREST count.
    expected = REF_KERNEL_S / (REF_KERNEL_S * (1 + NEAREST // 2))
    assert cal.scale(-1000.0) == pytest.approx(expected)
