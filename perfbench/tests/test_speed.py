import pytest

from speed import REFERENCE_S, reference_seconds, scale


def test_scale_brings_a_sample_to_reference_speed():
    assert scale(REFERENCE_S, REFERENCE_S) == pytest.approx(1.0)
    # Timed while the kernel took twice as long: the host ran at half speed.
    assert scale(2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(0.5)
    # A speed change during the sample counts half from each side.
    assert scale(REFERENCE_S, 3 * REFERENCE_S) == pytest.approx(0.5)


def test_reference_reading_is_the_fastest_repeat():
    ticks = iter([0.0, 3.0, 10.0, 11.0, 20.0, 22.0])
    assert reference_seconds(lambda: next(ticks)) == 1.0
