"""Order statistics for timing samples."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100), interpolating linearly between order statistics."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


@dataclass(frozen=True)
class Timing:
    """Median and 90th percentile of a sample, with the counts behind them."""

    p50: float
    p90: float
    n: int
    beyond_p90: int  # samples strictly above p90

    @classmethod
    def of(cls, values: Sequence[float]) -> "Timing":
        p90 = percentile(values, 90.0)
        return cls(
            p50=percentile(values, 50.0),
            p90=p90,
            n=len(values),
            beyond_p90=sum(1 for v in values if v > p90),
        )


@dataclass(frozen=True)
class Figure:
    """One reported number, with what it rests on for the human-readable lines."""

    value: float
    unit: str
    samples: str = ""
