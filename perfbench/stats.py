"""Order statistics the benchmark reports, with their sample-size rules.

A timing is reported as a median and the highest percentile that still has
at least ten samples beyond it; :func:`percentile` refuses a percentile the
sample cannot support rather than reporting the maximum under a tail name.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_SAMPLES_BEYOND = 10


class SampleTooSmall(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` sorted samples lie beyond the ``q``-th percentile.

    Nearest-rank: the percentile is the sample at rank ``ceil(q/100 * n)``
    (1-based), so ``n - rank`` samples are larger than it.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100): {q}")
    return count - max(1, math.ceil(q / 100.0 * count))


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``values``.

    Raises :class:`SampleTooSmall` unless at least
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond it.
    """
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_SAMPLES_BEYOND:
        raise SampleTooSmall(
            f"p{q:g} of {len(values)} samples has {beyond} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    ordered = sorted(values)
    return ordered[len(values) - beyond - 1]


def windowed_percentile(values: Sequence[float], q: float, window: int) -> float:
    """Median over consecutive ``window``-sample chunks of each chunk's
    ``q``-th percentile (a trailing partial chunk is left out).

    A tail percentile of the whole run moves with the few seconds a shared
    host stalls; the median over windows reads the run's typical tail.
    """
    chunks = [
        values[start:start + window]
        for start in range(0, len(values) - window + 1, window)
    ]
    if not chunks:
        raise SampleTooSmall(f"{len(values)} samples fill no {window}-sample window")
    return statistics.median(percentile(chunk, q) for chunk in chunks)


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median and third quartile, as the acceptance check
    computes them (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        value = float(values[0])
        return [value, value, value]
    return statistics.quantiles(values, n=4)

