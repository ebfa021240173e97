"""Metric helpers: distribution statistics.

The paper reports utilization *distributions* (box plots in Fig. 7(a));
:class:`BoxStats` is the container those reports are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary plus mean, as drawn in a box plot."""

    minimum: float
    first_quartile: float
    median: float
    third_quartile: float
    maximum: float
    mean: float
    count: int

    @staticmethod
    def from_samples(samples: Sequence[float]) -> "BoxStats":
        if not samples:
            raise ValueError("cannot summarise an empty sample set")
        values = np.asarray(list(samples), dtype=np.float64)
        return BoxStats(
            minimum=float(values.min()),
            first_quartile=float(np.percentile(values, 25)),
            median=float(np.percentile(values, 50)),
            third_quartile=float(np.percentile(values, 75)),
            maximum=float(values.max()),
            mean=float(values.mean()),
            count=int(values.size),
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "min": self.minimum,
            "q1": self.first_quartile,
            "median": self.median,
            "q3": self.third_quartile,
            "max": self.maximum,
            "mean": self.mean,
            "count": self.count,
        }
