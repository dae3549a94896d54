"""Modeled-vs-measured error statistics for GPUJoule validation.

Figure 4 reports signed relative errors per benchmark plus a suite-level
summary.  The paper quotes a "9.4 % mean absolute error" across the 18
applications; the errors and that summary are computed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ValidationError


def relative_error_percent(modeled_j: float, measured_j: float) -> float:
    """Signed relative error of the model vs the measurement, in percent.

    Positive means the model over-estimates.
    """
    if measured_j <= 0:
        raise ValidationError(f"measured energy must be positive, got {measured_j!r}")
    return (modeled_j - measured_j) / measured_j * 100.0


@dataclass
class ErrorReport:
    """Collects per-case errors and derives suite-level summaries."""

    cases: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, modeled_j: float, measured_j: float) -> float:
        """Record one case; returns its signed error in percent."""
        if name in self.cases:
            raise ValidationError(f"duplicate validation case {name!r}")
        error = relative_error_percent(modeled_j, measured_j)
        self.cases[name] = error
        return error

    @property
    def mean_absolute_error(self) -> float:
        """Mean of |error| across cases, in percent."""
        if not self.cases:
            raise ValidationError("no validation cases recorded")
        return sum(abs(error) for error in self.cases.values()) / len(self.cases)

    def outliers(self, threshold_percent: float = 30.0) -> dict[str, float]:
        """Cases whose |error| exceeds the threshold (Fig. 4b calls out >30 %)."""
        return {
            name: error
            for name, error in self.cases.items()
            if abs(error) > threshold_percent
        }

    def within(self, low_percent: float, high_percent: float) -> bool:
        """True when every signed error lies in [low, high] (Fig. 4a band)."""
        return all(
            low_percent <= error <= high_percent for error in self.cases.values()
        )
