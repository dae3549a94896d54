"""Model-vs-measurement error reporting."""

import pytest

from repro.core.validation import ErrorReport, relative_error_percent
from repro.errors import ValidationError


class TestRelativeError:
    def test_signed(self):
        assert relative_error_percent(110.0, 100.0) == pytest.approx(10.0)
        assert relative_error_percent(90.0, 100.0) == pytest.approx(-10.0)

    def test_zero_measured_rejected(self):
        with pytest.raises(ValidationError):
            relative_error_percent(1.0, 0.0)


class TestErrorReport:
    def make_report(self) -> ErrorReport:
        report = ErrorReport()
        report.add("a", 105.0, 100.0)   # +5
        report.add("b", 90.0, 100.0)    # -10
        report.add("c", 140.0, 100.0)   # +40
        return report

    def test_mean_absolute_error(self):
        assert self.make_report().mean_absolute_error == pytest.approx(55 / 3)

    def test_outliers(self):
        outliers = self.make_report().outliers(threshold_percent=30.0)
        assert set(outliers) == {"c"}
        assert outliers["c"] == pytest.approx(40.0)

    def test_within_band(self):
        report = ErrorReport()
        report.add("x", 99.0, 100.0)
        report.add("y", 102.0, 100.0)
        assert report.within(-6.0, 2.5)
        report.add("z", 110.0, 100.0)
        assert not report.within(-6.0, 2.5)

    def test_duplicate_rejected(self):
        report = self.make_report()
        with pytest.raises(ValidationError):
            report.add("a", 1.0, 1.0)

    def test_empty_summaries_rejected(self):
        report = ErrorReport()
        with pytest.raises(ValidationError):
            _ = report.mean_absolute_error
