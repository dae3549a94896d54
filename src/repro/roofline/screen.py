"""Grid screening: score every candidate analytically, simulate the top-k.

The screen is a *filter*, never a substitute: the selected candidates go
through the unmodified simulation path with the unmodified configurations,
so every simulated result and every cache key is bit-identical to what the
exhaustive sweep would have produced for the same points.  The only thing
screening changes is which points get simulated at all — and the
:class:`ScreenDisposition` records exactly that choice, so a manifest reader
can tell a screened sweep's gaps from missing data.

Ranking goes through :mod:`repro.dvfs.selection`, the same deterministic
tie-break the exact search uses, so "top-k plus guard" is well defined even
when predictions tie.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dvfs.config import ClockDomain
from repro.dvfs.operating_point import K40_VF_CURVE, OperatingPoint, VfCurve
from repro.dvfs.selection import top_candidates
from repro.errors import ExperimentError
from repro.gpu.config import GpuConfig
from repro.workloads.spec import WorkloadSpec

#: Screen modes the sweep layers accept (``None`` meaning exact/exhaustive).
SCREEN_MODES = ("roofline",)


def validate_screen(screen: str | None) -> str | None:
    """Normalize and validate a ``screen=`` argument (None passes through)."""
    if screen is None:
        return None
    if screen not in SCREEN_MODES:
        raise ExperimentError(
            f"screen mode must be one of {SCREEN_MODES} or None, got {screen!r}"
        )
    return screen


@dataclass(frozen=True)
class ScreenEntry:
    """One analytically scored grid candidate."""

    label: str
    frequency_hz: float
    predicted_score: float
    #: The roofline bound that set the predicted delay.
    bound: str
    #: True when the screen selected this candidate for simulation.
    simulated: bool

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "frequency_hz": self.frequency_hz,
            "predicted_score": self.predicted_score,
            "bound": self.bound,
            "simulated": self.simulated,
        }


@dataclass(frozen=True)
class ScreenDisposition:
    """Which grid points a screened sweep simulated, and why.

    ``entries`` is ordered by predicted rank (best first), so the first
    ``simulated_points`` entries are exactly the simulated set.  When the
    roofline model does not cover the run (``fallback`` is set), the screen
    degrades to exhaustive: every point is simulated, nothing is scored,
    and the reason is recorded.
    """

    mode: str
    metric: str
    top_k: int
    guard: int
    entries: tuple[ScreenEntry, ...]
    #: Why screening was skipped (``None`` when the screen actually ranked):
    #: ``"idle"`` — idle states configured, but idle goldens are excluded
    #: from the roofline calibration; ``"phase-schedule"`` — the workload
    #: has a phase schedule the closed-form counter model cannot represent.
    fallback: str | None = None

    @property
    def scored_points(self) -> int:
        return len(self.entries)

    @property
    def simulated_points(self) -> int:
        return sum(1 for entry in self.entries if entry.simulated)

    @property
    def skipped_points(self) -> int:
        return self.scored_points - self.simulated_points

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "metric": self.metric,
            "top_k": self.top_k,
            "guard": self.guard,
            "scored_points": self.scored_points,
            "simulated_points": self.simulated_points,
            # Only present on fallback runs, so screened manifests written
            # before this field existed parse (and serialize) identically.
            **({} if self.fallback is None else {"fallback": self.fallback}),
            "entries": [entry.to_json() for entry in self.entries],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ScreenDisposition":
        return cls(
            mode=data["mode"],
            metric=data["metric"],
            top_k=data["top_k"],
            guard=data["guard"],
            fallback=data.get("fallback"),
            entries=tuple(
                ScreenEntry(
                    label=entry["label"],
                    frequency_hz=entry["frequency_hz"],
                    predicted_score=entry["predicted_score"],
                    bound=entry.get("bound", ""),
                    simulated=entry["simulated"],
                )
                for entry in data["entries"]
            ),
        )


def screen_fallback_reason(spec: WorkloadSpec, config: GpuConfig) -> str | None:
    """Why the roofline screen must not prune this (spec, config) — or None.

    The calibration excludes the idle goldens (sleep-state pricing is not in
    the closed-form model), and phase-scheduled workloads have per-kernel
    instruction mixes the expectation-counter model cannot represent.  In
    either case a screened sweep silently pruning on garbage scores would be
    a correctness bug, so the screen degrades to exhaustive instead.
    """
    if config.idle is not None:
        return "idle"
    if spec.phases is not None:
        return "phase-schedule"
    return None


def screen_operating_points(
    predictor,
    spec: WorkloadSpec,
    config: GpuConfig,
    points: tuple[OperatingPoint, ...],
    curve: VfCurve = K40_VF_CURVE,
    domain: ClockDomain = ClockDomain.CORE,
    metric: str = "edp",
    top_k: int = 3,
    guard: int = 1,
    expand=None,
) -> tuple[tuple[OperatingPoint, ...], ScreenDisposition]:
    """Rank ``points`` analytically; select the top ``top_k + guard``.

    Returns the selected points in *grid order* (so the caller's simulation
    pairs enumerate identically to an exhaustive sweep restricted to those
    points) plus the full ranked disposition.

    ``expand`` maps a point to the pointed :class:`GpuConfig` that would be
    simulated for it; it MUST be the same expansion the caller's exact path
    uses, so the screened subset shares the exact path's cache keys.  The
    default is :func:`~repro.dvfs.sweetspot.with_operating_point` on
    ``domain`` (the sweet-spot search's expansion).
    """
    if expand is None:
        from repro.dvfs.sweetspot import with_operating_point

        def expand(point):
            return with_operating_point(config, point, curve, domain=domain)

    if top_k < 1:
        raise ExperimentError(f"screen top-k must be >= 1, got {top_k}")
    if guard < 0:
        raise ExperimentError(f"screen guard must be >= 0, got {guard}")

    reason = screen_fallback_reason(spec, config)
    if reason is not None:
        entries = tuple(
            ScreenEntry(
                label=point.label(),
                frequency_hz=point.frequency_hz,
                predicted_score=0.0,
                bound="",
                simulated=True,
            )
            for point in points
        )
        disposition = ScreenDisposition(
            mode="roofline",
            metric=metric,
            top_k=top_k,
            guard=guard,
            entries=entries,
            fallback=reason,
        )
        return tuple(points), disposition

    predictions = {
        point: predictor.predict(spec, expand(point)) for point in points
    }
    budget = min(len(points), top_k + guard)
    ranked = top_candidates(
        list(points),
        len(points),
        score=lambda point: predictions[point].score(metric),
        tie_key=lambda point: (point.frequency_hz, point.label()),
    )
    selected = set(ranked[:budget])
    entries = tuple(
        ScreenEntry(
            label=point.label(),
            frequency_hz=point.frequency_hz,
            predicted_score=predictions[point].score(metric),
            bound=predictions[point].bound,
            simulated=point in selected,
        )
        for point in ranked
    )
    disposition = ScreenDisposition(
        mode="roofline",
        metric=metric,
        top_k=top_k,
        guard=guard,
        entries=entries,
    )
    chosen = tuple(point for point in points if point in selected)
    return chosen, disposition
