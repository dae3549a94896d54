"""Per-GPM DVFS: operating points, clock domains, governors, sweet spots.

The subsystem opens the V/f axis the paper holds fixed: validated
:class:`VfCurve` tables anchored at the K40 boost point, a
:class:`DvfsConfig` threading per-domain (core / DRAM / interconnect)
operating points through the timing and energy layers, the
:class:`Governor` policies a configuration's power cap or idle governor
kind selects (:func:`repro.dvfs.idle.governor_for`), and the offline
sweet-spot search in :mod:`repro.dvfs.sweetspot` (imported lazily there —
it pulls in the sweep runner, which this package root must not).

See ``docs/POWER.md`` for the scaling model and usage.
"""

from repro.dvfs.config import (
    ClockDomain,
    DomainScales,
    DvfsConfig,
    IDENTITY_SCALES,
)
from repro.dvfs.governor import (
    DEFAULT_GPM_ANCHOR_WATTS,
    Governor,
    GovernorDecision,
    GpmObservation,
    GpmPowerModel,
    PowerCapGovernor,
    UtilizationGovernor,
)
from repro.dvfs.operating_point import (
    K40_OPERATING_POINT,
    K40_VF_CURVE,
    OperatingPoint,
    VfCurve,
)
from repro.dvfs.residency import DvfsResidency, ResidencyHistogram

__all__ = [
    "ClockDomain",
    "DEFAULT_GPM_ANCHOR_WATTS",
    "DomainScales",
    "DvfsConfig",
    "DvfsResidency",
    "Governor",
    "GovernorDecision",
    "GpmObservation",
    "GpmPowerModel",
    "IDENTITY_SCALES",
    "K40_OPERATING_POINT",
    "K40_VF_CURVE",
    "OperatingPoint",
    "PowerCapGovernor",
    "ResidencyHistogram",
    "UtilizationGovernor",
    "VfCurve",
]
