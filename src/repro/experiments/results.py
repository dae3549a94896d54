"""Result records shared by the experiment drivers.

A :class:`RunRecord` is the cached essence of one (workload, configuration)
simulation: the counters the energy model needs plus timing.  Records are
JSON-serializable so sweeps persist across processes and bench invocations —
and, crucially, they can be *re-priced* under different energy assumptions
(link pJ/bit, amortization) without re-simulating, which is exactly how the
paper's Section V-C point studies work.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.core.edpse import ScalingPoint
from repro.core.energy_model import EnergyBreakdown, EnergyModel, EnergyParams
from repro.gpu.counters import CounterSet
from repro.isa.opcodes import Opcode


#: CounterSet field names in declaration order: the keys, in order, of a
#: counters payload.
_COUNTER_FIELDS = tuple(f.name for f in fields(CounterSet))

#: Opcode by value: a dict lookup per instruction-mix entry instead of an
#: ``Opcode(name)`` enum call.  An unknown name is a ``KeyError``, which a
#: store read treats as an unreadable entry.
_OPCODE_BY_VALUE = {opcode.value: opcode for opcode in Opcode}


def _counters_to_json(counters: CounterSet) -> dict:
    """JSON-ify one CounterSet (opcodes by value), recursively covering the
    per-GPM shards.

    Same keys, order and values as ``asdict`` would give, without its
    recursive deep copy.
    """
    raw = {name: getattr(counters, name) for name in _COUNTER_FIELDS}
    raw["instructions"] = {
        opcode.value: count for opcode, count in counters.instructions.items()
    }
    raw["per_gpm"] = [_counters_to_json(shard) for shard in counters.per_gpm]
    return raw


def _counters_from_json(raw: dict) -> CounterSet:
    """Rebuild a CounterSet (and its shards) from its JSON form."""
    raw = dict(raw)
    raw["instructions"] = {
        _OPCODE_BY_VALUE[name]: count
        for name, count in raw["instructions"].items()
    }
    raw["per_gpm"] = tuple(
        _counters_from_json(shard) for shard in raw.get("per_gpm", ())
    )
    return CounterSet(**raw)


@dataclass
class RunRecord:
    """One simulation outcome, detached from live simulator objects."""

    workload: str
    category: str
    config_label: str
    num_gpms: int
    seconds: float
    counters: CounterSet
    #: Exact MetricsRegistry state (``MetricsRegistry.to_json()``) captured by
    #: the simulating worker; ``None`` for records cached before the
    #: observability layer existed.
    metrics: dict | None = None
    #: Per-domain operating-point residency (``DvfsResidency.to_json()``);
    #: ``None`` for records cached before residency accounting existed.
    residency: dict | None = None

    def energy(self, params: EnergyParams) -> EnergyBreakdown:
        """Price this run under the given energy parameters."""
        return EnergyModel(params).evaluate(self.counters, self.seconds)

    def scaling_point(self, params: EnergyParams) -> ScalingPoint:
        """(n, delay, energy) under the given pricing."""
        return ScalingPoint(
            n=self.num_gpms,
            delay_s=self.seconds,
            energy_j=self.energy(params).total,
        )

    # ------------------------------------------------------------ serialization

    def to_json(self) -> dict:
        """Serialize to plain JSON data (opcodes by value).

        ``metrics`` and ``residency`` are shared with the record, not
        copied: both are plain JSON data that nothing mutates.  ``counters``
        comes last, so cached records keep their bytes.
        """
        return {
            "workload": self.workload,
            "category": self.category,
            "config_label": self.config_label,
            "num_gpms": self.num_gpms,
            "seconds": self.seconds,
            "metrics": self.metrics,
            "residency": self.residency,
            "counters": _counters_to_json(self.counters),
        }

    @classmethod
    def from_json(cls, data: dict) -> "RunRecord":
        counters = _counters_from_json(data["counters"])
        return cls(
            workload=data["workload"],
            category=data["category"],
            config_label=data["config_label"],
            num_gpms=data["num_gpms"],
            seconds=data["seconds"],
            counters=counters,
            metrics=data.get("metrics"),
            residency=data.get("residency"),
        )


@dataclass
class ScalingRow:
    """One row of a per-GPM-count summary (a figure's x-axis point)."""

    num_gpms: int
    label: str
    values: dict[str, float] = field(default_factory=dict)

    def __getitem__(self, key: str) -> float:
        return self.values[key]
