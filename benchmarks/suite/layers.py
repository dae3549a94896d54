"""The module -> layer table, and the fold of cProfile self time into it.

Every profiled function is charged to exactly one layer.  Functions in a
module the table names are charged to that layer; everything else
(builtins, ``dataclasses``, ``copy``, ``enum``, numpy, asyncio, threading)
is charged to the layers of its callers, split in proportion to the time
each caller edge accounts for, walking up until a named module is reached.
A frame with no named ancestor at all goes to the profile's root layer:
``bench`` for the harness process, ``service`` for the server child.
"""

from __future__ import annotations

import sysconfig
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Layer -> module prefixes.  A module belongs to the layer of its longest
#: matching prefix (``a.b`` matches ``a.b`` and ``a.b.*``), so the more
#: specific ``repro.service.store`` wins over ``repro.service``.  Package
#: ``__init__`` files keep their ``__init__`` segment, which is how the
#: top-level ``repro`` package is named without swallowing every module.
LAYERS: dict[str, tuple[str, ...]] = {
    "sim": ("repro.sim",),
    "sm": ("repro.sm",),
    "gpu": ("repro.gpu",),
    "memory": ("repro.memory",),
    "interconnect": ("repro.interconnect",),
    "workloads": ("repro.workloads", "repro.isa"),
    "dvfs": ("repro.dvfs",),
    "core": ("repro.core", "repro.power"),
    "roofline": ("repro.roofline",),
    "store": (
        "repro.experiments.results",
        "repro.service.store",
        "repro.service.keys",
        "repro.trace.manifest",
        "json",
    ),
    "service": ("repro.service",),
    "trace": ("repro.trace",),
    "experiments": (
        "repro.experiments",
        "repro.__init__",
        "repro.__main__",
        "repro.units",
        "repro.errors",
        "repro.cli",
        "repro.tools",
        "repro.microbench",
    ),
    "bench": ("benchmarks.suite",),
}

_STDLIB = Path(sysconfig.get_paths()["stdlib"]).resolve()
_SEARCH_ROOTS = (ROOT / "src", ROOT, _STDLIB)


def module_of(filename: str, funcname: str = "") -> str | None:
    """Dotted module name of a profiled code location, or ``None``.

    Builtins (filename ``~``) have no module, except the C half of ``json``,
    which is charged with the rest of ``json``.
    """
    if filename == "~":
        return "json" if "_json" in funcname else None
    path = Path(filename)
    if not path.is_absolute():
        path = ROOT / path
    for base in _SEARCH_ROOTS:
        try:
            relative = path.resolve().relative_to(base)
        except ValueError:
            continue
        if relative.suffix != ".py":
            return None
        return ".".join(relative.with_suffix("").parts)
    return None


def layer_of(module: str | None) -> str | None:
    """The layer owning ``module`` (longest prefix match), or ``None``."""
    if module is None:
        return None
    best, best_len = None, -1
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if (module == prefix or module.startswith(prefix + ".")) and len(
                prefix
            ) > best_len:
                best, best_len = layer, len(prefix)
    return best


def fold(stats: dict, root_layer: str) -> dict[str, float]:
    """Self seconds per layer from a pstats ``stats`` mapping.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    with ``callers`` mapping caller keys to ``(nc, cc, tt, ct)`` edges.
    Every layer of :data:`LAYERS` appears in the result, and the values sum
    to the profile's total self time.
    """
    owner = {key: layer_of(module_of(key[0], key[2])) for key in stats}
    memo: dict = {}

    def mix(edges: dict, index: int, visiting: frozenset) -> dict[str, float]:
        """Layer split over ``edges``, weighted by edge field ``index``.

        Edges back into the walk (recursion) are skipped: the callers
        outside the cycle decide where the time goes.  Empty when every
        caller lies on the cycle.
        """
        weights = {
            caller: edge[index] for caller, edge in edges.items()
            if caller not in visiting
        }
        if sum(weights.values()) <= 0.0:
            # Zero-duration edges: fall back to call counts.
            weights = {
                caller: edge[0] for caller, edge in edges.items()
                if caller not in visiting
            }
        shares: dict[str, float] = {}
        used = 0.0
        for caller, weight in weights.items():
            parts = inside(caller, visiting) if weight > 0 else {}
            if not parts:
                continue
            used += weight
            for layer, part in parts.items():
                shares[layer] = shares.get(layer, 0.0) + part * weight
        return {layer: value / used for layer, value in shares.items()}

    def inside(key, visiting: frozenset) -> dict[str, float]:
        """How time spent inside ``key``'s calls divides over layers."""
        if owner.get(key) is not None:
            return {owner[key]: 1.0}
        if key in memo:
            return memo[key]
        edges = stats[key][4] if key in stats else {}
        if not edges:
            return {root_layer: 1.0}
        shares = mix(edges, 3, visiting | {key})
        if shares:
            memo[key] = shares
        return shares

    totals = {layer: 0.0 for layer in LAYERS}
    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        if tt <= 0.0:
            continue
        if owner[key] is not None:
            totals[owner[key]] += tt
            continue
        shares = mix(callers, 2, frozenset({key})) or {root_layer: 1.0}
        for layer, part in shares.items():
            totals[layer] += tt * part
    return totals


def shares(totals: dict[str, float]) -> dict[str, float]:
    """Each layer's fraction of the profiled self time."""
    whole = sum(totals.values())
    if whole <= 0.0:
        return {layer: 0.0 for layer in totals}
    return {layer: seconds / whole for layer, seconds in totals.items()}


def call_count(stats: dict, module: str, funcname: str) -> int:
    """Calls of one named function, summed over profile entries."""
    return sum(
        value[1]
        for key, value in stats.items()
        if key[2] == funcname and module_of(key[0]) == module
    )
