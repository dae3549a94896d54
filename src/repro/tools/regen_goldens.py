"""Regenerate the golden-counter snapshots guarding simulator semantics.

The golden suite (``tests/regression/test_golden_counters.py``) pins the full
:class:`~repro.gpu.counters.CounterSet` of two tiny deterministic workloads on
a 1-GPM and a 4-GPM-ring configuration.  Any change to instruction counting,
cache behaviour, NUMA routing, or timing shows up as a golden diff.

If a diff is *intended* (you changed simulator semantics on purpose):

1. bump ``RESULTS_VERSION`` in ``repro/experiments/runner.py`` so stale sweep
   caches are invalidated, then
2. regenerate the snapshots::

       PYTHONPATH=src python -m repro.tools.regen_goldens

and commit the updated JSON along with the change that caused it.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

from repro.core.energy_model import EnergyParams
from repro.dvfs.config import DvfsConfig
from repro.dvfs.idle import IdleConfig
from repro.dvfs.operating_point import K40_VF_CURVE
from repro.experiments.runner import RESULTS_VERSION
from repro.gpu.config import (
    GpmConfig,
    GpuConfig,
    IntegrationDomain,
    InterconnectConfig,
    TopologyKind,
)
from repro.gpu.counters import CounterSet
from repro.gpu.simulator import simulate
from repro.isa.kernel import WorkloadCategory
from repro.isa.opcodes import Opcode
from repro.units import KIB
from repro.workloads.generator import build_workload
from repro.workloads.spec import PhaseSpec, WorkloadSpec

#: Where the checked-in snapshots live.
GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "regression" / "goldens"

#: Relative tolerance for float counters (cycle totals); integer counters
#: must match exactly.
FLOAT_RTOL = 1e-9


def _golden_gpm() -> GpmConfig:
    return GpmConfig(num_sms=2, slots_per_sm=2)


#: Two deterministic micro-workloads: a streaming one (local traffic only
#: under first touch) and a sharing-heavy one that exercises the NUMA path.
GOLDEN_SPECS: dict[str, WorkloadSpec] = {
    "stream-micro": WorkloadSpec(
        name="Golden Stream", abbr="stream-micro",
        category=WorkloadCategory.MEMORY,
        total_ctas=32, warps_per_cta=2, kernels=2, segments_per_warp=4,
        compute_per_segment=4, accesses_per_segment=2,
        compute_mix={Opcode.FFMA32: 0.7, Opcode.FADD32: 0.3},
        footprint_bytes=512 * KIB, shared_footprint_bytes=64 * KIB,
        hot_block_bytes=2 * KIB,
        frac_stream=0.8, frac_reuse=0.2, frac_halo=0.0, frac_shared=0.0,
        store_fraction=0.25, seed=7,
    ),
    "shared-micro": WorkloadSpec(
        name="Golden Shared", abbr="shared-micro",
        category=WorkloadCategory.MEMORY,
        total_ctas=32, warps_per_cta=2, kernels=2, segments_per_warp=4,
        compute_per_segment=2, accesses_per_segment=3,
        compute_mix={Opcode.FFMA32: 0.5, Opcode.FMUL64: 0.5},
        footprint_bytes=512 * KIB, shared_footprint_bytes=128 * KIB,
        hot_block_bytes=2 * KIB, shared_mem_fraction=0.1,
        frac_stream=0.4, frac_reuse=0.1, frac_halo=0.2, frac_shared=0.3,
        store_fraction=0.3, seed=11,
    ),
    # A bursty straggler grid: 33 CTAs over 8 four-slot GPMs split
    # [5,4,...,4], so one module runs a second wave while seven sit in a
    # kernel-boundary gap long enough to clock-gate — the shape that makes
    # the idle golden below actually sleep (TestGoldenCoverage pins it).
    "bursty-micro": WorkloadSpec(
        name="Golden Bursty", abbr="bursty-micro",
        category=WorkloadCategory.MEMORY,
        total_ctas=33, warps_per_cta=2, kernels=6, segments_per_warp=4,
        compute_per_segment=4, accesses_per_segment=2,
        compute_mix={Opcode.FFMA32: 0.7, Opcode.FADD32: 0.3},
        footprint_bytes=512 * KIB, shared_footprint_bytes=64 * KIB,
        hot_block_bytes=2 * KIB,
        frac_stream=0.8, frac_reuse=0.2, frac_halo=0.0, frac_shared=0.0,
        store_fraction=0.25, seed=13,
    ),
    # A phase-scheduled prefill/decode pair: the LLM-serving shape in
    # miniature.  The compute-dense prefill phase runs wide (32 CTAs), the
    # decode phase runs a 9-CTA straggler wave streaming the interleaved
    # shared region — pinning the per-kernel effective-spec generation and
    # the phased cache-key path end to end.
    "llm-micro": WorkloadSpec(
        name="Golden LLM", abbr="llm-micro",
        category=WorkloadCategory.MEMORY,
        total_ctas=32, warps_per_cta=2, segments_per_warp=4,
        footprint_bytes=512 * KIB, shared_footprint_bytes=64 * KIB,
        hot_block_bytes=2 * KIB,
        phases=(
            PhaseSpec(
                name="prefill", kernels=2,
                compute_per_segment=8, accesses_per_segment=1,
                compute_mix={Opcode.FFMA32: 0.8, Opcode.IMAD32: 0.2},
                frac_stream=0.8, frac_reuse=0.1, frac_halo=0.0,
                frac_shared=0.1, store_fraction=0.15,
            ),
            PhaseSpec(
                name="decode", kernels=3, total_ctas=9,
                compute_per_segment=1, accesses_per_segment=4,
                compute_mix={Opcode.IMAD32: 0.6, Opcode.FFMA32: 0.4},
                frac_stream=0.15, frac_reuse=0.1, frac_halo=0.0,
                frac_shared=0.75, store_fraction=0.05, seed_offset=1,
            ),
        ),
        seed=17,
    ),
}

def _golden_interconnect() -> InterconnectConfig:
    return InterconnectConfig(
        kind=TopologyKind.RING,
        per_gpm_bandwidth_gbps=256.0,
        link_latency_cycles=15.0,
        energy_pj_per_bit=0.54,
    )


GOLDEN_CONFIGS: dict[str, GpuConfig] = {
    "1gpm": GpuConfig(gpm=_golden_gpm(), num_gpms=1, name="golden-1gpm"),
    "4gpm-ring": GpuConfig(
        gpm=_golden_gpm(),
        num_gpms=4,
        interconnect=_golden_interconnect(),
        integration_domain=IntegrationDomain.ON_PACKAGE,
        name="golden-4gpm-ring",
    ),
    # A power-capped run: pins the PowerCapGovernor's waterfilling walk and
    # the per-GPM core residency it leaves behind (150 W of a 250 W nominal).
    "4gpm-cap": GpuConfig(
        gpm=_golden_gpm(),
        num_gpms=4,
        interconnect=_golden_interconnect(),
        integration_domain=IntegrationDomain.ON_PACKAGE,
        power_cap_watts=150.0,
        name="golden-4gpm-cap",
    ),
    # A multi-domain static DVFS run: every clock domain off the anchor at
    # once (core below, interconnect above), pinning the cross-domain
    # timing-scale plumbing.
    "4gpm-multidomain": GpuConfig(
        gpm=_golden_gpm(),
        num_gpms=4,
        interconnect=_golden_interconnect(),
        integration_domain=IntegrationDomain.ON_PACKAGE,
        dvfs=DvfsConfig(
            core=K40_VF_CURVE.point_at(614.0e6),
            dram=K40_VF_CURVE.point_at(562.0e6),
            interconnect=K40_VF_CURVE.point_at(810.0e6),
        ),
        name="golden-4gpm-multidomain",
    ),
    # A mixed-clock static DVFS run: each GPM's core domain at a different
    # ladder point spanning below and above the anchor, pinning the per-GPM
    # energy attribution (Σ_g scale_g · shard_g) against regressions.
    "4gpm-mixedclock": GpuConfig(
        gpm=_golden_gpm(),
        num_gpms=4,
        interconnect=_golden_interconnect(),
        integration_domain=IntegrationDomain.ON_PACKAGE,
        dvfs=DvfsConfig(
            core_per_gpm=(
                K40_VF_CURVE.point_at(324.0e6),
                K40_VF_CURVE.point_at(562.0e6),
                K40_VF_CURVE.point_at(745.0e6),
                K40_VF_CURVE.point_at(875.0e6),
            ),
        ),
        name="golden-4gpm-mixedclock",
    ),
    # An idle-enabled run under the race-to-idle governor: pins the sleep
    # ladder's entry/exit accounting, the sleep buckets in the residency
    # snapshot, and the residual-priced per-GPM energy.
    "8gpm-idle": GpuConfig(
        gpm=_golden_gpm(),
        num_gpms=8,
        interconnect=_golden_interconnect(),
        integration_domain=IntegrationDomain.ON_PACKAGE,
        idle=IdleConfig(governor="race-to-idle"),
        name="golden-8gpm-idle",
    ),
}


def counters_to_json(counters: CounterSet) -> dict:
    """Canonical JSON form of a CounterSet (opcodes by value, sorted)."""
    return {
        "instructions": {
            opcode.value: count
            for opcode, count in sorted(
                counters.instructions.items(), key=lambda item: item[0].value
            )
        },
        "shared_rf_txns": counters.shared_rf_txns,
        "l1_rf_txns": counters.l1_rf_txns,
        "l2_l1_txns": counters.l2_l1_txns,
        "dram_l2_txns": counters.dram_l2_txns,
        "inter_gpm_bytes": counters.inter_gpm_bytes,
        "inter_gpm_byte_hops": counters.inter_gpm_byte_hops,
        "switch_byte_traversals": counters.switch_byte_traversals,
        "compression_codec_bytes": counters.compression_codec_bytes,
        "sm_busy_cycles": counters.sm_busy_cycles,
        "sm_idle_cycles": counters.sm_idle_cycles,
        "elapsed_cycles": counters.elapsed_cycles,
        "local_accesses": counters.local_accesses,
        "remote_accesses": counters.remote_accesses,
        "l1_hits": counters.l1_hits,
        "l1_misses": counters.l1_misses,
        "l2_hits": counters.l2_hits,
        "l2_misses": counters.l2_misses,
        "dirty_writebacks": counters.dirty_writebacks,
    }


def golden_run(
    spec: WorkloadSpec, config: GpuConfig
) -> tuple[dict, dict | None, dict | None]:
    """Simulate one golden pair: (counters, residency or None, energy or None).

    The residency and the priced energy (with its per-GPM attribution) are
    only part of the snapshot for configurations that move a clock domain (a
    cap or a DVFS setting) — anchor-point configs keep their original
    snapshot layout, byte for byte.
    """
    result = simulate(build_workload(spec), config)
    pin_dvfs = (
        config.power_cap_watts is not None
        or config.dvfs is not None
        or config.idle is not None
    )
    if not pin_dvfs:
        return counters_to_json(result.counters), None, None
    params = EnergyParams.for_operating_point(
        config, residency=result.residency
    )
    breakdown = result.energy_breakdown(params)
    energy = {
        "total": breakdown.total,
        "components": breakdown.as_dict(),
        "per_gpm": [gpm.as_dict() for gpm in breakdown.per_gpm],
    }
    return counters_to_json(result.counters), result.residency.to_json(), energy


def golden_counters(spec: WorkloadSpec, config: GpuConfig) -> dict:
    """Simulate one golden pair and return its canonical counter JSON."""
    return golden_run(spec, config)[0]


def _close(want, got) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        return (
            want is not None
            and got is not None
            and math.isclose(want, got, rel_tol=FLOAT_RTOL, abs_tol=1e-9)
        )
    return want == got


def diff_energy(expected: dict, actual: dict) -> list[str]:
    """Differences between two golden energy sections (incl. per-GPM)."""
    diffs: list[str] = []
    if not _close(expected.get("total"), actual.get("total")):
        diffs.append(
            f"energy.total: golden={expected.get('total')}"
            f" actual={actual.get('total')}"
        )
    want_comp = expected.get("components", {})
    got_comp = actual.get("components", {})
    for key in sorted(set(want_comp) | set(got_comp)):
        if not _close(want_comp.get(key), got_comp.get(key)):
            diffs.append(
                f"energy.components[{key}]: golden={want_comp.get(key)}"
                f" actual={got_comp.get(key)}"
            )
    want_gpms = expected.get("per_gpm", [])
    got_gpms = actual.get("per_gpm", [])
    if len(want_gpms) != len(got_gpms):
        diffs.append(
            f"energy.per_gpm: golden has {len(want_gpms)} GPMs,"
            f" actual has {len(got_gpms)}"
        )
        return diffs
    for index, (want, got) in enumerate(zip(want_gpms, got_gpms)):
        for key in sorted(set(want) | set(got)):
            if not _close(want.get(key), got.get(key)):
                diffs.append(
                    f"energy.per_gpm[{index}].{key}: golden={want.get(key)}"
                    f" actual={got.get(key)}"
                )
    return diffs


def golden_cases() -> list[tuple[str, str, str]]:
    """(case_name, spec_key, config_key) for every golden combination."""
    return [
        (f"{spec_key}_{config_key}", spec_key, config_key)
        for spec_key in GOLDEN_SPECS
        for config_key in GOLDEN_CONFIGS
    ]


def diff_counters(expected: dict, actual: dict) -> list[str]:
    """Human-readable differences between two canonical counter dicts."""
    diffs: list[str] = []
    for key in sorted(set(expected) | set(actual)):
        want, got = expected.get(key), actual.get(key)
        if key == "instructions":
            want, got = want or {}, got or {}
            for opcode in sorted(set(want) | set(got)):
                if want.get(opcode) != got.get(opcode):
                    diffs.append(
                        f"instructions[{opcode}]: golden={want.get(opcode)}"
                        f" actual={got.get(opcode)}"
                    )
            continue
        if isinstance(want, float) or isinstance(got, float):
            if want is None or got is None or not math.isclose(
                want, got, rel_tol=FLOAT_RTOL, abs_tol=1e-9
            ):
                diffs.append(f"{key}: golden={want} actual={got}")
        elif want != got:
            diffs.append(f"{key}: golden={want} actual={got}")
    return diffs


def _residency_entry_key(entry: dict) -> str:
    """Stable diff key for one residency bucket (operating point or sleep)."""
    if "point" in entry:
        return entry["point"]
    return f"sleep:{entry['sleep']}"


def diff_residency(expected: dict, actual: dict) -> list[str]:
    """Differences between two ``DvfsResidency.to_json()`` snapshots.

    Active buckets are keyed by their operating-point label, sleep buckets
    by their state name; every numeric field (cycles, latencies, residual
    power) is compared, so a changed sleep parameter fails the golden even
    when the cycle split happens to match.
    """
    diffs: list[str] = []
    domains = [("dram", expected.get("dram"), actual.get("dram")),
               ("interconnect", expected.get("interconnect"),
                actual.get("interconnect"))]
    want_core = expected.get("core", [])
    got_core = actual.get("core", [])
    if len(want_core) != len(got_core):
        return [f"core domains: golden={len(want_core)} actual={len(got_core)}"]
    domains += [
        (f"core[{idx}]", want, got)
        for idx, (want, got) in enumerate(zip(want_core, got_core))
    ]
    for name, want, got in domains:
        want, got = want or [], got or []
        want_points = {_residency_entry_key(entry): entry for entry in want}
        got_points = {_residency_entry_key(entry): entry for entry in got}
        for label in sorted(set(want_points) | set(got_points)):
            w, g = want_points.get(label), got_points.get(label)
            if w is None or g is None:
                diffs.append(f"{name}[{label}]: golden={w} actual={g}")
                continue
            for field in sorted(set(w) | set(g)):
                if field in ("point", "sleep"):
                    continue
                if not _close(w.get(field), g.get(field)):
                    diffs.append(
                        f"{name}[{label}].{field}: golden={w.get(field)}"
                        f" actual={g.get(field)}"
                    )
    return diffs


def golden_path(case_name: str) -> Path:
    return GOLDEN_DIR / f"{case_name}.json"


def regenerate(golden_dir: Path | None = None) -> list[Path]:
    """Simulate every golden case and (re)write its snapshot file."""
    target_dir = golden_dir or GOLDEN_DIR
    target_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for case_name, spec_key, config_key in golden_cases():
        counters, residency, energy = golden_run(
            GOLDEN_SPECS[spec_key], GOLDEN_CONFIGS[config_key]
        )
        snapshot = {
            "results_version": RESULTS_VERSION,
            "workload": spec_key,
            "config": GOLDEN_CONFIGS[config_key].label(),
            "counters": counters,
        }
        if residency is not None:
            snapshot["residency"] = residency
        if energy is not None:
            snapshot["energy"] = energy
        path = target_dir / f"{case_name}.json"
        with path.open("w") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.regen_goldens",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--golden-dir",
        type=Path,
        default=None,
        help=f"output directory (default: {GOLDEN_DIR})",
    )
    args = parser.parse_args(argv)
    for path in regenerate(args.golden_dir):
        print(f"wrote {path}")
    print(
        "Remember: if counters changed, bump RESULTS_VERSION in"
        " repro/experiments/runner.py and commit the new goldens."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
