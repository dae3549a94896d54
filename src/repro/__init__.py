"""repro — a reproduction of *Understanding the Future of Energy Efficiency
in Multi-Module GPUs* (Arunkumar, Bolotin, Nellans, Wu — HPCA 2019).

The package provides, from the bottom up:

* a discrete-event multi-module GPU performance simulator
  (:mod:`repro.sim`, :mod:`repro.sm`, :mod:`repro.memory`,
  :mod:`repro.interconnect`, :mod:`repro.gpu`);
* **GPUJoule**, the paper's top-down instruction-based energy model, with
  its calibration and validation flow (:mod:`repro.core`,
  :mod:`repro.power`, :mod:`repro.microbench`);
* the **EDPSE** scaling-efficiency metric (:mod:`repro.core.edpse`);
* the Table II workload suite as synthetic traces (:mod:`repro.workloads`);
* experiment drivers regenerating every table and figure
  (:mod:`repro.experiments`, also ``python -m repro figures``).

Quickstart::

    from repro import simulate, table_iii_config, BandwidthSetting
    from repro.core import EnergyModel, EnergyParams, edpse
    from repro.workloads import build_workload, get_spec

    workload = build_workload(get_spec("Stream"))
    result = simulate(workload, table_iii_config(4, BandwidthSetting.BW_2X))
    params = EnergyParams.for_config(table_iii_config(4, BandwidthSetting.BW_2X))
    joules = EnergyModel(params).total_energy(result.counters, result.seconds)
"""

from repro.core.edpse import ScalingPoint, edipse, edp, edpse, parallel_efficiency
from repro.core.energy_model import EnergyBreakdown, EnergyModel, EnergyParams
from repro.gpu.config import (
    BandwidthSetting,
    GpmConfig,
    GpuConfig,
    IntegrationDomain,
    TopologyKind,
    k40_config,
    monolithic_config,
    table_iii_config,
)
from repro.gpu.simulator import RunResult, simulate
from repro.isa.kernel import Kernel, Workload, WorkloadCategory
from repro.workloads.generator import build_workload
from repro.workloads.suite import SCALING_SUBSET, WORKLOAD_SPECS, get_spec

__version__ = "1.0.0"

__all__ = [
    "ScalingPoint",
    "edipse",
    "edp",
    "edpse",
    "parallel_efficiency",
    "EnergyBreakdown",
    "EnergyModel",
    "EnergyParams",
    "BandwidthSetting",
    "GpmConfig",
    "GpuConfig",
    "IntegrationDomain",
    "TopologyKind",
    "k40_config",
    "monolithic_config",
    "table_iii_config",
    "RunResult",
    "simulate",
    "Kernel",
    "Workload",
    "WorkloadCategory",
    "build_workload",
    "SCALING_SUBSET",
    "WORKLOAD_SPECS",
    "get_spec",
    "__version__",
]
