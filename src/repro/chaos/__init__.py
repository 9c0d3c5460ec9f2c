"""Deterministic failure injection over the simulated trading designs.

The paper's designs differ most under *failure* — §2's microwave rain
fade, §4's switch redundancy arguments, §4.3's merge bottleneck — so
this package makes failure a first-class, reproducible input:

* :mod:`repro.chaos.spec` — :class:`FaultSpec`, the serializable fault
  window (kind, target, onset, duration, magnitude) that rides inside
  a :class:`~repro.core.config.SystemSpec`;
* :mod:`repro.chaos.inject` — the :class:`ChaosController`: fault windows
  resolved against the system's device registry (links, switches, NICs
  by name) and scheduled on the simulation clock, firm lifecycle wiring;
* :mod:`repro.chaos.scenarios` — the named scenario catalog behind
  ``python -m repro scenario``;
* :mod:`repro.chaos.cli` — that command's implementation.

Everything here is driven by the simulation kernel, so a faulted run is
exactly as deterministic as a clean one: same spec, same seed, same
bytes out.
"""

from repro.chaos.inject import ChaosController, install_chaos
from repro.chaos.scenarios import (
    SCENARIOS,
    Scenario,
    get_scenario,
    scenario_names,
)
from repro.chaos.spec import FAULT_KINDS, FaultSpec, parse_faults

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "parse_faults",
    "ChaosController",
    "install_chaos",
    "SCENARIOS",
    "Scenario",
    "get_scenario",
    "scenario_names",
]
