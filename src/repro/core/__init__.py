"""The paper's core contribution: the trading-network design space.

* :mod:`repro.core.latency` — latency-budget composition (the arithmetic
  behind "half of the overall time through the system is spent in the
  network");
* :mod:`repro.core.designs` — the §4 designs as analyzable objects:
  Design 1 (leaf-spine commodity switches), Design 2 (latency-equalized
  cloud), Design 3 (layer-1 switches), Design 4 (FPGA-enhanced L1S);
* :mod:`repro.core.merge` — the L1S merge-bottleneck analysis of §4.3
  and the filtering/compression mitigations of §5;
* :mod:`repro.core.api` — :func:`build_system`: the one builder. Every
  design (Designs 1–4, the cross-colo WAN build, multi-venue,
  tick-to-trade) is the same role graph — exchange → normalizers →
  strategies → gateway → exchange — built once from a
  :class:`SystemSpec`;
* :mod:`repro.core.fabrics` — the per-design fabric functions that cable
  the role graph's NICs, and the knobs each design pins;
* :mod:`repro.core.system` — :class:`System`, the one type every design
  builds into: role handles plus a name → device registry;
* :mod:`repro.core.cloud`, :mod:`repro.core.ticktotrade` — the two
  devices that live here rather than in ``net``/``firm``: the equalized
  :class:`CloudFabric` and the FPGA :class:`HardwareStrategy`;
* :mod:`repro.core.run` — the one execution path: :func:`run_spec`
  turns a :class:`SystemSpec` into a plain-data, JSON-round-trippable
  :class:`RunResult` (what the CLI and ``repro sweep`` run through);
* :mod:`repro.core.compare` — the cross-design comparison table.
"""

from repro.core.api import available_designs, build_system
from repro.core.latency import BudgetItem, Category, PathBudget
from repro.core.designs import (
    Design1LeafSpine,
    Design2Cloud,
    Design3L1S,
    Design4EnhancedL1S,
    NicPlanVerdict,
)
from repro.core.merge import MergeAnalysis, analyze_merge, safe_merge_count
from repro.core.compare import DesignComparison, compare_designs
from repro.core.cloud import CloudFabric
from repro.core.config import SystemSpec, resolve_design
from repro.core.run import (
    ExecutedRun,
    RunResult,
    execute_spec,
    run_spec,
    summarize_run,
)
from repro.core.system import System
from repro.core.ticktotrade import HardwareStrategy

__all__ = [
    "BudgetItem",
    "Category",
    "available_designs",
    "build_system",
    "CloudFabric",
    "ExecutedRun",
    "RunResult",
    "System",
    "SystemSpec",
    "execute_spec",
    "resolve_design",
    "run_spec",
    "summarize_run",
    "Design1LeafSpine",
    "Design2Cloud",
    "Design3L1S",
    "Design4EnhancedL1S",
    "HardwareStrategy",
    "DesignComparison",
    "MergeAnalysis",
    "NicPlanVerdict",
    "PathBudget",
    "analyze_merge",
    "compare_designs",
    "safe_merge_count",
]
