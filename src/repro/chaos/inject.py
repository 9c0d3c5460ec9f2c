"""The chaos controller: deterministic, kernel-driven fault injection.

Faults are applied by the *simulation kernel*, not by the test harness:
each :class:`~repro.chaos.spec.FaultSpec` window schedules a begin and
an end event on the same clock everything else runs on, so a fault
lands between the same two packets on every run of the same spec. The
mutations themselves ride the devices' existing per-frame reads —
``Link.loss_prob`` and ``Link.bandwidth_bps`` are consulted per frame,
``CommoditySwitch.failed`` per packet, ``Nic.chaos_drop_prob`` per
receive — so no device needs rebuilding mid-run.

The controller also owns the firm lifecycle wiring: with
``spec.lifecycle`` on, every :class:`~repro.firm.feedhandler.FeedHandler`
in the system gets a :class:`~repro.firm.lifecycle.FirmLifecycle`
watchdog, and every :class:`~repro.firm.managed.ManagedStrategy` holds
orders while its stack is DEGRADED.
"""

from __future__ import annotations

import fnmatch

from repro.chaos.spec import FaultSpec, parse_faults
from repro.firm.feedhandler import FeedHandler
from repro.firm.lifecycle import FirmLifecycle, FleetView
from repro.firm.managed import ManagedStrategy
from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.switch import CommoditySwitch
from repro.sim.process import Component

# FaultSpec.kind -> (what the error message calls it, device class): a
# fault's pool is every device of that class in the system's registry.
_KIND_DEVICE = {
    "link_down": ("link", Link),
    "link_loss": ("link", Link),
    "link_rate": ("link", Link),
    "switch_fail": ("switch", CommoditySwitch),
    "nic_drop": ("nic", Nic),
}


class _Window:
    """One resolved fault window: the fault, its device, saved state."""

    __slots__ = ("fault", "device", "saved", "applied")

    def __init__(self, fault: FaultSpec, device) -> None:
        self.fault = fault
        self.device = device
        self.saved = None
        self.applied = False


class ChaosController(Component):
    """Schedules every fault window and aggregates the run's chaos facts."""

    def __init__(self, sim, devices, faults: tuple[FaultSpec, ...]):
        """``devices`` is the registry to resolve fault targets in: a
        built system's ``devices.values()``, or a bare simulator's
        ``components``."""
        super().__init__(sim, "chaos")
        devices = list(devices)
        self.faults = faults
        self.windows: list[_Window] = []
        self.lifecycles: list[FirmLifecycle] = []
        for fault in faults:
            noun, device_class = _KIND_DEVICE[fault.kind]
            pool = {d.name: d for d in devices if isinstance(d, device_class)}
            matched = sorted(fnmatch.filter(pool, fault.target))
            if not matched:
                raise ValueError(
                    f"fault target {fault.target!r} matches no "
                    f"{noun} in this system; known: {sorted(pool)}"
                )
            for name in matched:
                self.windows.append(_Window(fault, pool[name]))
        for index, window in enumerate(self.windows):
            sim.schedule_at(window.fault.at_ns, self._begin, (index,))
            sim.schedule_at(window.fault.end_ns, self._end, (index,))

    # -- fault application ---------------------------------------------------

    def _begin(self, index: int) -> None:
        window = self.windows[index]
        fault, device = window.fault, window.device
        kind = fault.kind
        if kind == "link_down":
            window.saved = device.loss_prob
            device.loss_prob = 1.0
        elif kind == "link_loss":
            window.saved = device.loss_prob
            device.loss_prob = fault.magnitude
        elif kind == "link_rate":
            window.saved = device.bandwidth_bps
            device.bandwidth_bps = device.bandwidth_bps * fault.magnitude
        elif kind == "switch_fail":
            window.saved = device.failed
            device.failed = True
        elif kind == "nic_drop":
            window.saved = device.chaos_drop_prob
            device.chaos_drop_prob = fault.magnitude
        window.applied = True
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.count("chaos.windows_opened", self.now)

    def _end(self, index: int) -> None:
        window = self.windows[index]
        fault, device = window.fault, window.device
        kind = fault.kind
        if kind in ("link_down", "link_loss"):
            device.loss_prob = window.saved
        elif kind == "link_rate":
            device.bandwidth_bps = window.saved
        elif kind == "switch_fail":
            device.failed = window.saved
        elif kind == "nic_drop":
            device.chaos_drop_prob = window.saved
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.count("chaos.windows_closed", self.now)

    # -- run summary ---------------------------------------------------------

    def summary(self) -> dict:
        """Plain-data chaos facts for :class:`~repro.core.run.RunResult`.

        Deterministic: windows are listed in schedule order, lifecycles
        in name order.
        """
        out: dict = {}
        if self.windows:
            out["fault_windows"] = [
                {
                    "kind": w.fault.kind,
                    "target": w.device.name,
                    "at_ns": w.fault.at_ns,
                    "duration_ns": w.fault.duration_ns,
                    "magnitude": w.fault.magnitude,
                    "applied": w.applied,
                }
                for w in self.windows
            ]
        if self.lifecycles:
            machines = sorted(self.lifecycles, key=lambda m: m.name)
            out["lifecycle"] = {
                "machines": {m.name: m.summary() for m in machines},
                "recovery_ns": max(m.recovery_ns for m in machines),
                "degraded_windows": sum(m.degraded_windows for m in machines),
            }
        return out


def install_chaos(system, spec) -> ChaosController:
    """Wire ``spec``'s chaos tier into a freshly built ``system``.

    Called (lazily) by :func:`~repro.core.run.execute_spec` before the
    run starts; the controller is stashed on ``system.sim.chaos`` so
    :func:`~repro.core.run.summarize_run` can fold its summary into the
    :class:`~repro.core.run.RunResult` without new handle plumbing.
    """
    controller = ChaosController(
        system.sim, system.devices.values(), parse_faults(spec.faults)
    )
    if spec.lifecycle:
        controller.lifecycles = _wire_lifecycles(system)
    system.sim.chaos = controller
    return controller


def _wire_lifecycles(system) -> list[FirmLifecycle]:
    """One lifecycle machine per feed handler; order gates per strategy."""
    machines: list[FirmLifecycle] = []
    for handler in sorted(system.of(FeedHandler), key=lambda h: h.name):
        machine = FirmLifecycle(handler.sim, f"lifecycle.{handler.name}", handler)
        handler.lifecycle = machine
        machines.append(machine)
    # Managed strategies hold orders while any feed stack is degraded:
    # all of them share the firm-wide FleetView.
    if machines:
        view = FleetView(machines)
        for strategy in system.strategies:
            if isinstance(strategy, ManagedStrategy):
                strategy.lifecycle = view
    return machines
