#!/usr/bin/env python3
"""Plan multicast groups against switch table capacity (§3's tension).

Walks the capacity-planning workflow the paper implies trading-firm
network engineers run every year: project market-data growth, derive
partition demand, fit it against each switch generation's mroute table,
and demonstrate what overflow does to the datapath.

Run:  python examples/multicast_planning.py
"""

from repro.analysis.tables import render_table
from repro.mgmt.capacity import first_overflow_year, project_capacity
from repro.mgmt.partitions import FeedDemand, plan_partitions
from repro.net.addressing import EndpointAddress, MulticastGroup
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.switch import CommoditySwitch, SwitchProfile
from repro.sim.kernel import MILLISECOND, Simulator


def capacity_projection() -> None:
    print("=== demand vs best-available switch, 2020-2024 ===")
    projections = project_capacity(per_partition_capacity_events_per_s=1.0e4)
    rows = [
        [
            p.year,
            f"{p.daily_events/1e9:.0f} B",
            f"{p.partitions_needed:,}",
            p.switch_model,
            f"{p.mroute_capacity:,}",
            f"{p.utilization:.0%}" + ("  <-- OVERFLOW" if not p.fits else ""),
        ]
        for p in projections
    ]
    print(render_table(
        ["year", "events/day", "groups needed", "switch", "table", "util"],
        rows,
    ))
    overflow = first_overflow_year(projections)
    if overflow:
        print(f"\ntables run out in {overflow}: data grew ~500%, tables ~80% (§3)")


def partition_fitting() -> None:
    print("\n=== fitting this year's feeds into one fabric ===")
    demands = [
        FeedDemand("options", 2.0e7, 1.0e4),
        FeedDemand("equities", 6.0e6, 1.0e4),
        FeedDemand("futures", 1.5e6, 1.0e4),
    ]
    plan = plan_partitions(demands, group_budget=3_600)  # 2024-gen table
    rows = [
        [
            feed,
            f"{plan.desired[feed]:,}",
            f"{plan.allocations[feed]:,}",
            f"{plan.coarsening_factor(feed):.2f}x",
        ]
        for feed in plan.desired
    ]
    print(render_table(["feed", "wanted", "granted", "coarsening"], rows))
    if not plan.fits:
        print(f"\n{plan.shortfall:,} partitions denied: each granted group now "
              "carries more symbols -> more irrelevant data per subscriber")


def overflow_demo() -> None:
    print("\n=== what overflow does to the datapath ===")
    sim = Simulator(seed=1)
    profile = SwitchProfile(
        "overflowing", 2024, 10e9, 500, mroute_capacity=1, fib_capacity=100,
        software_latency_ns=20_000, software_queue_packets=16,
    )
    switch = CommoditySwitch(sim, "sw", profile)

    class Host:
        def __init__(self, name):
            self.name = name
            self.arrivals = []

        def handle_packet(self, packet, ingress):
            self.arrivals.append(sim.now)

    src, hw, sw = Host("src"), Host("hw"), Host("sw")
    l_in = Link(sim, "in", src, switch, propagation_delay_ns=0)
    l_hw = Link(sim, "hw", switch, hw, propagation_delay_ns=0)
    l_sw = Link(sim, "sw", switch, sw, propagation_delay_ns=0)
    for link in (l_in, l_hw, l_sw):
        switch.attach_link(link)
    hw_group, sw_group = MulticastGroup("g", 0), MulticastGroup("g", 1)
    switch.install_mroute(hw_group, {l_hw})  # fits the 1-entry table
    switch.install_mroute(sw_group, {l_sw})  # spills to software

    n = 500
    for i in range(n):
        for group in (hw_group, sw_group):
            sim.schedule_at(
                i * 8_000,  # 125k frames/s per group
                lambda g=group: l_in.send(
                    Packet(src=EndpointAddress("src"), dst=g,
                           wire_bytes=100, payload_bytes=50),
                    src,
                ),
            )
    sim.run_until_idle()
    print(f"hardware group : {len(hw.arrivals)}/{n} delivered, "
          f"first at {hw.arrivals[0]:,} ns")
    print(f"software group : {len(sw.arrivals)}/{n} delivered "
          f"({switch.stats.software_dropped} dropped), "
          f"first at {sw.arrivals[0]:,} ns")
    print('"switches generally fall back to software forwarding, which')
    print(' cripples performance and induces heavy packet loss" (§3)')


def main() -> None:
    capacity_projection()
    partition_fitting()
    overflow_demo()


if __name__ == "__main__":
    main()
