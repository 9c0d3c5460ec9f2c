"""GOOD: every duration is integer nanoseconds, converted at the edge."""

MICROSECOND = 1_000
MILLISECOND = 1_000_000


def us_to_ns(us: float) -> int:  # allowlisted conversion helper
    return int(round(us * MICROSECOND))


def schedule(sim, timeout_ns: int, poll_interval_ns: int = 5 * MILLISECOND):
    delay_ns = timeout_ns
    latency_ns = poll_interval_ns
    sim.schedule_after(delay_ns + latency_ns, None)


class Window:
    width_ns: int = 100 * MILLISECOND

    def resize(self, value_ns):
        self.span_ns = value_ns
