"""BAD: duration names without the _ns suffix."""


def schedule(sim, timeout_us: int, poll_ms: int = 5):  # lint: _us, _ms params
    delay = timeout_us * 1_000  # lint: bare 'delay'
    latency = poll_ms * 1_000_000  # lint: bare 'latency'
    sim.schedule_after(delay + latency, None)


class Window:
    width_ms: int = 100  # lint: _ms annotated field

    def resize(self, value):
        self.span_us = value  # lint: _us attribute store
