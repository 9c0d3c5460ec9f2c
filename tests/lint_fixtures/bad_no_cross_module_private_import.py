"""BAD: imports another module's underscore-private names."""

from repro.core.run import _workload_summary  # lint: private cross-import
from repro.net.switch import _forward  # lint: private cross-import


def build():
    return _workload_summary(_forward)
