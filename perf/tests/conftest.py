"""Self-tests of the benchmark harness: ``python -m pytest perf/tests -q``.

Outside tier-1's ``testpaths`` on purpose — they test the yardstick, not
the program.
"""

import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERF_DIR))
sys.path.insert(0, str(PERF_DIR.parent / "src"))
