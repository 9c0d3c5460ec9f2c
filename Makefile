PYTHON ?= python
export PYTHONPATH := src

.PHONY: verify lint test bench bench-collect scoreboard report sweep-smoke \
	trace-smoke scenario-smoke perf-smoke tie-order

# The one gate: repro lint + ruff (when installed) + tier-1
# pytest (which includes the full-tree lint gate) + the E-series
# collect-only import check + the sweep, scenario, trace and perf smokes.
verify:
	$(PYTHON) -m repro verify

# Tiny 2-design x 2-seed matrix on 2 workers, with the workers=1-vs-N
# byte-identical-artifact determinism check (also chained into verify).
sweep-smoke:
	$(PYTHON) -m repro sweep --smoke

# Export a short run as Chrome Trace Event JSON and schema-validate it
# (the write path validates before writing; also chained into verify).
trace-smoke:
	$(PYTHON) -m repro trace --ms 5 --chrome /tmp/repro-trace-smoke.json

# Run the feed-gap-storm chaos scenario twice and byte-compare the JSON
# renderings — the determinism gate for the fault-injection tier (also
# chained into verify).
scenario-smoke:
	$(PYTHON) -m repro scenario feed-gap-storm --format json --check

# All five BENCHMARK.json workloads at 1/20 length, one repeat (~6 s):
# proves perf/ still builds and runs through the program's public
# handles (also chained into verify and its own CI step).
perf-smoke:
	$(PYTHON) perf/run.py --smoke

# Three seeded shuffles of same-nanosecond event order across owners
# (~7 s): every golden case and scenario must still report its
# OBSERVABLE pin. Tier-1 runs the reversed order (also chained into
# verify and its own CI step).
tie-order:
	$(PYTHON) -m tests.test_tie_order

lint:
	$(PYTHON) -m repro lint

test:
	$(PYTHON) -m pytest -x -q

# The repo benchmark: the five BENCHMARK.json workloads, end-to-end and
# simulated metrics (see perf/README.md; ~95 s).
bench:
	$(PYTHON) perf/run.py

# Import every E-series file without running it (~1.5 s): benchmarks/
# is outside tier-1, so this is what notices a deleted public name (also
# chained into verify and its own CI step).
bench-collect:
	$(PYTHON) -m pytest benchmarks --collect-only -q

# The full pytest-benchmark reproduction scoreboard (the E-series).
scoreboard:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

report:
	$(PYTHON) -m repro report --design design1
