"""The command end to end: declared names, smoke budget, compare, contract."""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parents[1]
ROOT = PERF_DIR.parent
RUN = [sys.executable, str(PERF_DIR / "run.py")]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in DECLARED["workloads"]]
METRIC_LINE = re.compile(r"^\s+([A-Za-z0-9_.]+)\s+(-?[0-9][0-9.e+-]*)\s+(\S+)")


def run(*args, cwd=ROOT):
    return subprocess.run(
        RUN + list(args), cwd=cwd, text=True, capture_output=True, timeout=170
    )


def printed_metrics(stdout: str) -> dict[str, dict[str, str]]:
    """``{workload: {metric name: unit}}`` as printed by the command."""
    out: dict[str, dict[str, str]] = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = out.setdefault(line[3:].split(":")[0].split(" ")[0], {})
        elif (match := METRIC_LINE.match(line)) and current is not None:
            current[match.group(1)] = match.group(3)
    return out


@pytest.fixture(scope="module")
def smoke():
    begin = time.monotonic()
    done = run("--smoke")
    return done, time.monotonic() - begin


@pytest.fixture(scope="module")
def smoke_traced():
    return run("--smoke", "--trace")


def test_smoke_finishes_all_five_workloads_in_budget(smoke):
    done, elapsed = smoke
    assert done.returncode == 0, done.stdout + done.stderr
    assert list(printed_metrics(done.stdout)) == WORKLOAD_NAMES
    assert elapsed < 20


def test_every_declared_name_is_printed_and_no_undeclared_one(smoke, smoke_traced):
    assert smoke_traced.returncode == 0, smoke_traced.stdout + smoke_traced.stderr
    units = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    untraced = printed_metrics(smoke[0].stdout)
    traced = printed_metrics(smoke_traced.stdout)
    for name in WORKLOAD_NAMES:
        printed = {**untraced[name], **traced[name]}
        assert printed == units, name
        assert set(traced[name]) == {m["name"] for m in DECLARED["per_layer"]}
        assert {m["name"] for m in DECLARED["end_to_end"]} <= set(untraced[name])


def test_contract_result_line(tmp_path):
    done = run("--workload", "wan_lossy", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    for metric in DECLARED["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_seed_reaches_the_inputs(tmp_path):
    files = []
    for seed in ("1", "7"):
        path = tmp_path / f"seed{seed}.json"
        done = run("--smoke", "--workload", "leafspine_steady", "--seed", seed,
                   "--json", str(path))
        assert done.returncode == 0, done.stdout + done.stderr
        files.append(json.loads(path.read_text())["workloads"]["leafspine_steady"])
    assert files[0]["digests"] != files[1]["digests"]
    assert files[0]["counts"] != files[1]["counts"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PERF_DIR, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "tick_to_trade", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, capture_output=True, timeout=170,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def result_file(path: Path, rate: float, p99: int = 900, digest: str = "d") -> Path:
    path.write_text(json.dumps({
        "seed": 1, "seconds": 15, "repeats": 5,
        "workloads": {"wan_lossy": {
            "metrics": {"setup_s": 0.30, "feed_msgs_per_host_s": rate,
                        "peak_rss_mb": 50.0, "rtt_p50_ns": 400, "rtt_p99_ns": p99,
                        "order_fail_share": 0.0, "rtt_samples": 1800},
            "digests": [digest], "counts": {"sim.events": 10},
        }},
    }))
    return path


def test_compare_passes_within_bounds_and_fails_on_a_breach(tmp_path):
    bound = next(m["bound"] for m in DECLARED["end_to_end"]
                 if m["name"] == "feed_msgs_per_host_s")
    base = result_file(tmp_path / "a.json", 7000.0)
    within = result_file(tmp_path / "b.json", 7000.0 * (1 - bound / 2))
    slower = result_file(tmp_path / "c.json", 7000.0 * (1 - bound * 2))
    moved = result_file(tmp_path / "d.json", 7000.0, p99=901)
    steered = result_file(tmp_path / "e.json", 7000.0, digest="other")
    assert run("--compare", str(base), str(within)).returncode == 0
    for worse in (slower, moved, steered):
        done = run("--compare", str(base), str(worse))
        assert done.returncode == 1 and "BREACH" in done.stdout


def test_benchmark_json_meets_the_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in DECLARED["workloads"]]
    assert 2 <= len(names) <= 8
    for workload in DECLARED["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    assert 1 <= len(DECLARED["end_to_end"]) <= 16 and 1 <= len(DECLARED["per_layer"]) <= 128
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        names.append(metric["name"])
        assert unit_ok.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(name_ok.match(name) for name in names) and len(names) == len(set(names))
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    assert isinstance(DECLARED["run_seconds"], int) and 1 <= DECLARED["run_seconds"] <= 60
    assert DECLARED["paths"] == ["perf"] and DECLARED["command"][-1] == "perf/run.py"
