"""Tests of the benchmark's own code: span arithmetic, wrapper restore, seed
derivation, the BLAS pin, the output contract, and a tiny-size smoke run of
every workload.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), HERE) if p not in sys.path]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from specprune import net as nm  # noqa: E402
from specprune import spectral as sp  # noqa: E402


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_span_minus_children():
    # root [0, 10] > a [1, 6] > b [2, 4]; root > c [7, 9]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 4, 6, 7, 9, 10]))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("a"):
            pass
    assert tracer.self_times() == {"root": 10 - 5 - 2, "a": 5 - 2 + 2, "b": 2}
    assert sum(tracer.self_times().values()) == 10
    doc = tracer.to_json()
    assert [s["parent"] for s in doc["spans"]] == [-1, 0, 1, 0]


def test_self_times_since_mark_ignore_earlier_spans():
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 5, 6, 7]))
    with tracer.span("early"):
        pass
    mark = tracer.mark()
    tracer.count("n", 3)
    with tracer.span("late"):
        with tracer.span("inner"):
            pass
    assert tracer.self_times(mark) == {"late": 4, "inner": 1}
    assert tracer.counts_since(mark) == {"n": 3}


def test_wrappers_record_and_are_restored():
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, *_ in spans.PATCHES}
    apply_layer = nm.apply_layer
    tracer = spans.Tracer()
    a = np.random.default_rng(0).normal(size=(40, 8))
    with spans.traced(tracer) as saved:
        assert sp.find_subset is not originals[(sp, "find_subset")]
        sp.find_subset(a.T @ a, sp.GreedyConfig(alpha=1.0, max_cardinality=3))
    assert spans.restored(saved)
    assert nm.apply_layer is apply_layer
    for (owner, attr), fn in originals.items():
        assert owner.__dict__[attr] is fn
    selfs = tracer.self_times()
    assert {"spectral.select", "backend.update", "spectral.recovery",
            "linalg.cholesky"} <= set(selfs)
    assert tracer.counts["backend.updates"] == 3
    assert tracer.counts["backend.bytes_computed"] == 3 * 24 * 8 * 8


def test_wrappers_restored_after_an_exception():
    saved_ref = []
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Tracer()) as saved:
            saved_ref.append(saved)
            raise RuntimeError("boom")
    assert spans.restored(saved_ref[0])


def test_seed_zero_gives_the_acceptance_seeds():
    assert workloads.derive_seeds([0, 1, 2], 0) == [0, 1, 2]
    assert workloads.derive_seeds([0, 1, 2], 3) == [3000, 3001, 3002]
    wl = workloads.make_workload("c08_keep_sweep", 0)
    assert wl.doc["seeds"] == [0, 1, 2]
    assert workloads.make_workload("greedy_wide", 0).seed == 112


def test_blas_pin_refuses_an_override():
    env = {"OMP_NUM_THREADS": "4"}
    with pytest.raises(run.UsageError, match="OMP_NUM_THREADS"):
        run.pin_blas_threads(env)
    env = {"OPENBLAS_NUM_THREADS": "1"}
    run.pin_blas_threads(env)
    assert all(env[k] == "1" for k in run.BLAS_THREAD_VARS)


def test_workload_names_match_benchmark_json():
    spec = _bench_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(name, trace):
    info, result = run.run(name, 0, 0.0, trace, tiny=True)
    assert result["correct"], info["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = _bench_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert len(info["digest"]) == 64
    if trace:
        t = info["trace"]
        assert t["self_sum_s"] == pytest.approx(t["traced_wall_s"], rel=1e-9)
        assert os.path.isfile(os.path.join(ROOT, info["trace_file"]))
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    json.dumps(result)


def test_same_seed_same_digest():
    a, _ = run.run("greedy_wide", 5, 0.0, False, tiny=True)
    b, _ = run.run("greedy_wide", 5, 0.0, False, tiny=True)
    c, _ = run.run("greedy_wide", 6, 0.0, False, tiny=True)
    assert a["digest"] == b["digest"] != c["digest"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "greedy_wide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
