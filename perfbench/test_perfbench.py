"""Tests of the benchmark itself: tracer, workloads, checks and CLI contract.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from repro.experiments.overload import QUEUE_CAPACITY  # noqa: E402
from hostspeed import HostProbe  # noqa: E402
from layertrace import LayerTracer, layer_of_module  # noqa: E402
from workloads import WORKLOADS, within_one_per_thread  # noqa: E402

#: window scale for smoke runs: small, but every point still completes
#: ops in its measurement window
SMOKE = 0.3


# ---------------------------------------------------------------------------
# the layer tracer
# ---------------------------------------------------------------------------

@pytest.fixture
def toy_chain(tmp_path, monkeypatch):
    """``toypkg.alpha`` drives a ``toypkg.beta`` generator and calls a
    ``toypkg.beta`` function through ``relay``, a module outside the
    package."""
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "beta.py").write_text(textwrap.dedent("""
        def leaf(x):
            for _ in range(2000):
                x += 1
            return x


        def gen():
            total = 0
            while True:
                total = leaf(total)
                yield total
    """))
    (pkg / "alpha.py").write_text(textwrap.dedent("""
        import relay
        from toypkg import beta


        def drive(n):
            g = beta.gen()
            out = 0
            for _ in range(n):
                out = next(g)
                out = relay.apply(beta.leaf, out)
            g.close()
            return out
    """))
    (tmp_path / "relay.py").write_text(textwrap.dedent("""
        def apply(f, x):
            return f(x)
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    for name in ("toypkg", "toypkg.alpha", "toypkg.beta", "relay"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    from toypkg import alpha
    return alpha


def test_layer_of_module():
    assert layer_of_module("repro.mem.cache", "repro") == "mem"
    assert layer_of_module("repro.sim", "repro") == "sim"
    assert layer_of_module("repro", "repro") == "repro"
    assert layer_of_module("reproducible.x", "repro") is None
    assert layer_of_module("numpy.core", "repro") is None


def test_tracer_counts_calls_and_generator_resumes(toy_chain):
    n = 10
    tracer = LayerTracer("toypkg")
    with tracer:
        toy_chain.drive(n)
    # beta is entered by n resumes, n leaf calls (through relay, which is
    # charged to alpha, its caller) and the final close(); leaf called
    # from beta's own generator stays inside beta
    assert tracer.entries == {"alpha": 1, "beta": 2 * n + 1}
    assert tracer.edges == {("outside", "alpha"): 1,
                            ("alpha", "beta"): 2 * n + 1}
    assert tracer.edge_table()[0] == ("alpha", "beta", 2 * n + 1)


def test_tracer_self_times_add_up(toy_chain):
    tracer = LayerTracer("toypkg")
    with tracer:
        toy_chain.drive(20)
    with tracer:
        toy_chain.drive(20)
    assert tracer.entries["beta"] == 2 * 41
    assert sum(tracer.self_ns.values()) == tracer.total_ns
    # beta does all of the loop work
    assert tracer.self_ns["beta"] > tracer.self_ns["alpha"]
    assert sum(tracer.self_share().values()) == pytest.approx(1.0)


def test_tracer_refuses_a_second_profiler(toy_chain):
    with LayerTracer("toypkg"):
        with pytest.raises(RuntimeError):
            LayerTracer("toypkg").__enter__()


def test_host_probe_times_one_fixed_pass():
    probe = HostProbe()
    passes = [probe.seconds() for _ in range(3)]
    assert all(0 < p < 5 for p in passes)


# ---------------------------------------------------------------------------
# workloads and checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_each_workload(name):
    workload = WORKLOADS[name](SMOKE)
    rep = run.run_rep(workload, 3)
    workload.check_against_figures(3, rep.outcomes)
    assert [e for o in rep.outcomes for e in o.errors] == []
    metrics = run.end_to_end([rep], [rep.setup_s])
    assert all(value > 0 for value, _unit in metrics.values())
    layers = run.counter_layers(rep)
    assert set(layers) | {"trace.overhead"} | {
        f"{layer}.{m}" for layer in run.LAYERS
        for m in ("entries_per_op", "self_share", "self_us_per_op")
    } == {m["name"] for m in _benchmark_json()["per_layer"]}
    # no op fails on any workload; on overload the over-capacity points
    # queue instead, past the bounded policies' per-client queue bound
    assert layers["workload.failed_frac"][0] == 0
    qdepth = layers["workload.qdepth_max"][0]
    assert (qdepth > QUEUE_CAPACITY) == (name == "overload")


def test_same_seed_repeats_and_tracing_changes_nothing():
    workload = WORKLOADS["overload"](SMOKE)
    first = run.run_rep(workload, 5)
    tracers = [LayerTracer("repro"), LayerTracer("repro")]
    traced = [run.run_rep(workload, 5, tracer) for tracer in tracers]
    for rep in traced + [run.run_rep(workload, 5)]:
        run.check_repeats(first, rep, "x")
        assert not any(o.errors for o in rep.outcomes)
    assert tracers[0].entries == tracers[1].entries
    assert tracers[0].entries["obs"] > 0


def test_a_second_seed_is_accepted_and_differs():
    workload = WORKLOADS["mp-counter"](SMOKE)
    a = run.run_rep(workload, 1)
    b = run.run_rep(workload, 2)
    assert not any(o.errors for o in a.outcomes + b.outcomes)
    run.check_repeats(a, b, "x")
    assert all(o.errors for o in b.outcomes)


def test_in_flight_allowance():
    assert within_one_per_thread("v", 10, 10, 1, 4) == []
    assert within_one_per_thread("v", 14, 10, 1, 4) == []
    assert within_one_per_thread("v", 15, 10, 1, 4) != []
    assert within_one_per_thread("v", 9, 10, 1, 4) != []
    assert within_one_per_thread("v", 150, 10, 15, 1) == []
    assert within_one_per_thread("v", 166, 10, 15, 1) != []


def test_a_failed_check_fails_the_run(capsys):
    workload = WORKLOADS["long-cs"](SMOKE)
    rep = run.run_rep(workload, 1)
    rep.outcomes[0].errors.append("injected")
    assert not run.report([rep], run.end_to_end([rep], [rep.setup_s]))
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] == rep.outcomes[0].attempted


# ---------------------------------------------------------------------------
# the command-line contract
# ---------------------------------------------------------------------------

def _benchmark_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_cli_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "long-cs",
         "--seed", "2", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] > 0
    assert set(last["metrics"]) == {m["name"]
                                    for m in _benchmark_json()["end_to_end"]}


def test_cli_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long-cs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
