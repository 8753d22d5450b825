"""Tests of the benchmark's own code, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import run
import textgen
import tracing
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "train_tree": dict(n=4, bond=2, batch=4, eta=0.005, steps_per_call=2, text_chars=400),
    "eval_chain": dict(n=4, bond=2, windows_per_op=4, op_inputs=3, text_chars=400,
                       checked_inputs=2, traced_calls=2),
    "sample_tree": dict(n=4, bond=2, draws_per_op=2, text_chars=400),
    "mi_decay": dict(n=8, l_max=3),
}
SECONDS = 0.05


def tiny(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](seed, tmp_path, **TINY[name])


def test_text_has_all_27_symbols_and_repeats_under_a_seed():
    train, heldout = textgen.corpus(5, 300, 200)
    assert set(train) == set(textgen.ALPHABET)
    assert set(heldout) <= set(train)
    assert (train, heldout) == textgen.corpus(5, 300, 200)
    assert textgen.corpus(6, 300, 200)[0] != train


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    cls = workloads.WORKLOADS[name]
    monkeypatch.setitem(workloads.WORKLOADS, name,
                        lambda seed, workdir: cls(seed, workdir, **TINY[name]))
    assert run.run_one(name, 3, SECONDS, trace) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert tracing.installed_wrappers() == []


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_call_counts_repeat_across_traced_runs(name, tmp_path):
    counts = []
    for _ in range(2):
        metrics, _ = run.run_traced(tiny(name, tmp_path), SECONDS, tmp_path / "spans.csv.gz")
        counts.append({k: v for k, v in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert any(v > 0 for v in counts[0].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_no_wrapper_is_installed_in_the_untraced_run(name, tmp_path, monkeypatch):
    wl = tiny(name, tmp_path)
    seen = []
    real_call = wl.call

    def spying_call(k):
        seen.append(tracing.installed_wrappers())
        return real_call(k)

    monkeypatch.setattr(wl, "call", spying_call)
    run.run_untraced(wl, SECONDS)
    assert seen and all(found == [] for found in seen)


def test_tracer_restores_originals_and_nests_spans(tmp_path):
    tracer = tracing.Tracer()
    original = np.tensordot
    with tracer:
        assert np.tensordot is not original
        assert "numpy.tensordot" in tracing.installed_wrappers()
        tracer.current_op = 0
        net = workloads.network.random_network("tree", 4, 2, 2, workloads.philox(0, 0))
        workloads.model.born_probability(net, (0, 1, 0, 1))
    assert np.tensordot is original
    summary = tracer.summary({0})
    assert summary["network.amplitude"]["calls"] == 1
    amp = summary["network.amplitude"]
    assert 0.0 <= amp["self_s"] <= amp["s"]
    assert summary["numpy.tensordot"]["calls"] > 0


def test_checks_catch_a_wrong_output(tmp_path):
    wl = tiny("eval_chain", tmp_path)
    wl.setup()
    res = wl.call(0)
    wrong = workloads.CallResult(res.latencies, res.items, res.output * 1.5)
    assert wl.check(0, wrong)  # against the chain rule
    wl.setup()
    assert wl.check(0, res) == []
    assert wl.check(len(wl.inputs), wrong)  # against the first score of the input

    wl = tiny("mi_decay", tmp_path)
    wl.setup()
    res = wl.call(0)
    assert wl.check(0, res) == []
    member = res.output[0][0]
    bad = workloads.diagnostics.DecayCurve(((1, 1.0),))  # above log 2
    assert wl.check(0, workloads.CallResult([1.0], 1, [(member, bad)]))


def test_tail_latency_keeps_ten_ops_beyond():
    tail = run.tail_latency([float(x) for x in range(100)])
    assert tail["percentile"] == 90.0 and tail["ops_beyond"] >= 10
    assert run.tail_latency([1.0] * 5) is None
