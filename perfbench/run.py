"""isotn benchmark: four user workloads, timed end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload train_tree --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --out results.json

A single workload runs in this process. With ``--trace 0`` it times the ops
with no wrapper installed and reports the end-to-end metrics; with
``--trace 1`` it alternates an untraced and a traced replay of the same
block of ops and reports per-layer metrics and the tracing overhead. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A results file with the machine,
the build and every figure is written under ``.perfbench_out/``.

``--workload all`` runs every workload, untraced and traced, each in a
fresh process, prints every metric with its unit and sample count, and
with ``--out`` writes all results files into one JSON file.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("train_tree", "eval_chain", "sample_tree", "mi_decay")
SETUP_REPEATS = 15

END_TO_END = (
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# layers timed per op of the traced replay; "calls" is a count, "s" inclusive
# busy seconds, "self_s" inclusive minus direct children
OP_LAYERS = (
    ("training.mean_gradient", ("s",)),
    ("manifold.tangent_project", ("s",)),
    ("manifold.retract", ("s", "self_s")),
    ("tensor_core.project_to_isometry", ("s", "calls")),
    ("tensor_core.is_isometry", ("s", "calls")),
    ("network.TensorNetwork.max_isometry_violation", ("s",)),
    ("network.amplitude", ("s", "calls")),
    ("model.log_likelihood", ("s",)),
    ("network.site_marginal", ("s", "calls")),
    ("sampling.conditional_distribution", ("s", "calls")),
    ("diagnostics.decay_curve", ("s",)),
    ("diagnostics.fit_decay", ("s",)),
    ("graph.topological_layers", ("s", "calls")),
    ("graph.is_tree", ("s", "calls")),
    ("numpy.tensordot", ("s", "calls")),
)
# layers timed per set-up
SETUP_LAYERS = (
    "corpus.build_vocab", "corpus.tokenize", "corpus.windows",
    "network.random_network", "model_io.save_model", "model_io.load_model",
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run emits, with its unit."""
    names = [(f"{layer}.{field}", "count" if field == "calls" else "s")
             for layer, fields in OP_LAYERS for field in fields]
    names += [("sampling.prefix_hit_ratio", "ratio"),
              ("diagnostics.site_marginal_per_pair", "count")]
    names += [(f"{layer}.s", "s") for layer in SETUP_LAYERS]
    names += [("trace.items_per_s", "1/s"), ("trace.overhead_pct", "%")]
    return names


def bootstrap() -> None:
    """One BLAS thread unless the environment says otherwise; import isotn from src/.

    The workloads' matrices are at most a few hundred by eight, too small to
    gain from BLAS threads, and an idle BLAS thread spinning on another CPU
    makes the timings depend on what else runs there.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import isotn

    if not Path(isotn.__file__).resolve().is_relative_to(src):
        raise ImportError(f"isotn imported from {isotn.__file__}, not from {src}")


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True, timeout=30).stdout.strip()


def machine_info(seed: int) -> dict:
    """The machine and build the figures belong to."""
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    info = {
        "seed": seed,
        "commit": None,
        "dirty": None,
        "source_sha256": digest.hexdigest(),
        "cpu_affinity_count": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    if (ROOT / ".git").exists():
        try:
            info["commit"] = _git("rev-parse", "HEAD")
            info["dirty"] = bool(_git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def tail_latency(lat_ms: list[float]) -> dict | None:
    """Highest percentile with at least ten ops beyond it."""
    ordered = sorted(lat_ms)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        idx = math.ceil(len(ordered) * pct / 100.0) - 1
        beyond = len(ordered) - 1 - idx
        if idx >= 0 and beyond >= 10:
            return {"percentile": pct, "ms": ordered[idx], "ops_beyond": beyond}
    return None


def run_calls(wl, *, seconds: float | None = None, calls: int | None = None,
              before_call=None, check: bool = True) -> dict:
    """Closed loop from the post-set-up state for ``seconds`` of op time or ``calls`` calls.

    Only the calls are timed. With ``check`` each output is checked as soon as
    its call returns, outside the timed region, and then dropped, so memory
    does not grow with the op count; otherwise the outputs are returned.
    """
    wl.reset()
    results, latencies, problems = [], [], []
    attempted = failed = items = 0
    busy = 0.0
    k = 0
    while (calls is None or k < calls) and (seconds is None or busy < seconds):
        if before_call:
            before_call(k)
        t0 = time.perf_counter()
        try:
            res = wl.call(k)
        except Exception:  # an op that raises is counted, not fatal
            busy += time.perf_counter() - t0
            problems.append(f"call {k} raised:\n{traceback.format_exc(limit=3)}")
            attempted += wl.ops_per_call
            failed += wl.ops_per_call
        else:
            busy += time.perf_counter() - t0
            latencies += res.latencies
            items += res.items
            attempted += len(res.latencies)
            if check:
                found = wl.check(k, res)
                failed += len(res.latencies) if found else 0
                problems += found
            else:
                results.append((k, res))
        k += 1
    return {"results": results, "latencies": latencies, "items": items, "busy_s": busy,
            "attempted": attempted, "failed": failed, "problems": problems}


def check_results(wl, phase: dict) -> None:
    """Check the outputs a ``check=False`` phase kept, adding to its counts."""
    for k, res in phase["results"]:
        found = wl.check(k, res)
        phase["failed"] += len(res.latencies) if found else 0
        phase["problems"] += found


def timed_setup(wl) -> float:
    """Time one set-up on a shallow copy, so the ops' state is left alone."""
    probe = copy.copy(wl)
    t0 = time.perf_counter()
    probe.setup()
    return time.perf_counter() - t0


def run_untraced(wl, seconds: float) -> tuple[dict, dict]:
    """Time the ops for ``seconds``, with set-ups spread evenly between them.

    Spreading the set-ups over the run exposes them to the same host load as
    the ops, instead of to whatever happened in its first second.
    """
    wl.setup()
    run_calls(wl, calls=1)  # warm-up: lazy imports and first-call costs
    setups: list[float] = []
    start = time.perf_counter()

    def spread_setups(k):
        while len(setups) < SETUP_REPEATS and (
                time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS):
            setups.append(timed_setup(wl))

    phase = run_calls(wl, seconds=seconds, before_call=spread_setups)
    while len(setups) < SETUP_REPEATS:
        setups.append(timed_setup(wl))
    t0 = time.perf_counter()
    phase["problems"] += wl.finish()
    finish_s = time.perf_counter() - t0
    lat_ms = [x * 1e3 for x in phase["latencies"]]
    metrics = {
        "items_per_s": phase["items"] / phase["busy_s"],
        "op_p50_ms": statistics.median(lat_ms) if lat_ms else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "ops": len(lat_ms),
        "items": phase["items"],
        "item": wl.item,
        "timed_s": phase["busy_s"],
        "setups": len(setups),
        "setup_s_all": setups,
        "op_ms_quartiles": statistics.quantiles(lat_ms, n=4) if len(lat_ms) >= 2 else None,
        "op_ms_all": lat_ms,
        "tail": tail_latency(lat_ms),
        "finish_s": finish_s,
    }
    return metrics, {"attempted": phase["attempted"], "failed": phase["failed"],
                     "problems": phase["problems"], "detail": detail}


def run_traced(wl, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced replays of one block of ops for ``seconds``.

    Every block restarts from the post-set-up state, so each traced block does
    the same work and the per-op counts do not depend on how many blocks ran.
    """
    from tracing import SETUP_OP, Tracer

    tracer = Tracer()
    wl.setup()
    with tracer:
        wl.setup()
    run_calls(wl, calls=1)  # warm-up
    untraced_s, traced_s = [], []
    attempted = failed = traced_ops = traced_items = 0
    problems: list[str] = []
    op_base = 0
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < seconds:
        plain = run_calls(wl, calls=wl.traced_calls)
        with tracer:
            traced = run_calls(wl, calls=wl.traced_calls, check=False,
                               before_call=lambda k: setattr(tracer, "current_op", op_base + k))
            tracer.current_op = op_base + wl.traced_calls
            finish_problems = wl.finish()
        check_results(wl, traced)
        problems += finish_problems
        op_base += wl.traced_calls + 1
        untraced_s.append(plain["busy_s"])
        traced_s.append(traced["busy_s"])
        traced_ops += len(traced["latencies"])
        traced_items += traced["items"]
        for phase in (plain, traced):
            attempted += phase["attempted"]
            failed += phase["failed"]
            problems += phase["problems"]

    op_ids = set(tracer.op) - {SETUP_OP}
    ops = max(traced_ops, 1)
    per_op = tracer.summary(op_ids)
    per_setup = tracer.summary({SETUP_OP})
    metrics = {}
    for layer, fields in OP_LAYERS:
        row = per_op.get(layer, {})
        for field in fields:
            metrics[f"{layer}.{field}"] = row.get(field, 0) / ops
    cond_calls = per_op.get("sampling.conditional_distribution", {}).get("calls", 0)
    metrics["sampling.prefix_hit_ratio"] = (
        1.0 - cond_calls / (traced_items * wl.n) if wl.item == "draw" else 0.0)
    marg_calls = per_op.get("network.site_marginal", {}).get("calls", 0)
    metrics["diagnostics.site_marginal_per_pair"] = (
        marg_calls / traced_items if wl.item == "pair" else 0.0)
    for layer in SETUP_LAYERS:
        metrics[f"{layer}.s"] = per_setup.get(layer, {}).get("s", 0.0)
    med_plain, med_traced = statistics.median(untraced_s), statistics.median(traced_s)
    metrics["trace.items_per_s"] = traced_items / len(traced_s) / med_traced
    metrics["trace.overhead_pct"] = 100.0 * (med_traced / med_plain - 1.0)
    tracer.write(spans_path)
    detail = {
        "blocks": len(traced_s),
        "calls_per_block": wl.traced_calls,
        "traced_ops": traced_ops,
        "untraced_block_s": untraced_s,
        "traced_block_s": traced_s,
        "spans": len(tracer.start),
        "layers_per_op": {k: {f: v / ops for f, v in row.items()} for k, row in per_op.items()},
        "layers_per_setup": per_setup,
    }
    return metrics, {"attempted": attempted, "failed": failed,
                     "problems": problems, "detail": detail}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, OUT_DIR)
    tag = f"{name}-s{seed}-t{int(trace)}"
    if trace:
        spans_path = OUT_DIR / f"{tag}-spans.csv.gz"
        metrics, outcome = run_traced(wl, seconds, spans_path)
        outcome["detail"]["spans_file"] = os.path.relpath(spans_path, ROOT)
        units = dict(per_layer_names())
    else:
        metrics, outcome = run_untraced(wl, seconds)
        units = dict(END_TO_END)
    correct = outcome["failed"] == 0 and not outcome["problems"]
    record = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "machine": machine_info(seed),
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "op_fail_ratio": outcome["failed"] / max(outcome["attempted"], 1),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": outcome["detail"],
        "problems": outcome["problems"][:20],
    }
    results_path = OUT_DIR / f"{tag}.json"
    results_path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in outcome["problems"][:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print_record(record)
    print(f"results {os.path.relpath(results_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": record["metrics"]}))
    return 0


def print_record(rec: dict) -> None:
    """Every metric by name, with its unit and sample count."""
    d = rec["detail"]
    print(f"# {rec['workload']} seed {rec['machine']['seed']} trace {rec['trace']}")
    if rec["trace"]:
        counts = {"": f"per op over {d['traced_ops']} traced ops in {d['blocks']} blocks"}
        counts.update({f"{layer}.s": "per set-up, one traced set-up" for layer in SETUP_LAYERS})
    else:
        counts = {
            "items_per_s": f"{d['items']} {d['item']}s in {d['timed_s']:.2f} s",
            "op_p50_ms": f"{d['ops']} ops",
            "setup_s": f"median of {d['setups']} set-ups",
            "peak_rss_mib": "1 process",
        }
    for name, m in rec["metrics"].items():
        note = counts.get(name, counts.get("", ""))
        print(f"  {name:50s} {m['value']:14.6g} {m['unit']:6s} {note}")
    print(f"  {'op_fail_ratio':50s} {rec['op_fail_ratio']:14.6g} {'ratio':6s} "
          f"{rec['failed']} of {rec['attempted']} ops")
    tail = d.get("tail")
    if tail:
        print(f"  {'op_p%g_ms' % tail['percentile']:50s} {tail['ms']:14.6g} {'ms':6s} "
              f"{tail['ops_beyond']} ops beyond")


def print_tables(records: list[dict]) -> None:
    """End-to-end and per-layer metrics side by side, one column per workload."""
    for trace, title in ((0, "end to end"), (1, "per layer, traced")):
        recs = [r for r in records if r["trace"] == trace]
        if not recs:
            continue
        names = list(recs[0]["metrics"]) + ["op_fail_ratio"]
        print(f"\n## {title}")
        print(f"{'metric':48s} {'unit':6s}" + "".join(f" {r['workload']:>12s}" for r in recs))
        for name in names:
            unit = recs[0]["metrics"][name]["unit"] if name in recs[0]["metrics"] else "ratio"
            cells = [r["metrics"][name]["value"] if name in r["metrics"] else r[name]
                     for r in recs]
            print(f"{name:48s} {unit:6s}" + "".join(f" {v:12.5g}" for v in cells))


def run_all(seed: int, seconds: float, out: Path | None) -> int:
    """Each workload untraced then traced, each in a fresh process."""
    records = []
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace {trace}: exit code {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            rec = json.loads((OUT_DIR / f"{name}-s{seed}-t{trace}.json").read_text())
            print_record(rec)
            ok = ok and rec["correct"]
            records.append(rec)
    print_tables(records)
    if out is not None:
        out.write_text(json.dumps({"seed": seed, "seconds": seconds, "runs": records},
                                  indent=1) + "\n")
        print(f"wrote {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="with --workload all: write every results file into this file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        bootstrap()
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.out)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
