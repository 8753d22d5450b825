"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one `criterion NN PASS/FAIL` line (run with ``-s`` to see
them as they execute); assertions carry the same condition, so the pytest
outcome matches the printed verdict.
"""

import math
import time

import numpy as np
import pytest

from isotn.cli import main as cli_main
from isotn.diagnostics import compare_decay, decay_report_records, fit_decay, render_decay_report
from isotn.diagnostics import DecayCurve
from isotn.graph import Quiver, topological_layers
from isotn.manifold import gauge_orbit_rank, moduli_dimension, real_stiefel_dim, retract, tangent_project
from isotn.model import SampleMultiset, SymbolSet, born_probability, empirical_distribution, kl_divergence
from isotn.model_io import ModelBundle, load_model, save_model
from isotn.dense import evaluate, intermediate_state, operator_flow, state
from isotn.network import TensorNetwork, amplitude, random_network, random_tensors
from isotn.sampling import conditional_distribution, sample
from isotn.tensor_core import IndexSplit, is_isometry
from isotn.training import TrainConfig, gradient, train

from conftest import enumerate_sequences, philox, single_vertex_net


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def six_leaf_tree(seed: int) -> TensorNetwork:
    """Directed tree with 6 observables: root feeding two 3-way branches."""
    q = Quiver((0, 1, 2), (1, 2), (0,), (3, 4, 5, 6, 7, 8),
               {1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 2},
               {0: 0, 1: 1, 2: 2})
    dims = {0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2, 7: 2, 8: 2}
    return TensorNetwork(q, dims, random_tensors(q, dims, philox(seed)))


def test_criterion_01_amplitude_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [("chain", n) for n in range(1, 9)] + [("tree", n) for n in (2, 4, 8)] + [("mera", 4)]
    for kind, n in cases:
        net = random_network(kind, n, 2, 3, philox(100 + n))
        psi = state(net)
        for s in enumerate_sequences(net.site_dims):
            worst = max(worst, abs(amplitude(net, s) - complex(psi[s])))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-12 and elapsed < 10.0,
           f"amplitude vs full-state max err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_born_normalization():
    worst = 0.0
    for kind, n in (("chain", 6), ("tree", 8), ("mera", 4)):
        for k in range(50):
            net = random_network(kind, n, 2, 2 + (k % 3), philox(1000 * n + k))
            total = sum(born_probability(net, s) for s in enumerate_sequences(net.site_dims))
            worst = max(worst, abs(total - 1.0))
    report(2, worst <= 1e-8, f"max |sum mu - 1| = {worst:.2e} over 150 nets")


def test_criterion_03_isometry_closure():
    ok = True
    worst_kind = ""
    for kind, n in (("chain", 6), ("tree", 8), ("mera", 4)):
        for k in range(10):
            net = random_network(kind, n, 2, 2 + (k % 3), philox(7000 + 10 * k))
            ev = evaluate(net)
            n_out = len(net.quiver.out_edges)
            split = IndexSplit(tuple(range(n_out, ev.ndim)), tuple(range(n_out)))
            if not is_isometry(ev, split, 1e-8):
                ok = False
                worst_kind = f"{kind} n={n} draw {k}"
    report(3, ok, "evaluate() isometric at 1e-8 for 30 random nets" +
           (f" (failed: {worst_kind})" if not ok else ""))


def test_criterion_04_gradient_vs_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    h = 1e-5
    for kind, n in (("chain", 8), ("tree", 8), ("mera", 4)):
        done = 0
        draw = 0
        while done < 10:
            gen = philox(5000 + 97 * draw + (0 if kind == "chain" else 1 if kind == "tree" else 2))
            draw += 1
            net = random_network(kind, n, 2, 3, gen)
            s = tuple(gen.integers(0, 2, n))
            if abs(amplitude(net, s)) < 1e-2:
                continue  # keep F well-conditioned so the fd quotient is meaningful
            done += 1
            g = gradient(net, s)
            for _ in range(20):
                raw = {v: gen.standard_normal(t.shape) + 1j * gen.standard_normal(t.shape)
                       for v, t in net.vertex_tensor.items()}
                xi = tangent_project(net, raw)
                scale = math.sqrt(sum(float(np.sum(np.abs(x) ** 2)) for x in xi.values()))
                xi = {v: x / scale for v, x in xi.items()}
                analytic = 2.0 * sum(float(np.real(np.vdot(xi[v], g[v]))) for v in g)
                f_plus = -2.0 * math.log(abs(amplitude(retract(net, xi, h), s)))
                f_minus = -2.0 * math.log(abs(amplitude(retract(net, xi, -h), s)))
                fd = (f_plus - f_minus) / (2 * h)
                worst = max(worst, abs(analytic - fd) / max(abs(fd), 1e-3))
    elapsed = time.perf_counter() - t0
    report(4, worst < 1e-5 and elapsed < 60.0,
           f"max relative gradient error {worst:.2e} (600 directions, {elapsed:.1f}s)")


def test_criterion_05_manifold_maintenance():
    net = random_network("tree", 8, 2, 2, philox(31))
    entries = {tuple(philox(40 + i).integers(0, 2, 8)): 1 + i % 3 for i in range(8)}
    sample_set = SampleMultiset(8, entries)
    cfg = TrainConfig(learning_rate=0.05, steps=1000, batch_size=4, seed=5)
    trained, trace = train(net, sample_set, cfg)
    worst = max(r.max_isometry_violation for r in trace.records)
    report(5, worst <= 1e-8 and len(trace.records) == 1000,
           f"max isometry violation over 1000 steps = {worst:.2e}")


def test_criterion_06_learning_sanity():
    t0 = time.perf_counter()
    target = SampleMultiset(4, {(0, 0, 0, 0): 40, (0, 0, 1, 1): 30,
                                (1, 1, 0, 0): 20, (1, 1, 1, 1): 10})
    net = random_network("tree", 4, 2, 2, philox(0))
    cfg = TrainConfig(learning_rate=0.05, steps=2000, batch_size=100, seed=0)
    trained, trace = train(net, target, cfg)
    emp = empirical_distribution(target)
    mu = {s: born_probability(trained, s) for s in emp}
    kl = kl_divergence(emp, mu)
    losses = np.array([r.loss for r in trace.records])
    smoothed = np.convolve(losses, np.ones(50) / 50, mode="valid")
    monotone = bool(np.all(np.diff(smoothed) <= 1e-9))
    elapsed = time.perf_counter() - t0
    report(6, kl < 0.01 and monotone and elapsed < 120.0,
           f"KL={kl:.5f}, smoothed trace monotone={monotone}, {elapsed:.1f}s")


def test_criterion_07_sampler_exactness():
    net = six_leaf_tree(0)
    seqs = enumerate_sequences(net.site_dims)
    worst = 0.0
    for s in seqs:
        p = born_probability(net, s)
        if p < 1e-14:
            continue
        chained = 1.0
        for k in range(6):
            chained *= conditional_distribution(net, s[:k])[s[k]]
        worst = max(worst, abs(chained - p))
    n_draws = 200_000
    draws = sample(net, n_draws, philox(7))
    counts = {}
    for d in draws:
        counts[d] = counts.get(d, 0) + 1
    tv = 0.5 * sum(abs(counts.get(s, 0) / n_draws - born_probability(net, s)) for s in seqs)
    report(7, worst <= 1e-10 and tv < 0.01,
           f"chain-rule max err {worst:.2e}, TV({n_draws} draws) = {tv:.4f}")


def test_criterion_08_operator_flow_preserves_expectations():
    net = random_network("tree", 8, 2, 2, philox(12))
    layering = topological_layers(net.quiver)
    d = int(np.prod(net.site_dims))
    psi = state(net).ravel()
    gen = philox(13)
    worst = 0.0
    for _ in range(10):
        op = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / math.sqrt(d)
        reference = complex(np.vdot(psi, op @ psi))
        for l in range(len(layering.layers) + 1):
            psi_l = intermediate_state(net, layering, l)
            o_l = operator_flow(net, layering, op, l)
            worst = max(worst, abs(complex(np.vdot(psi_l, o_l @ psi_l)) - reference))
    report(8, worst <= 1e-10,
           f"max |<psi_l o_l psi_l> - <Psi op Psi>| = {worst:.2e} (10 ops x all layers)")


def test_criterion_09_moduli_geometry():
    ok = True
    details = []
    for w in (2, 3, 5):
        vec = np.zeros(w)
        vec[0] = 1.0
        net = single_vertex_net(vec)
        if moduli_dimension(net) != w - 1:
            ok = False
            details.append(f"P^{w - 1} case broke")
    gen = philox(21)
    for k in range(10):
        n = int(gen.choice([2, 4, 8, 16]))
        bond = int(gen.choice([2, 3, 4]))
        net = random_network("tree", n, 2, bond, philox(600 + k))
        rank = gauge_orbit_rank(net)
        real = real_stiefel_dim(net)
        if (real - rank) % 2 != 0 or (real - rank) // 2 != moduli_dimension(net):
            ok = False
            details.append(f"tree n={n} bond={bond}: ({real}-{rank})/2 != {moduli_dimension(net)}")
    report(9, ok, "quotient dimension accounting exact on 10 random trees + P^(w-1) cases"
           + ("; ".join([""] + details)))


def test_criterion_10_decay_fit_round_trip():
    ls = range(1, 51)
    power = DecayCurve(tuple((l, 2.0 * l ** (-0.37) + 0.01) for l in ls))
    alpha = fit_decay(power, "power").params[1]
    power2 = DecayCurve(tuple((l, 1.3 * l ** (-0.8) + 0.001) for l in ls))
    alpha2 = fit_decay(power2, "power").params[1]
    exp1 = DecayCurve(tuple((l, math.exp(-0.5 * l)) for l in range(1, 31)))
    m1 = fit_decay(exp1, "exponential").params[1]
    exp2 = DecayCurve(tuple((l, 0.7 * math.exp(-0.2 * l)) for l in range(1, 31)))
    m2 = fit_decay(exp2, "exponential").params[1]
    ok = (abs(alpha - 0.37) <= 0.01 and abs(alpha2 - 0.8) <= 0.01
          and abs(m1 - 0.5) <= 0.01 and abs(m2 - 0.2) <= 0.01)
    report(10, ok, f"recovered alpha={alpha:.4f}/{alpha2:.4f}, m={m1:.4f}/{m2:.4f}")


def test_criterion_11_qualitative_criticality(tmp_path):
    t0 = time.perf_counter()
    mps = random_network("chain", 32, 2, 4, philox(50))
    tree = random_network("tree", 32, 2, 8, philox(51))
    rep = compare_decay(mps, tree, l_max=16, ensemble_size=20, seed=0)
    elapsed = time.perf_counter() - t0
    (tmp_path / "criticality-report.txt").write_text(render_decay_report(rep, "mps", "tree"))
    with open(tmp_path / "criticality-report.kv", "w") as fh:
        for key, value in decay_report_records(rep, "mps", "tree"):
            fh.write(f"{key} {value}\n")
    ok = (rep.verdict_a == "exponential" and rep.delta_r2_b < rep.delta_r2_a
          and elapsed < 600.0 and (tmp_path / "criticality-report.txt").stat().st_size > 0)
    report(11, ok,
           f"mps exponential advantage {rep.delta_r2_a:+.4f} vs tree {rep.delta_r2_b:+.4f}, "
           f"{elapsed:.0f}s, report emitted")


def test_criterion_12_serialization_and_cli_determinism(tmp_path):
    net = random_network("mera", 4, 2, 2, philox(60))
    bundle = ModelBundle(net, SymbolSet(("a", "b"), "chars"), "mera", 60)
    p1, p2 = tmp_path / "m1.isotn", tmp_path / "m2.isotn"
    save_model(bundle, p1)
    save_model(load_model(p1), p2)
    bit_exact = p1.read_bytes() == p2.read_bytes()
    loaded = load_model(p1).net
    exact_tensors = all(
        np.array_equal(loaded.vertex_tensor[v], net.vertex_tensor[v])
        for v in net.quiver.vertices
    )

    data = tmp_path / "data.txt"
    data.write_text("".join(["aabb", "abab", "aaaa", "bbbb"][k % 4] for k in range(200)))
    vocab = tmp_path / "vocab.txt"
    assert cli_main(["vocab", "--data", str(data), "--scheme", "chars", "--out", str(vocab)]) == 0
    runs = []
    for tag in ("r1", "r2"):
        out = tmp_path / f"{tag}.isotn"
        code = cli_main(["train", "--graph", "tree", "--n", "4", "--bond-dims", "2",
                         "--vocab", str(vocab), "--data", str(data), "--stride", "4",
                         "--eta", "0.05", "--steps", "20", "--batch", "16",
                         "--seed", "11", "--out", str(out)])
        assert code == 0
        runs.append((out.read_bytes(), (tmp_path / f"{tag}.isotn.trace.csv").read_bytes()))
    cli_identical = runs[0] == runs[1]
    report(12, bit_exact and exact_tensors and cli_identical,
           f"round-trip bit-exact={bit_exact}, tensors exact={exact_tensors}, "
           f"same-seed CLI byte-identical={cli_identical}")
