"""Command-line interface.

Subcommands: vocab (build a vocabulary file), train, sample, eval, mi,
dim, inspect. All randomness flows from explicit --seed flags; identical
invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings

import numpy as np

from . import corpus, diagnostics, model, sampling, training
from .errors import IsotnError, UnsupportedTopologyError
from .manifold import gauge_orbit_rank, moduli_dimension, real_stiefel_dim
from .model_io import PRNG_NAME, ModelBundle, load_model, save_model
from .network import random_network
from .tensor_core import _STREAM_INIT, _STREAM_SAMPLE, _rng


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IsotnError(f"cannot read {path}: {exc.strerror}") from exc


def _parse_bond(text: str):
    parts = [p for p in text.split(",") if p]
    if not parts:
        raise ValueError("--bond-dims must name at least one dimension")
    vals = [int(p) for p in parts]
    return vals[0] if len(vals) == 1 else vals


def cmd_vocab(args) -> int:
    vocab = corpus.build_vocab(_read_text(args.data), args.scheme, args.max_size)
    corpus.save_vocab(vocab, args.out)
    print(f"wrote {vocab.size} symbols to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = training.TrainConfig(
        learning_rate=args.eta, steps=args.steps, batch_size=args.batch, seed=args.seed,
        checkpoint_every=args.checkpoint_every,
    )
    vocab = corpus.load_vocab(args.vocab, args.scheme)
    tokens = corpus.tokenize(_read_text(args.data), vocab)
    sample_set = corpus.windows(tokens, args.n, args.stride)
    net = random_network(args.graph, args.n, vocab.size, _parse_bond(args.bond_dims),
                         _rng(args.seed, _STREAM_INIT))

    def checkpoint(step, snapshot):
        save_model(ModelBundle(snapshot, vocab, args.graph, args.seed), f"{args.out}.step{step}")

    trained, trace = training.train(net, sample_set, cfg, on_checkpoint=checkpoint)
    save_model(ModelBundle(trained, vocab, args.graph, args.seed), args.out)
    trace_path = args.trace or args.out + ".trace.csv"
    with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trace.to_csv())
    first = trace.records[0].loss if trace.records else math.nan
    last = trace.records[-1].loss if trace.records else math.nan
    print(f"trained {args.steps} steps on |S|={sample_set.cardinality}: "
          f"loss {first:.6f} -> {last:.6f}; model {args.out}; trace {trace_path}")
    return 0


def cmd_sample(args) -> int:
    bundle = load_model(args.model)
    for block in sampling.sample_blocks(bundle.net, args.count, _rng(args.seed, _STREAM_SAMPLE)):
        print("\n".join(" ".join(str(x) for x in s) if bundle.symbols is None
                        else corpus.detokenize(s, bundle.symbols) for s in block), flush=True)
    return 0


def cmd_eval(args) -> int:
    bundle = load_model(args.model)
    if bundle.symbols is None:
        raise IsotnError("model file carries no vocabulary; cannot tokenize data")
    tokens = corpus.tokenize(_read_text(args.data), bundle.symbols)
    sample_set = corpus.windows(tokens, bundle.net.n_sites, args.stride)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        free_energy = model.log_likelihood(bundle.net, sample_set)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    per_seq = free_energy / sample_set.cardinality
    per_token = per_seq / bundle.net.n_sites
    print(f"sequences          {sample_set.cardinality}")
    print(f"mean F per seq     {per_seq:.6f}")
    print(f"cross-entropy/tok  {per_token:.6f}")
    if math.isfinite(per_token) and per_token < 700:  # exp() overflows beyond
        print(f"perplexity         {math.exp(per_token):.6f}")
    else:
        print("perplexity         inf")
    return 0


def cmd_mi(args) -> int:
    if bool(args.model) == bool(args.data):
        raise IsotnError("give exactly one of --model or --data")
    if args.model:
        source = load_model(args.model).net
        label = args.model
    else:
        if not args.vocab:
            raise IsotnError("--data mode needs --vocab")
        vocab = corpus.load_vocab(args.vocab, args.scheme)
        sample_set = corpus.windows(corpus.tokenize(_read_text(args.data), vocab), args.n, args.stride)
        source = np.repeat(sample_set.rows, sample_set.counts, axis=0)
        label = args.data
    curve = diagnostics.decay_curve(source, args.lmax)
    fits = {kind: diagnostics._safe_fit(curve, kind) for kind in ("power", "exponential")}

    print(f"# mutual information decay: {label}")
    print(f"{'l':>4s}  {'I(l)':>14s}")
    for l, v in curve.points:
        print(f"{l:4d}  {v:14.6e}")
    for kind in ("power", "exponential"):
        print(diagnostics.format_fit_line(kind, fits[kind]))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            for key, value in diagnostics.curve_records(curve, fits):
                fh.write(f"{key} {value}\n")
        print(f"wrote {args.out}")
    return 0


def cmd_dim(args) -> int:
    net = load_model(args.model).net
    try:
        dim = moduli_dimension(net)
    except UnsupportedTopologyError:
        dim = None
    rank = gauge_orbit_rank(net)
    real = real_stiefel_dim(net)
    print(f"moduli dimension   {'- (the closed-form count covers trees only)' if dim is None else dim}")
    print(f"stiefel real dim   {real}")
    print(f"gauge orbit rank   {rank}")
    if dim is None:
        print(f"quotient real dim  {real - rank}")
    else:
        quotient = (real - rank) / 2
        print(f"(real - rank)/2    {quotient:g}  "
              f"[{'consistent' if quotient == dim else 'INCONSISTENT'}]")
    return 0


def cmd_inspect(args) -> int:
    bundle = load_model(args.model)
    net = bundle.net
    q = net.quiver
    print(f"kind               {bundle.kind}")
    print(f"sites              {net.n_sites}")
    print(f"site dims          {sorted(set(net.site_dims))}")
    print(f"vertices           {len(q.vertices)}")
    print(f"internal edges     {len(q.internal_edges)}")
    print(f"layers             {[len(l) for l in q.plan.layers]}")
    print(f"bond dims          {sorted(set(net.edge_dim[e] for e in q.internal_edges)) or '-'}")
    print(f"max iso violation  {net.max_isometry_violation():.3e}")
    print(f"prng / seed        {PRNG_NAME} / {bundle.seed}")
    if bundle.symbols is not None:
        print(f"symbols            {bundle.symbols.size} ({bundle.symbols.scheme})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isotn",
                                     description="isometric tensor-network sequence models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vocab", help="build a vocabulary file from text")
    p.add_argument("--data", required=True)
    p.add_argument("--scheme", choices=corpus.SCHEMES, default="chars")
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("train", help="train a model on windowed text")
    p.add_argument("--graph", choices=("chain", "tree", "mera"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bond-dims", default="2")
    p.add_argument("--vocab", required=True)
    p.add_argument("--scheme", choices=corpus.SCHEMES, default="chars")
    p.add_argument("--data", required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="draw sequences from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="mean free energy / perplexity on data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--stride", type=int, default=1)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mi", help="mutual-information decay curve and fits")
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--vocab")
    p.add_argument("--scheme", choices=corpus.SCHEMES, default="chars")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mi)

    p = sub.add_parser("dim", help="moduli dimension and gauge-rank consistency")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("inspect", help="summarize a model file")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IsotnError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = " ".join(str(exc).split())[:160]
        print(f"error: {args.command} ran out of memory" + (f" ({detail})" if detail else ""),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
