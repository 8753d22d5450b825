import hashlib
import re
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isotn import cli, model_io, sampling, training
from isotn.cli import main
from isotn.corpus import load_vocab, save_vocab
from isotn.errors import InputFileError, ModelFileError, ZeroAmplitudeError
from isotn.model import SymbolSet
from isotn.model_io import MAGIC, ModelBundle, load_model, save_model
from isotn.network import random_network

from conftest import deterministic_chain_net, philox, single_vertex_net


@pytest.fixture
def corpus_file(tmp_path):
    gen = philox(5)
    blocks = ["aaaa", "aabb", "bbaa", "bbbb"]
    text = "".join(blocks[k] for k in gen.choice(4, size=400, p=[0.4, 0.3, 0.2, 0.1]))
    path = tmp_path / "data.txt"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def vocab_file(tmp_path, corpus_file):
    path = tmp_path / "vocab.txt"
    assert main(["vocab", "--data", str(corpus_file), "--scheme", "chars",
                 "--out", str(path)]) == 0
    return path


def train_args(corpus_file, vocab_file, out, steps=40, seed=3, extra=()):
    return ["train", "--graph", "tree", "--n", "4", "--bond-dims", "2",
            "--vocab", str(vocab_file), "--data", str(corpus_file),
            "--stride", "4", "--eta", "0.05", "--steps", str(steps),
            "--batch", "32", "--seed", str(seed), "--out", str(out), *extra]


class TestTrainCommand:
    def test_smoke_run_writes_model_and_trace(self, tmp_path, corpus_file, vocab_file):
        out = tmp_path / "model.isotn"
        assert main(train_args(corpus_file, vocab_file, out)) == 0
        assert out.exists()
        trace = (tmp_path / "model.isotn.trace.csv").read_text().splitlines()
        assert trace[0] == "step,loss,max_isometry_violation"
        first = float(trace[1].split(",")[1])
        last = float(trace[-1].split(",")[1])
        assert last < first

    def test_vocab_of_another_scheme_is_rejected(self, tmp_path, capsys):
        data, vocab = tmp_path / "words.txt", tmp_path / "v.txt"
        data.write_text("the cat sat on the mat the cat sat on the hat\n", encoding="utf-8")
        assert main(["vocab", "--data", str(data), "--scheme", "words", "--max-size", "4",
                     "--out", str(vocab)]) == 0
        assert vocab.read_text().split() == ["the", "cat", "on", "sat", "<oov>"]
        capsys.readouterr()
        out = tmp_path / "model.isotn"
        assert main(["train", "--graph", "chain", "--n", "4", "--vocab", str(vocab), "--data",
                     str(data), "--steps", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: vocabulary token 'the' cannot come from scheme 'chars'\n"
        assert not out.exists()

    def test_a_bytes_vocabulary_line_that_is_not_a_number_is_one_error_line(self, tmp_path, corpus_file,
                                                                           capsys):
        vocab, out = tmp_path / "v.txt", tmp_path / "model.isotn"
        vocab.write_text("97\nx98\n", encoding="utf-8")
        assert main(["train", "--graph", "chain", "--n", "4", "--vocab", str(vocab), "--scheme", "bytes",
                     "--data", str(corpus_file), "--steps", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {vocab}, line 2: byte token 'x98' is not a whole number\n"
        assert not out.exists()

    def test_zero_steps_keeps_initial_network(self, tmp_path, corpus_file, vocab_file):
        out = tmp_path / "model.isotn"
        assert main(train_args(corpus_file, vocab_file, out, steps=0, seed=9)) == 0
        bundle = load_model(out)
        expected = random_network(
            "tree", 4, 2, 2,
            np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=9, spawn_key=(0,)))),
        )
        for v in expected.quiver.vertices:
            np.testing.assert_array_equal(bundle.net.vertex_tensor[v], expected.vertex_tensor[v])

    @pytest.mark.parametrize("bond, bad", [("0", 0), ("4,0", 0), ("-2", -2)],
                             ids=["zero", "zero_in_list", "negative"])
    def test_nonpositive_bond_is_one_error_line(self, tmp_path, corpus_file, vocab_file, capsys,
                                                bond, bad):
        args = train_args(corpus_file, vocab_file, tmp_path / "m.isotn", steps=1)
        args[args.index("--n") + 1], args[args.index("--bond-dims") + 1] = "8", bond
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: bond dimension must be positive, got {bad}\n"

    def test_an_empty_bond_list_is_one_error_line(self, tmp_path, corpus_file, vocab_file, capsys):
        args = train_args(corpus_file, vocab_file, tmp_path / "m.isotn", steps=1)
        args[args.index("--bond-dims") + 1] = ","
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --bond-dims must name at least one dimension\n"

    @pytest.mark.parametrize("bond", ["2,a", "2.5", "4,,x"])
    def test_a_bond_that_is_not_a_whole_number_is_one_error_line(self, tmp_path, corpus_file, vocab_file,
                                                                 capsys, bond):
        out_path = tmp_path / "m.isotn"
        args = train_args(corpus_file, vocab_file, out_path, steps=1)
        args[args.index("--bond-dims") + 1] = bond
        assert main(args) == 1
        assert capsys.readouterr() == ("", f"error: --bond-dims takes whole numbers separated by commas, "
                                           f"got {bond!r}\n")
        assert not out_path.exists()

    def test_a_negative_seed_is_one_error_line(self, tmp_path, corpus_file, vocab_file, capsys):
        out_path = tmp_path / "m.isotn"
        assert main(train_args(corpus_file, vocab_file, out_path, steps=1, seed=-1)) == 1
        assert capsys.readouterr() == ("", "error: seed -1 is not a nonnegative integer\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_a_learning_rate_that_is_not_finite_is_one_error_line(self, tmp_path, corpus_file,
                                                                  vocab_file, capsys, eta):
        out_path = tmp_path / "m.isotn"
        assert main(train_args(corpus_file, vocab_file, out_path, steps=1, extra=("--eta", eta))) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: learning rate {eta} is not a finite positive number\n"
        assert not out_path.exists()

    def test_unreadable_data_path_fails_with_message(self, tmp_path, vocab_file, capsys):
        missing = tmp_path / "no-such-file.txt"
        code = main(train_args(missing, vocab_file, tmp_path / "m.isotn"))
        assert code != 0
        assert "no-such-file.txt" in capsys.readouterr().err

    def test_failing_step_is_named(self, tmp_path, corpus_file, vocab_file, capsys, monkeypatch):
        calls = []
        real = training.mean_gradient

        def third_call_fails(net, rows, counts):
            calls.append(rows)
            if len(calls) == 3:
                raise ZeroAmplitudeError((1, 0, 1, 1))
            return real(net, rows, counts)

        monkeypatch.setattr(training, "mean_gradient", third_call_fails)
        assert main(train_args(corpus_file, vocab_file, tmp_path / "m.isotn", steps=5)) == 1
        assert capsys.readouterr().err == (
            "error: step 2: zero amplitude on sequence (1, 0, 1, 1)\n")

    def test_same_seed_runs_byte_identical(self, tmp_path, corpus_file, vocab_file):
        out_a, out_b = tmp_path / "a.isotn", tmp_path / "b.isotn"
        assert main(train_args(corpus_file, vocab_file, out_a, steps=25)) == 0
        assert main(train_args(corpus_file, vocab_file, out_b, steps=25)) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.isotn.trace.csv").read_bytes() == (
            tmp_path / "b.isotn.trace.csv").read_bytes()

    def test_checkpoints_written(self, tmp_path, corpus_file, vocab_file):
        out = tmp_path / "model.isotn"
        assert main(train_args(corpus_file, vocab_file, out, steps=10,
                               extra=["--checkpoint-every", "5"])) == 0
        assert (tmp_path / "model.isotn.step5").exists()
        assert (tmp_path / "model.isotn.step10").exists()
        load_model(tmp_path / "model.isotn.step5")  # valid model file


class TestSampleCommand:
    def _deterministic_model(self, tmp_path):
        net = deterministic_chain_net((0, 1, 1), 2)
        path = tmp_path / "det.isotn"
        save_model(ModelBundle(net, SymbolSet(("a", "b"), "chars"), "chain", 0), path)
        return path

    def test_deterministic_model_identical_lines(self, tmp_path, capsys):
        path = self._deterministic_model(tmp_path)
        assert main(["sample", "--model", str(path), "--count", "4", "--seed", "1"]) == 0
        assert capsys.readouterr().out == "abb\n" * 4

    def test_same_seed_same_bytes(self, tmp_path, corpus_file, vocab_file, capsys):
        out = tmp_path / "model.isotn"
        main(train_args(corpus_file, vocab_file, out, steps=5))
        capsys.readouterr()  # drop the train summary
        main(["sample", "--model", str(out), "--count", "10", "--seed", "7"])
        first = capsys.readouterr().out
        main(["sample", "--model", str(out), "--count", "10", "--seed", "7"])
        assert capsys.readouterr().out == first

    def test_a_negative_seed_is_one_error_line(self, tmp_path, capsys):
        path = self._deterministic_model(tmp_path)
        assert main(["sample", "--model", str(path), "--count", "4", "--seed", "-1"]) == 1
        assert capsys.readouterr() == ("", "error: seed -1 is not a nonnegative integer\n")

    def test_zero_count_empty_output(self, tmp_path, capsys):
        path = self._deterministic_model(tmp_path)
        assert main(["sample", "--model", str(path), "--count", "0", "--seed", "1"]) == 0
        assert capsys.readouterr().out == ""

    def test_negative_count_is_one_error_line(self, tmp_path, capsys):
        path = self._deterministic_model(tmp_path)
        assert main(["sample", "--model", str(path), "--count", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: count must be nonnegative\n"

    def test_blocks_print_as_they_complete(self, tmp_path, capsys, monkeypatch):
        path = self._deterministic_model(tmp_path)
        monkeypatch.setattr(sampling, "_BLOCK_ROWS", 2)
        printed, real = [], cli._rng

        class Uniforms:  # the lines printed when each block's uniforms are drawn
            def __init__(self, seed, stream):
                self.rng = real(seed, stream)

            def random(self, shape):
                printed.append(capsys.readouterr().out.count("\n"))
                return self.rng.random(shape)

        monkeypatch.setattr(cli, "_rng", Uniforms)
        assert main(["sample", "--model", str(path), "--count", "5", "--seed", "1"]) == 0
        assert printed == [0, 2, 2] and capsys.readouterr().out == "abb\n"

    def test_mera_of_fourteen_symbols(self, tmp_path, capsys):
        # the full state has 14**8 entries: 22 GiB for the |ψ|² tables
        net = random_network("mera", 8, 14, 3, philox(44))
        path = tmp_path / "mera.isotn"
        save_model(ModelBundle(net, SymbolSet(tuple("abcdefghijklmn"), "chars"), "mera", 0), path)
        assert main(["sample", "--model", str(path), "--count", "70", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 70 and all(len(l) == 8 and set(l) <= set("abcdefghijklmn") for l in lines)
        assert main(["mi", "--model", str(path), "--lmax", "7"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 + 7 + 2


class TestEvalCommand:
    def test_deterministic_model_zero_cross_entropy(self, tmp_path, capsys):
        net = deterministic_chain_net((0, 1), 2)
        model_path = tmp_path / "det.isotn"
        save_model(ModelBundle(net, SymbolSet(("a", "b"), "chars"), "chain", 0), model_path)
        data = tmp_path / "data.txt"
        data.write_text("ababab", encoding="utf-8")
        assert main(["eval", "--model", str(model_path), "--data", str(data),
                     "--stride", "2"]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("cross-entropy"))
        assert float(line.split()[-1]) == 0.0

    def test_model_without_vocabulary_is_one_error_line(self, tmp_path, capsys):
        model_path = tmp_path / "bare.isotn"
        save_model(ModelBundle(deterministic_chain_net((0, 1), 2), None, "chain", 0), model_path)
        data = tmp_path / "data.txt"
        data.write_text("abab", encoding="utf-8")
        assert main(["eval", "--model", str(model_path), "--data", str(data)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: model file carries no vocabulary; cannot tokenize data\n"

    def test_a_window_of_zero_probability_reads_infinite_perplexity(self, tmp_path, capsys):
        model_path = tmp_path / "det.isotn"
        save_model(ModelBundle(deterministic_chain_net((0, 1), 2), SymbolSet(("a", "b"), "chars"),
                               "chain", 0), model_path)
        data = tmp_path / "held_out.txt"
        data.write_text("abba", encoding="utf-8")  # the window "bb" has probability 0
        assert main(["eval", "--model", str(model_path), "--data", str(data)]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == "perplexity         inf"
        assert err == "warning: sequence (1, 0) has zero model probability; objective is infinite\n"


class TestMiCommand:
    def test_product_model_degenerate_fits(self, tmp_path, capsys):
        net = random_network("chain", 6, 2, 1, philox(2))  # dim-1 bonds: product state
        path = tmp_path / "prod.isotn"
        save_model(ModelBundle(net, SymbolSet(("a", "b"), "chars"), "chain", 0), path)
        kv = tmp_path / "mi.kv"
        assert main(["mi", "--model", str(path), "--lmax", "4", "--out", str(kv)]) == 0
        text = kv.read_text()
        assert "power.degenerate True" in text
        assert "exponential.degenerate True" in text
        keys = [line.split(" ", 1)[0] for line in text.splitlines()]
        assert keys == ["I[1]", "I[2]", "I[3]", "I[4]",
                        "exponential.params", "exponential.r_squared", "exponential.degenerate",
                        "power.params", "power.r_squared", "power.degenerate"]

    def test_data_mode(self, tmp_path, corpus_file, vocab_file, capsys):
        assert main(["mi", "--data", str(corpus_file), "--vocab", str(vocab_file),
                     "--scheme", "chars", "--n", "8", "--lmax", "4"]) == 0
        out = capsys.readouterr().out
        assert "I(l)" in out

    @pytest.mark.parametrize("flags", [["--stride", "0"], ["--n", "0"], ["--n", "-2"]],
                             ids=["stride_0", "n_0", "n_negative"])
    def test_data_mode_rejects_bad_windows(self, corpus_file, vocab_file, capsys, flags):
        assert main(["mi", "--data", str(corpus_file), "--vocab", str(vocab_file),
                     "--lmax", "4", *flags]) == 1
        assert capsys.readouterr().err == "error: window length and stride must be >= 1\n"

    def test_requires_exactly_one_source(self, capsys):
        assert main(["mi", "--lmax", "3"]) == 1

    def test_data_mode_needs_a_vocabulary(self, corpus_file, capsys):
        assert main(["mi", "--data", str(corpus_file), "--lmax", "4"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --data mode needs --vocab\n"


class TestDimCommand:
    def test_single_vertex_prints_one(self, tmp_path, capsys):
        net = single_vertex_net([1.0, 0.0])
        path = tmp_path / "sv.isotn"
        save_model(ModelBundle(net, SymbolSet(("a", "b"), "chars"), "custom", 0), path)
        assert main(["dim", "--model", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == ("moduli dimension   1\n"
                       "stiefel real dim   3\n"
                       "gauge orbit rank   1\n"
                       "(real - rank)/2    1  [consistent]\n")

    def test_mera_prints_the_quotient_real_dimension(self, tmp_path, capsys):
        net = random_network("mera", 8, 2, 2, philox(31))
        path = tmp_path / "mera.isotn"
        save_model(ModelBundle(net, SymbolSet(("a", "b"), "chars"), "mera", 0), path)
        assert main(["dim", "--model", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "moduli dimension   - (the closed-form count covers trees only)"
        real, rank, quotient = (int(line.split()[-1]) for line in lines[1:])
        assert lines[1:] == [f"stiefel real dim   {real}", f"gauge orbit rank   {rank}",
                             f"quotient real dim  {quotient}"]
        # the gauge action on MERA n=8 has a 3-dimensional stabilizer
        gauged = net.quiver.internal_edges + net.quiver.in_edges
        assert rank == sum(net.edge_dim[e] ** 2 for e in gauged) - 3
        assert quotient == real - rank


class TestModelFile:
    def test_save_load_save_byte_identical(self, tmp_path, rng):
        net = random_network("mera", 4, 2, 2, rng)
        bundle = ModelBundle(net, SymbolSet(("a", "b"), "chars"), "mera", 17)
        p1, p2 = tmp_path / "m1.isotn", tmp_path / "m2.isotn"
        save_model(bundle, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_reproduces_tensors_exactly(self, tmp_path, rng):
        net = random_network("tree", 8, 2, 3, rng)
        path = tmp_path / "m.isotn"
        save_model(ModelBundle(net, None, "tree", 0), path)
        loaded = load_model(path).net
        for v in net.quiver.vertices:
            np.testing.assert_array_equal(loaded.vertex_tensor[v], net.vertex_tensor[v])
        assert loaded.edge_dim == net.edge_dim

    def test_loaded_tensors_are_aligned(self, tmp_path, rng):
        path = tmp_path / "m.isotn"
        save_model(ModelBundle(random_network("chain", 4, 3, 2, rng), None, "chain", 0), path)
        assert all(t.flags.aligned for t in load_model(path).net.vertex_tensor.values())

    def test_load_peaks_near_the_tensor_bytes(self, tmp_path):
        net = random_network("chain", 36, 32, 32, philox(6))
        tensor_bytes = sum(t.nbytes for t in net.vertex_tensor.values())
        assert tensor_bytes >= 16 * 2**20
        path = tmp_path / "big.isotn"
        save_model(ModelBundle(net, None, "chain", 0), path)
        del net
        tracemalloc.start()
        try:
            loaded = load_model(path).net
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * tensor_bytes
        assert all(t.ctypes.data % 16 == 0 for t in loaded.vertex_tensor.values())

    def test_save_makes_no_second_copy_of_the_tensors(self, tmp_path):
        net = random_network("chain", 36, 32, 32, philox(6))
        tensor_bytes = sum(t.nbytes for t in net.vertex_tensor.values())
        assert tensor_bytes >= 16 * 2**20
        tracemalloc.start()
        try:
            save_model(ModelBundle(net, None, "chain", 0), tmp_path / "big.isotn")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * tensor_bytes

    def test_corruption_detected(self, tmp_path, rng):
        from isotn.errors import ModelFileError

        net = random_network("tree", 4, 2, 2, rng)
        path = tmp_path / "m.isotn"
        save_model(ModelBundle(net, None, "tree", 0), path)
        blob = bytearray(path.read_bytes())
        blob[-12] ^= 0xFF  # flip a bit inside the binary section
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFileError):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h.replace(b"kind tree", b"kind tr\xffe"),  # not UTF-8
        lambda h: re.sub(rb"edge in (\d+) \d+", rb"edge in \1 x", h),  # not an integer
        lambda h: re.sub(rb"edge in (\d+) \d+", rb"edge in \1 999", h),  # unknown vertex
        lambda h: re.sub(rb"(edge out \d+ \d+) \d+", rb"\1 " + b"9" * 30, h, count=1),  # huge dim
    ], ids=["non_utf8", "non_integer_field", "unknown_vertex", "dim_beyond_int64"])
    def test_corrupted_header_detected(self, tmp_path, rng, edit):
        from isotn.errors import ModelFileError

        path = tmp_path / "m.isotn"
        save_model(ModelBundle(random_network("tree", 4, 2, 2, rng), None, "tree", 0), path)
        raw = path.read_bytes()
        start = len(MAGIC) + 8
        (size,) = struct.unpack("<Q", raw[len(MAGIC):start])
        header = edit(raw[start:start + size])
        assert header != raw[start:start + size]
        path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header + raw[start + size:])
        with pytest.raises(ModelFileError, match=re.escape(str(path))) as info:
            load_model(path)
        assert len(str(info.value)) < len(str(path)) + 250

    def test_every_header_byte_is_checked(self, tmp_path, rng):
        path = tmp_path / "m.isotn"
        save_model(ModelBundle(random_network("tree", 4, 3, 2, rng),
                               SymbolSet(("a", "b", "c"), "chars"), "tree", 5), path)
        raw = path.read_bytes()
        (size,) = struct.unpack("<Q", raw[len(MAGIC):len(MAGIC) + 8])
        for i in range(len(MAGIC) + 8 + size):  # symbols, seed, kind, dims, ...
            blob = bytearray(raw)
            blob[i] ^= 0x01
            path.write_bytes(bytes(blob))
            with pytest.raises(ModelFileError):
                load_model(path)

    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edit=st.one_of(
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), min_size=1, max_size=4),
        st.integers(0, 10**6),
    ))
    def test_flips_and_truncations_raise_model_file_errors(self, tmp_path, edit):
        path = tmp_path / "m.isotn"
        save_model(ModelBundle(random_network("mera", 4, 2, 2, philox(3)),
                               SymbolSet(("a", "b"), "chars"), "mera", 17), path)
        raw = path.read_bytes()
        if isinstance(edit, int):
            blob = raw[:edit % len(raw)]
        else:
            blob = bytearray(raw)
            for i, mask in edit:
                blob[i % len(raw)] ^= mask
            if blob == raw:  # two flips cancelled
                return
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFileError):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h,
        lambda h: h.replace(b'symbol "a"', b'symbol "c"'),
        lambda h: h.replace(b"seed 4\n", b"seed 5\n"),
        lambda h: h.replace(b"kind tree\n", b"kind mera\n"),
    ], ids=["as_written", "symbol", "seed", "kind"])
    def test_a_version_1_file_is_rejected(self, tmp_path, rng, capsys, edit):
        path = tmp_path / "v1.isotn"
        net = random_network("tree", 8, 2, 3, rng)
        save_model(ModelBundle(net, SymbolSet(("a", "b"), "chars"), "tree", 4), path)
        before = path.read_bytes()
        # version 1 checksummed its tensors only, so these header edits kept a valid checksum
        self.rewrite(path, edit, version=1)
        assert path.read_bytes() != before
        with pytest.raises(ModelFileError, match="bad header: unsupported format version 1$"):
            load_model(path)
        assert main(["inspect", "--model", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {path}: bad header: unsupported format version 1\n"

    def test_another_prng_is_rejected(self, tmp_path, rng):
        path = tmp_path / "m.isotn"
        save_model(ModelBundle(random_network("tree", 4, 2, 2, rng), None, "tree", 0), path)
        self.rewrite(path, lambda h: h.replace(b"prng philox\n", b"prng pcg64\n"))
        with pytest.raises(ModelFileError, match="bad header: unsupported PRNG pcg64$"):
            load_model(path)

    def test_nonpositive_dimension_is_a_bad_header(self, tmp_path, rng):
        path = tmp_path / "m.isotn"
        save_model(ModelBundle(random_network("tree", 4, 2, 2, rng), None, "tree", 0), path)
        raw = path.read_bytes()
        start = len(MAGIC) + 8
        (size,) = struct.unpack("<Q", raw[len(MAGIC):start])
        header = re.sub(rb"edge in (\d+) (\d+) \d+", rb"edge in \1 \2 -1", raw[start:start + size])
        body = struct.pack("<Q", len(header)) + header + raw[start + size:-8]
        # a valid checksum, so only the header check can reject it
        path.write_bytes(MAGIC + body + hashlib.blake2b(body, digest_size=8).digest())
        with pytest.raises(ModelFileError, match="bad header: edge 0 has dimension -1"):
            load_model(path)

    @staticmethod
    def rewrite(path, edit, version=2, entry=None):
        """Rewrite the model file at ``path`` as format ``version`` with its
        header passed through ``edit``, its first tensor entry set to
        ``entry`` if one is given, and a valid checksum."""
        raw = path.read_bytes()
        start = len(MAGIC) + 8
        (size,) = struct.unpack("<Q", raw[len(MAGIC):start])
        header = edit(raw[start:start + size].replace(b"format_version 2\n",
                                                      f"format_version {version}\n".encode()))
        binary = bytearray(raw[start + size:-8])
        if entry is not None:
            binary[:16] = np.array([entry], dtype="<c16").tobytes()
        body = struct.pack("<Q", len(header)) + header + bytes(binary)
        checked = body if version != 1 else bytes(binary)  # version 1 checksums the tensors only
        path.write_bytes(MAGIC + body + hashlib.blake2b(checked, digest_size=8).digest())

    @pytest.mark.parametrize("version", [2])
    def test_a_file_cannot_loosen_its_isometry_check(self, tmp_path, rng, version):
        path = tmp_path / "m.isotn"
        save_model(ModelBundle(random_network("tree", 4, 2, 2, rng), None, "tree", 0), path)
        self.rewrite(path, lambda h: h.replace(b"\nend\n", b"\nisometry_tol 1e300\nend\n"),
                     version, entry=5.0)
        with pytest.raises(ModelFileError, match=re.escape(
                "vertex 0 tensor is not isometric (violation 2.491e+01 > tol 1e-08)")):
            load_model(path)

    @pytest.mark.parametrize("version", [2])
    def test_an_older_tolerance_line_is_ignored(self, tmp_path, rng, version):
        net = random_network("tree", 8, 2, 3, rng)
        bundle = ModelBundle(net, SymbolSet(("a", "b"), "chars"), "tree", 4)
        path, again = tmp_path / "old.isotn", tmp_path / "again.isotn"
        save_model(bundle, path)
        written = path.read_bytes()
        # older files carry this line after the seed
        self.rewrite(path, lambda h: re.sub(rb"(seed \d+\n)", rb"\1isometry_tol 1e-08\n", h), version)
        loaded = load_model(path)
        for v in net.quiver.vertices:
            assert loaded.net.vertex_tensor[v].tobytes() == net.vertex_tensor[v].tobytes()
        assert (loaded.symbols, loaded.kind, loaded.seed) == (bundle.symbols, "tree", 4)
        save_model(loaded, again)
        assert again.read_bytes() == written

    def test_a_vocabulary_must_fit_the_sites(self, tmp_path, rng, capsys):
        net = random_network("chain", 4, 5, 2, rng)
        with pytest.raises(ValueError, match="vocabulary of 2 symbols does not fit site 0 of dimension 5"):
            save_model(ModelBundle(net, SymbolSet(("a", "b"), "chars"), "chain", 0), tmp_path / "m.isotn")
        path = tmp_path / "crafted.isotn"
        save_model(ModelBundle(net, SymbolSet(tuple("abcde"), "chars"), "chain", 0), path)
        self.rewrite(path, lambda h: re.sub(rb'symbol "[c-e]"\n', b"", h))
        with pytest.raises(ModelFileError, match="vocabulary of 2 symbols does not fit"):
            load_model(path)
        assert main(["sample", "--model", str(path), "--count", "20"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.replace(b'symbol "b"', b"symbol 5"), "vocabulary token 5 cannot come from scheme 'chars'"),
        (lambda h: h.replace(b'symbol "b"', b'symbol "ab"'),
         "vocabulary token 'ab' cannot come from scheme 'chars'"),
        (lambda h: h.replace(b"scheme chars", b"scheme nonsense"),
         "unknown scheme 'nonsense'; expected one of ('bytes', 'chars', 'words')"),
    ], ids=["integer_token", "two_characters", "unknown_scheme"])
    def test_a_vocabulary_its_scheme_cannot_produce_is_rejected(self, tmp_path, rng, capsys, edit, message):
        path, data = tmp_path / "m.isotn", tmp_path / "data.txt"
        data.write_text("abba", encoding="utf-8")
        save_model(ModelBundle(random_network("tree", 4, 2, 2, rng), SymbolSet(("a", "b"), "chars"), "tree", 0),
                   path)
        self.rewrite(path, edit)  # with a valid checksum, so only the vocabulary rule can reject it
        with pytest.raises(ModelFileError, match=re.escape(f"invalid model: {message}")):
            load_model(path)
        for argv in (["sample", "--count", "3"], ["eval", "--data", str(data)], ["inspect"]):
            assert main([argv[0], "--model", str(path), *argv[1:]]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {path}: invalid model: {message}\n"

    @pytest.mark.parametrize("symbols", [("a", 5), ("a", "ab")])
    @pytest.mark.parametrize("scheme", ["chars", "bytes", "nonsense"])
    def test_a_vocabulary_its_scheme_cannot_produce_is_not_saved(self, tmp_path, rng, symbols, scheme):
        path = tmp_path / "m.isotn"
        with pytest.raises(ValueError, match="cannot come from scheme|unknown scheme"):
            save_model(ModelBundle(random_network("tree", 4, 2, 2, rng), SymbolSet(symbols, scheme), "tree", 0),
                       path)
        assert not path.exists()

    @pytest.mark.parametrize("line,message", [(rb"vertex 1\n", "vertex 1 is repeated"),
                                              (rb"edge internal 1 [^\n]*\n", "internal edge 1 is repeated")],
                             ids=["vertex", "internal_edge"])
    def test_a_repeated_id_is_a_bad_header(self, tmp_path, rng, capsys, line, message):
        path = tmp_path / "m.isotn"
        save_model(ModelBundle(random_network("chain", 3, 2, 2, rng), None, "chain", 0), path)
        self.rewrite(path, lambda h: re.sub(rb"(" + line + rb")", rb"\1\1", h, count=1))
        with pytest.raises(ModelFileError, match=f"bad header: {message}"):
            load_model(path)
        assert main(["inspect", "--model", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_bad_magic_detected(self, tmp_path):
        from isotn.errors import ModelFileError

        path = tmp_path / "junk.isotn"
        path.write_bytes(b"not a model file at all------------------")
        with pytest.raises(ModelFileError):
            load_model(path)


@pytest.mark.parametrize("cut", [8, 16], ids=["checksum", "last_tensor"])
def test_a_file_that_shrinks_while_read_is_truncated(tmp_path, monkeypatch, cut):
    # the size is taken when the file opens, so a file cut short after that
    # passes the length check and runs out while its tensors or checksum are read
    path = tmp_path / "m.isotn"
    save_model(ModelBundle(random_network("tree", 4, 2, 2, philox(3)), None, "tree", 0), path)
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-cut])
    monkeypatch.setattr(model_io, "os", SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=full)))
    with pytest.raises(ModelFileError, match=f"^{re.escape(str(path))}: file truncated while reading$"):
        load_model(path)


class TestUnreadableInputs:
    """Every input that cannot be read gives one error line naming its path
    and the reason, and the line of a byte that is not UTF-8."""

    @pytest.fixture
    def files(self, tmp_path):
        save_vocab(SymbolSet(("a", "b"), "chars"), tmp_path / "vocab.txt")
        (tmp_path / "data.txt").write_text("abab\nbaba\n" * 4, encoding="utf-8")
        (tmp_path / "bad.txt").write_bytes(b"ab\r\nb\xffa\nab\n")
        save_model(ModelBundle(random_network("tree", 4, 2, 2, philox(3)), SymbolSet(("a", "b"), "chars"),
                               "tree", 0), tmp_path / "m.isotn")
        return tmp_path

    @staticmethod
    def train(files, data="data.txt", vocab="vocab.txt"):
        return ["train", "--graph", "chain", "--n", "2", "--vocab", str(files / vocab),
                "--data", str(files / data), "--steps", "1", "--out", str(files / "out.isotn")]

    @pytest.mark.parametrize("command", [
        lambda f: TestUnreadableInputs.train(f, vocab="bad.txt"),
        lambda f: TestUnreadableInputs.train(f, data="bad.txt"),
        lambda f: ["vocab", "--data", str(f / "bad.txt"), "--out", str(f / "v.txt")],
        lambda f: ["eval", "--model", str(f / "m.isotn"), "--data", str(f / "bad.txt")],
        lambda f: ["mi", "--data", str(f / "bad.txt"), "--vocab", str(f / "vocab.txt"), "--lmax", "1"],
        lambda f: ["mi", "--data", str(f / "data.txt"), "--vocab", str(f / "bad.txt"), "--lmax", "1"],
    ], ids=["train_vocab", "train_data", "vocab_data", "eval_data", "mi_data", "mi_vocab"])
    def test_a_byte_that_is_not_utf8_is_named_with_its_file_and_line(self, files, capsys, command):
        capsys.readouterr()
        assert main(command(files)) == 1
        assert capsys.readouterr().err == (f"error: cannot read {files / 'bad.txt'}: line 2: byte 0xff "
                                           f"is not UTF-8 (invalid start byte)\n")

    @pytest.mark.parametrize("command", [
        lambda f, p: ["vocab", "--data", p, "--out", str(f / "v.txt")],
        lambda f, p: TestUnreadableInputs.train(f, vocab=p),
        lambda f, p: ["eval", "--model", str(f / "m.isotn"), "--data", p],
        lambda f, p: ["eval", "--model", p, "--data", str(f / "data.txt")],
        lambda f, p: ["sample", "--model", p, "--count", "1"],
        lambda f, p: ["mi", "--model", p, "--lmax", "1"],
        lambda f, p: ["dim", "--model", p],
        lambda f, p: ["inspect", "--model", p],
    ], ids=["vocab_data", "train_vocab", "eval_data", "eval_model", "sample_model",
            "mi_model", "dim_model", "inspect_model"])
    @pytest.mark.parametrize("target, reason", [("missing", "No such file or directory"),
                                                ("", "Is a directory")], ids=["missing", "directory"])
    def test_a_missing_or_directory_input_is_one_error_line(self, files, capsys, command, target, reason):
        path = str(files / target)
        capsys.readouterr()
        assert main(command(files, path)) == 1
        assert capsys.readouterr().err == f"error: cannot read {path}: {reason}\n"

    def test_library_readers_keep_their_error_types(self, files):
        with pytest.raises(InputFileError) as info:
            load_vocab(files / "missing", "chars")
        assert isinstance(info.value, OSError)
        with pytest.raises(InputFileError, match="line 2: byte 0xff") as info:
            load_vocab(files / "bad.txt", "chars")
        assert isinstance(info.value, ValueError)
        with pytest.raises(InputFileError, match="Is a directory") as info:
            load_model(files)
        assert isinstance(info.value, OSError)


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError("Unable to allocate 38.2 GiB for an array with shape "
                          + "(15, " * 200 + "15) and data type complex128")

    monkeypatch.setattr(cli, "cmd_inspect", exhausted)
    assert main(["inspect", "--model", str(tmp_path / "m.isotn")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: inspect ran out of memory (Unable to allocate 38.2 GiB")
    assert err.count("\n") == 1 and len(err) <= 250
