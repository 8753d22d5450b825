import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from isotn.corpus import (
    build_vocab,
    detokenize,
    load_vocab,
    save_vocab,
    tokenize,
    windows,
)
from isotn.model import SymbolSet

from conftest import philox


class TestBuildVocab:
    def test_bytes_scheme_lists_distinct_bytes(self):
        vocab = build_vocab("abca", "bytes")
        assert vocab.scheme == "bytes"
        assert set(vocab.symbols) == {ord("a"), ord("b"), ord("c")}
        assert vocab.symbols[0] == ord("a")  # most frequent first

    def test_words_scheme(self):
        vocab = build_vocab("a b a", "words")
        assert vocab.symbols == ("a", "b")

    def test_zipf_truncation_appends_oov(self):
        gen = philox(0)
        ranks = (gen.zipf(1.5, size=20_000) - 1) % 500
        text = " ".join(f"w{r}" for r in ranks)
        vocab = build_vocab(text, "words", max_size=100)
        assert vocab.size == 101
        assert vocab.symbols[-1] == "<oov>"
        counts = {}
        for tok in text.split():
            counts[tok] = counts.get(tok, 0) + 1
        freqs = [counts[t] for t in vocab.symbols[:100]]
        assert freqs == sorted(freqs, reverse=True)

    def test_empty_input_rejected(self):
        for scheme in ("bytes", "chars", "words"):
            with pytest.raises(ValueError):
                build_vocab("", scheme)

    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocab("bb aa aa bb cc", "words")
        assert vocab.symbols == ("aa", "bb", "cc")


class TestTokenizeRoundTrip:
    def test_chars_round_trip(self):
        text = "hello world"
        vocab = build_vocab(text, "chars")
        assert detokenize(tokenize(text, vocab), vocab) == text

    def test_words_round_trip(self):
        text = "the cat sat on the mat"
        vocab = build_vocab(text, "words")
        assert detokenize(tokenize(text, vocab), vocab) == text

    def test_bytes_round_trip(self):
        text = "héllo"
        vocab = build_vocab(text, "bytes")
        assert detokenize(tokenize(text, vocab), vocab) == text

    def test_unknown_token_without_oov_raises(self):
        vocab = build_vocab("aaa", "chars")
        with pytest.raises(ValueError):
            tokenize("b", vocab)

    def test_unknown_token_maps_to_oov(self):
        vocab = build_vocab("aab", "chars", max_size=1)
        ids = tokenize("az", vocab)
        assert ids[0] == 0
        assert ids[1] == vocab.size - 1

    def test_literal_oov_word_in_text_does_not_shadow_reserved_symbol(self):
        # the reserved symbol gets a collision-avoided name and stays last
        text = "<oov> <oov> x x y"
        vocab = build_vocab(text, "words", max_size=2)
        assert vocab.symbols[-1] == "<oov>_"
        unknown = tokenize("z", vocab)
        assert unknown == [vocab.size - 1]


class TestWindows:
    def test_stride_two_accumulates_multiplicity(self):
        sample = windows([0, 1, 0, 1], 2, 2)
        assert dict(sample.items()) == {(0, 1): 2}

    def test_stride_one_overlapping(self):
        sample = windows([0, 1, 0], 2, 1)
        assert dict(sample.items()) == {(0, 1): 1, (1, 0): 1}

    @pytest.mark.parametrize("tokens, value", [([0.5, 1.7, 1.2, 0.9], "0.5"), ([0, 1, math.nan], "nan")])
    def test_non_whole_tokens_rejected(self, tokens, value):
        with pytest.raises(ValueError, match=rf"^token {value} is not a finite whole number$"):
            windows(tokens, 2)

    def test_unsigned_tokens_past_int64_rejected(self):
        with pytest.raises(ValueError, match=r"^token 18446744073709551615 does not fit in int64$"):
            windows(np.array([2**64 - 1, 3], dtype=np.uint64), 1)
        assert dict(windows(np.array([2**63 - 1, 3], dtype=np.uint64), 1).items()) == {
            (2**63 - 1,): 1, (3,): 1}

    def test_whole_float_tokens_kept(self):
        assert dict(windows([1.0, 0, 1.0], 2).items()) == {(1, 0): 1, (0, 1): 1}

    def test_window_count_formula(self):
        gen = philox(1)
        tokens = gen.integers(0, 2, size=10_000)
        sample = windows(tokens, 8, 1)
        assert sample.cardinality == 10_000 - 8 + 1

    def test_counting_peaks_near_the_rows(self):
        # 100k nearly distinct windows: the rows themselves take 24 MiB;
        # sorting the rows as int64 records peaked at 3.1x that
        tokens = philox(2).integers(0, 27, size=100_000)
        tracemalloc.start()
        try:
            sample = windows(tokens, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * sample.rows.nbytes

    def test_short_stream_rejected(self):
        with pytest.raises(ValueError):
            windows([0, 1], 3)

    def test_tail_dropped(self):
        sample = windows([0, 1, 2, 3, 4], 2, 2)
        assert sample.cardinality == 2  # (0,1) and (2,3); the 4 is dropped

    def test_window_detokenizes_to_original_span(self):
        text = "windowed round trip"
        vocab = build_vocab(text, "chars")
        tokens = tokenize(text, vocab)
        n, stride = 5, 3
        for start_index, window in enumerate(
            tokens[k:k + n] for k in range(0, len(tokens) - n + 1, stride)
        ):
            span = text[start_index * stride: start_index * stride + n]
            assert detokenize(window, vocab) == span


class TestVocabFile:
    def test_round_trip_words(self, tmp_path):
        vocab = build_vocab("alpha beta alpha gamma", "words")
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        assert load_vocab(path, "words") == vocab
        raw = path.read_bytes()
        assert raw.decode("utf-8").split("\n")[:-1] == list(vocab.symbols)
        assert b"\r" not in raw

    def test_round_trip_bytes(self, tmp_path):
        vocab = build_vocab("abc", "bytes")
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        assert load_vocab(path, "bytes") == vocab

    def test_line_index_is_symbol_index(self, tmp_path):
        vocab = build_vocab("x y z y z z", "words")
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            assert vocab.symbols[i] == line

    def test_newline_char_token_escaped(self, tmp_path):
        vocab = build_vocab("a\nb\na", "chars")
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        loaded = load_vocab(path, "chars")
        assert loaded == vocab
        assert "\n" in loaded.symbols


@pytest.mark.parametrize("scheme, lines", [
    ("chars", ["ab"]), ("chars", ["a", ""]), ("words", ["a b"]), ("words", [""]),
    ("words", ["a\\tb"]), ("bytes", ["256", "1"]), ("bytes", ["-1"]),
])
def test_vocab_tokens_the_scheme_cannot_produce_are_rejected(tmp_path, scheme, lines):
    path = tmp_path / "vocab.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(ValueError, match=f"cannot come from scheme '{scheme}'"):
        load_vocab(path, scheme)


@given(text=st.text(min_size=1), scheme=st.sampled_from(["chars", "words"]),
       max_size=st.none() | st.integers(1, 8))
def test_vocab_file_round_trips_any_text(text, scheme, max_size):
    try:
        vocab = build_vocab(text, scheme, max_size)
    except ValueError:  # no tokens: only whitespace under words
        assert scheme == "words" and not text.split()
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vocab.txt"
        save_vocab(vocab, path)
        assert load_vocab(path, scheme) == vocab


def test_trailing_oov_symbol_is_exempt(tmp_path):
    for scheme, text in (("chars", "abcab"), ("words", "x y z y z"), ("bytes", "abcab")):
        vocab = build_vocab(text, scheme, max_size=2)
        path = tmp_path / f"{scheme}.txt"
        save_vocab(vocab, path)
        assert load_vocab(path, scheme) == vocab


def test_symbol_set_index():
    s = SymbolSet(("x", "y"))
    assert s.index() == {"x": 0, "y": 1}
