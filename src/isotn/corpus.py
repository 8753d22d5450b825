"""Text ingestion: vocabularies, tokenization, fixed-length windows.

Three schemes map text to symbol streams: ``bytes`` (UTF-8 byte values,
tokens are ints 0..255), ``chars`` (Unicode scalar values) and ``words``
(whitespace-separated words). A vocabulary orders tokens by descending
frequency with lexicographic tie-break; truncation appends a reserved
out-of-vocabulary symbol.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np

from .errors import _brief_value, _unreadable
from .model import SampleMultiset, SymbolSet
from .network import whole_array, whole_number

SCHEMES = ("bytes", "chars", "words")

_OOV_BYTE = 256  # one past the byte range
_OOV_TEXT = "<oov>"

# the vocabulary file is one token per line; these escapes keep tokens
# containing line-structure characters representable
_ESCAPES = str.maketrans({"\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"})
_UNESCAPES = {pair: chr(ch) for ch, pair in _ESCAPES.items()}


def _split(text: str, scheme: str):
    if scheme == "bytes":
        return list(text.encode("utf-8"))
    if scheme == "chars":
        return list(text)
    if scheme == "words":
        return text.split()
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def _oov_token(scheme: str, taken: set):
    if scheme == "bytes":
        return _OOV_BYTE
    tok = _OOV_TEXT
    while tok in taken:
        tok += "_"
    return tok


def build_vocab(text: str, scheme: str, max_size: int | None = None) -> SymbolSet:
    """Frequency-ordered vocabulary of the tokens present in ``text``.

    Tokens are ordered by descending count, ties broken lexicographically.
    When ``max_size`` truncates the list, a reserved out-of-vocabulary
    symbol is appended (so the result has max_size + 1 symbols).
    ``max_size`` is read as a whole number (``2.0`` reads as 2).
    """
    tokens = _split(text, scheme)
    if not tokens:
        raise ValueError(f"no tokens in input under scheme {scheme!r}")
    counts = Counter(tokens)
    ordered = sorted(counts, key=lambda t: (-counts[t], t))
    if max_size is not None:
        max_size = whole_number(max_size, "max_size")
        if max_size < 1:
            raise ValueError("max_size must be positive")
    if max_size is not None and len(ordered) > max_size:
        ordered = ordered[:max_size]
        ordered.append(_oov_token(scheme, set(ordered)))
    return SymbolSet(tuple(ordered), scheme)


def oov_index(vocab: SymbolSet) -> int | None:
    """Index of the reserved out-of-vocabulary symbol, if the vocabulary has one.

    By construction the reserved symbol, when present, is the last entry
    and carries the (collision-avoided) reserved name.
    """
    if vocab.symbols and vocab.symbols[-1] == _oov_token(vocab.scheme, set(vocab.symbols[:-1])):
        return vocab.size - 1
    return None


def check_vocab(vocab: SymbolSet) -> None:
    """Raise ValueError unless ``vocab``'s scheme is known and every token
    but a trailing reserved OOV symbol is one that scheme produces: a byte
    value 0..255 under ``bytes``, one character under ``chars``, one word
    under ``words``. Vocabulary files and model files are read under this
    rule, so a file read under the wrong scheme is rejected instead of
    mapping all text to OOV."""
    scheme, oov = vocab.scheme, oov_index(vocab)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    for i, tok in enumerate(vocab.symbols):
        producible = (type(tok) is int and 0 <= tok <= 255 if scheme == "bytes"
                      else type(tok) is str and _split(tok, scheme) == [tok])
        if i != oov and not producible:
            raise ValueError(f"vocabulary token {tok!r:.40} cannot come from scheme {scheme!r}")


def tokenize(text: str, vocab: SymbolSet) -> list[int]:
    """Map text to symbol indices; unknown tokens fall back to the OOV slot.

    Raises on unknown tokens when the vocabulary was built without
    truncation (no OOV symbol exists).
    """
    index = vocab.index()
    fallback = oov_index(vocab)
    out = []
    for tok in _split(text, vocab.scheme):
        k = index.get(tok)
        if k is None:
            if fallback is None:
                raise ValueError(f"token {_brief_value(repr(tok))} not in vocabulary and no OOV symbol present")
            k = fallback
        out.append(k)
    return out


def detokenize(indices, vocab: SymbolSet) -> str:
    """Inverse of tokenize (exact for chars, joined with spaces for words).

    Byte tokens are decoded as UTF-8 with replacement on invalid runs.
    """
    toks = [vocab.symbols[int(i)] for i in indices]
    if vocab.scheme == "bytes":
        return bytes(b for b in toks if b != _OOV_BYTE).decode("utf-8", errors="replace")
    if vocab.scheme == "chars":
        return "".join(toks)
    return " ".join(toks)


def windows(tokens, n: int, stride: int = 1) -> SampleMultiset:
    """All length-n windows at offsets 0, stride, 2·stride, ..., counted
    by :class:`~isotn.model.SampleMultiset` from a strided view of the
    tokens; a tail shorter than ``n`` is dropped. Raises when the stream is
    shorter than one window or holds a token that is not a finite whole
    number; ``n`` and ``stride`` are read as whole numbers too.
    """
    n, stride = whole_number(n, "window length"), whole_number(stride, "stride")
    if n < 1 or stride < 1:
        raise ValueError("window length and stride must be >= 1")
    tokens = whole_array(tokens, "token")
    if len(tokens) < n:
        raise ValueError(f"token stream of length {len(tokens)} is shorter than n={n}")
    return SampleMultiset(n, np.lib.stride_tricks.sliding_window_view(tokens, n)[::stride])


def _escape(token: str) -> str:
    return token.translate(_ESCAPES)


def _unescape(line: str) -> str:
    return re.sub(r"\\[\\nrt]", lambda m: _UNESCAPES[m[0]], line)


def save_vocab(vocab: SymbolSet, path) -> None:
    """One token per line, frequency order, UTF-8, LF endings.

    Byte tokens are written as decimal integers; text tokens escape
    backslash and line-structure characters.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for tok in vocab.symbols:
            fh.write((str(tok) if vocab.scheme == "bytes" else _escape(tok)) + "\n")


def _byte_token(line: str, where: str) -> int:
    try:
        return int(line)
    except ValueError:  # not a number, or more digits than int() reads
        raise ValueError(f"{where}: byte token {_brief_value(repr(line))} is not a whole number") from None


def read_text(path, newline: str | None = None) -> str:
    """The UTF-8 text of the file at ``path``, its newlines read as
    :func:`open`'s ``newline`` says (None: universal newlines). A file that
    cannot be read, or holds a byte that is not UTF-8, raises an
    :class:`~isotn.errors.InputFileError` naming the path, the reason and
    the byte's line."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from exc


def load_vocab(path, scheme: str) -> SymbolSet:
    """Read a vocabulary file written by :func:`save_vocab` (by
    :func:`read_text`, every character kept), under the rule of
    :func:`check_vocab`. A bytes-scheme line that is not a whole number
    raises a ValueError naming the file and line."""
    lines = read_text(path, "\n").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if scheme == "bytes":
        symbols = tuple(_byte_token(line, f"{path}, line {k}") for k, line in enumerate(lines, 1))
    else:
        symbols = tuple(_unescape(line) for line in lines)
    vocab = SymbolSet(symbols, scheme)
    check_vocab(vocab)
    return vocab
