"""Text ingestion: vocabularies, tokenization, fixed-length windows.

Three schemes map text to symbol streams: ``bytes`` (UTF-8 byte values,
tokens are ints 0..255), ``chars`` (Unicode scalar values) and ``words``
(whitespace-separated words). A vocabulary orders tokens by descending
frequency with lexicographic tie-break; truncation appends a reserved
out-of-vocabulary symbol.
"""

from __future__ import annotations

from collections import Counter

from .model import SampleMultiset, SymbolSet
from .network import whole_number

SCHEMES = ("bytes", "chars", "words")

_OOV_BYTE = 256  # one past the byte range
_OOV_TEXT = "<oov>"

# the vocabulary file is one token per line; these escapes keep tokens
# containing line-structure characters representable
_ESCAPES = {"\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_UNESCAPES = {"\\\\": "\\", "\\n": "\n", "\\r": "\r", "\\t": "\t"}


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
    """
    tokens = _split(text, scheme)
    if not tokens:
        raise ValueError(f"no tokens in input under scheme {scheme!r}")
    counts = Counter(tokens)
    ordered = sorted(counts, key=lambda t: (-counts[t], t))
    if max_size is not None and max_size < 1:
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
                raise ValueError(f"token {tok!r} not in vocabulary and no OOV symbol present")
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
    """All length-n windows at offsets 0, stride, 2·stride, ...

    Identical windows accumulate multiplicity; a tail shorter than ``n``
    is dropped. Raises when the stream is shorter than one window or holds
    a token that is not a finite whole number.
    """
    if n < 1 or stride < 1:
        raise ValueError("window length and stride must be >= 1")
    tokens = [whole_number(t, "token") for t in tokens]
    if len(tokens) < n:
        raise ValueError(f"token stream of length {len(tokens)} is shorter than n={n}")
    entries: Counter = Counter()
    for start in range(0, len(tokens) - n + 1, stride):
        entries[tuple(tokens[start:start + n])] += 1
    return SampleMultiset(n, dict(entries))


def _escape(token: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in token)


def _unescape(line: str) -> str:
    out = []
    i = 0
    while i < len(line):
        pair = line[i:i + 2]
        if pair in _UNESCAPES:
            out.append(_UNESCAPES[pair])
            i += 2
        else:
            out.append(line[i])
            i += 1
    return "".join(out)


def save_vocab(vocab: SymbolSet, path) -> None:
    """One token per line, frequency order, UTF-8, LF endings.

    Byte tokens are written as decimal integers; text tokens escape
    backslash and line-structure characters.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for tok in vocab.symbols:
            fh.write((str(tok) if vocab.scheme == "bytes" else _escape(tok)) + "\n")


def load_vocab(path, scheme: str) -> SymbolSet:
    """Read a vocabulary file written by :func:`save_vocab`.

    Every token but a trailing reserved OOV symbol must be one that
    ``scheme`` produces, so a file read under the wrong scheme is rejected
    instead of mapping all text to OOV.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if scheme == "bytes":
        symbols = tuple(int(line) for line in lines)
    else:
        symbols = tuple(_unescape(line) for line in lines)
    vocab = SymbolSet(symbols, scheme)
    oov = oov_index(vocab)
    for i, tok in enumerate(symbols):
        producible = 0 <= tok <= 255 if scheme == "bytes" else _split(tok, scheme) == [tok]
        if i != oov and not producible:
            raise ValueError(f"vocabulary token {tok!r:.40} cannot come from scheme {scheme!r}")
    return vocab
