"""Seeded synthetic text over the 27-symbol alphabet a-z plus space.

The text is a toy language with structure at three scales: words are
spelled by a sparse letter-bigram chain, word frequencies follow a Zipf
law, and each word prefers a few successor words. A character model
therefore has correlations that reach across word boundaries, which is
what the mutual-information and likelihood code paths are meant to see.

Training and held-out text share one lexicon but are drawn from separate
generator streams, so the held-out text is new text of the same language.
Nothing is downloaded; the same seed always gives the same text.
"""

from __future__ import annotations

import string

import numpy as np

ALPHABET = string.ascii_lowercase + " "

_STREAM_LEXICON = 0
_STREAM_TRAIN = 1
_STREAM_HELDOUT = 2

_LEXICON_SIZE = 400
_SUCCESSORS = 4
_SUCCESSOR_MASS = 0.6


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    )


class Language:
    """Lexicon, Zipf word weights and preferred successors for one seed."""

    def __init__(self, seed: int):
        rng = _rng(seed, _STREAM_LEXICON)
        letters = string.ascii_lowercase
        # sparse letter bigrams: a few likely followers per letter
        trans = rng.dirichlet(np.full(26, 0.15), size=26)
        start = rng.dirichlet(np.full(26, 0.5))
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < _LEXICON_SIZE:
            length = int(rng.integers(2, 9))
            k = int(rng.choice(26, p=start))
            chars = [letters[k]]
            for _ in range(length - 1):
                k = int(rng.choice(26, p=trans[k]))
                chars.append(letters[k])
            word = "".join(chars)
            if word not in seen:
                seen.add(word)
                words.append(word)
        # every letter is in the lexicon, so both texts can use all 27 symbols
        words += [ch * 3 for ch in letters if not any(ch in w for w in words)]
        self.words = tuple(words)
        ranks = np.arange(1, len(words) + 1, dtype=float)
        self.weights = ranks ** -1.1 / np.sum(ranks ** -1.1)
        self.successors = rng.integers(0, len(words), size=(len(words), _SUCCESSORS))

    def text(self, n_chars: int, rng: np.random.Generator) -> str:
        """At least ``n_chars`` characters of space-separated words."""
        out: list[str] = []
        size = 0
        k = int(rng.choice(len(self.words), p=self.weights))
        while size < n_chars:
            out.append(self.words[k])
            size += len(self.words[k]) + 1
            if rng.random() < _SUCCESSOR_MASS:
                k = int(self.successors[k, rng.integers(_SUCCESSORS)])
            else:
                k = int(rng.choice(len(self.words), p=self.weights))
        return " ".join(out)


def corpus(seed: int, train_chars: int, heldout_chars: int) -> tuple[str, str]:
    """(training text, held-out text); the training text holds all 27 symbols."""
    lang = Language(seed)
    train = lang.text(train_chars, _rng(seed, _STREAM_TRAIN))
    missing = [w for w in lang.words if not set(w) <= set(train)]
    if missing:
        train = " ".join([train] + missing)
    heldout = lang.text(heldout_chars, _rng(seed, _STREAM_HELDOUT))
    return train, heldout
