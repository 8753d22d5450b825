"""Single-file model serialization.

Layout: a 16-byte magic prefix, a little-endian u64 header length, a
UTF-8 text header (format version, graph kind and parameters, vertex and
edge tables, symbol list, PRNG name, seed), then the binary section - for
each vertex in ascending id its tensor as row-major complex values, each
component a little-endian IEEE-754 double (real then imaginary) - and a
trailing 8-byte BLAKE2b checksum of the header length, header and binary
section, so any corrupted byte is rejected. Only this format, version 2,
is read; every file names the one PRNG, ``philox``. Round-trips are
bit-exact.

The header holds no isometry tolerance, so a file cannot loosen its own
check; a key the reader does not use, such as the tolerance line of older
files, is ignored. A bundle's vocabulary must fit every site's dimension
and hold only tokens its scheme produces (:func:`~isotn.corpus.check_vocab`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .corpus import check_vocab
from .errors import ModelFileError, _unreadable
from .graph import Quiver
from .model import SymbolSet
from .network import TensorNetwork, VertexStacks, group_vertices

MAGIC = b"ISOTN-MODEL-v01\n"
FORMAT_VERSION = 2
PRNG_NAME = "philox"


@dataclass(frozen=True)
class ModelBundle:
    """A network plus the run metadata needed to reuse it."""

    net: TensorNetwork
    symbols: SymbolSet | None = None
    kind: str = "custom"
    seed: int = 0

    def __post_init__(self):
        if self.symbols is None:
            return
        check_vocab(self.symbols)
        for k, d in enumerate(self.net.site_dims):
            if d != self.symbols.size:
                raise ValueError(f"a vocabulary of {self.symbols.size} symbols does not fit "
                                 f"site {k} of dimension {d}")


def _header_text(bundle: ModelBundle) -> str:
    net = bundle.net
    q = net.quiver
    lines = [
        f"format_version {FORMAT_VERSION}",
        f"kind {bundle.kind}",
        f"n {net.n_sites}",
        f"prng {PRNG_NAME}",
        f"seed {bundle.seed}",
    ]
    if bundle.symbols is not None:
        lines.append(f"scheme {bundle.symbols.scheme}")
        for tok in bundle.symbols.symbols:
            lines.append(f"symbol {json.dumps(tok, ensure_ascii=False)}")
    for v in q.vertices:
        lines.append(f"vertex {v}")
    for e in q.in_edges:
        lines.append(f"edge in {e} {q.target[e]} {net.edge_dim[e]}")
    for e in q.internal_edges:
        lines.append(f"edge internal {e} {q.source[e]} {q.target[e]} {net.edge_dim[e]}")
    for e in q.out_edges:
        lines.append(f"edge out {e} {q.source[e]} {net.edge_dim[e]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def save_model(bundle: ModelBundle, path) -> None:
    """Write ``bundle`` to ``path``. Each tensor is written and hashed from
    its run, in vertex order, so saving makes no second copy of them."""
    net, header = bundle.net, _header_text(bundle).encode("utf-8")
    length = struct.pack("<Q", len(header))
    tensors = (np.ascontiguousarray(net.vertex_tensor[v], dtype="<c16") for v in net.quiver.vertices)
    digest = hashlib.blake2b(digest_size=8)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        for part in (length, header, *tensors):
            digest.update(part)
            fh.write(part)
        fh.write(digest.digest())


def _parse_header(text: str):
    """(meta, symbols, quiver, edge_dim) of the header; ValueError if malformed."""
    meta: dict[str, str] = {}
    symbols: list = []
    vertices: list[int] = []
    in_edges: list[int] = []
    internal_edges: list[int] = []
    out_edges: list[int] = []
    source: dict[int, int] = {}
    target: dict[int, int] = {}
    edge_dim: dict[int, int] = {}
    saw_end = False
    for line in text.splitlines():
        if not line:
            continue
        if line == "end":
            saw_end = True
            break
        key, _, rest = line.partition(" ")
        if key == "symbol":
            symbols.append(json.loads(rest))
        elif key == "vertex":
            vertices.append(int(rest))
        elif key == "edge":
            role, *fields = rest.split()
            ints = [int(x) for x in fields]
            if role == "in":
                e, dst, d = ints
                in_edges.append(e)
                target[e] = dst
            elif role == "internal":
                e, src, dst, d = ints
                internal_edges.append(e)
                source[e] = src
                target[e] = dst
            elif role == "out":
                e, src, d = ints
                out_edges.append(e)
                source[e] = src
            else:
                raise ValueError(f"unknown edge role {role!r}")
            if d < 1:
                raise ValueError(f"edge {e} has dimension {d}")
            edge_dim[e] = d
        else:
            meta[key] = rest
    if not saw_end:
        raise ValueError("header missing 'end' marker")
    if meta.get("format_version") != str(FORMAT_VERSION):
        raise ValueError(f"unsupported format version {meta.get('format_version')}")
    if meta.get("prng") != PRNG_NAME:
        raise ValueError(f"unsupported PRNG {meta.get('prng')}")
    quiver = Quiver(
        tuple(vertices), tuple(internal_edges), tuple(in_edges), tuple(out_edges), source, target
    )
    return meta, symbols, quiver, edge_dim


def load_model(path) -> ModelBundle:
    """Read a model file. The binary section's length is checked against
    the header before any tensor memory is allocated, so a corrupted
    dimension raises ModelFileError, not MemoryError. Each vertex's bytes
    are read straight into its slot of its run's array, in file order,
    and the runs are handed to
    :meth:`~isotn.network.TensorNetwork.from_runs` as the network's
    storage, so a loaded model holds its tensors once. A file that cannot
    be opened raises :class:`~isotn.errors.InputFileError`."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise _unreadable(path, exc) from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(len(MAGIC) + 8)
        if len(prefix) < len(MAGIC) + 8 or prefix[: len(MAGIC)] != MAGIC:
            raise ModelFileError(f"{path}: not a model file (bad magic)")
        (header_len,) = struct.unpack("<Q", prefix[len(MAGIC):])
        binary_len = size - len(prefix) - header_len - 8
        if binary_len < 0:
            raise ModelFileError(f"{path}: truncated header")
        raw_header = fh.read(header_len)
        try:  # UnicodeDecodeError is a ValueError
            meta, symbols, quiver, edge_dim = _parse_header(raw_header.decode("utf-8"))
            seed = int(meta.get("seed", "0"))
        except ValueError as exc:
            raise ModelFileError(f"{path}: bad header: {str(exc)[:200]}") from exc
        try:
            groups = group_vertices(quiver, edge_dim)
        except ValueError as exc:  # a cyclic quiver
            raise ModelFileError(f"{path}: invalid model: {str(exc)[:200]}") from exc
        entries = sum(len(verts) * math.prod(shape) for verts, shape, _ in groups)  # exact: a dim may exceed int64
        if 16 * entries != binary_len:
            raise ModelFileError(f"{path}: binary section of {binary_len} bytes does not hold "
                                 f"the header's {entries} complex entries")
        runs = [np.empty((len(verts),) + shape, dtype="<c16") for verts, shape, _ in groups]
        digest = hashlib.blake2b(prefix[len(MAGIC):], digest_size=8)
        digest.update(raw_header)
        for slot in VertexStacks(groups, runs, quiver.vertices).values():
            if fh.readinto(slot) != slot.nbytes:
                raise ModelFileError(f"{path}: file truncated while reading")
            digest.update(slot)
        if len(checksum := fh.read(8)) != 8:
            raise ModelFileError(f"{path}: file truncated while reading")
    if digest.digest() != checksum:
        raise ModelFileError(f"{path}: checksum mismatch (file corrupted or truncated)")

    try:
        net = TensorNetwork.from_runs(quiver, edge_dim, runs)
        symbol_set = SymbolSet(tuple(symbols), meta.get("scheme", "chars")) if symbols else None
        return ModelBundle(net, symbol_set, meta.get("kind", "custom"), seed)
    except (ValueError, TypeError) as exc:
        raise ModelFileError(f"{path}: invalid model: {str(exc)[:200]}") from exc
