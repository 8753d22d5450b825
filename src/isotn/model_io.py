"""Single-file model serialization.

Layout: a 16-byte magic prefix, a little-endian u64 header length, a
UTF-8 text header (format version, graph kind and parameters, vertex and
edge tables, symbol list, PRNG name, seed), then the binary section - for
each vertex in ascending id its tensor as row-major complex values, each
component a little-endian IEEE-754 double (real then imaginary) - and a
trailing 8-byte BLAKE2b checksum of the header length, header and binary
section, so any corrupted byte is rejected. Format version 1 files, whose
checksum covers the binary section only, still load. Round-trips are
bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ModelFileError
from .graph import Quiver
from .model import SymbolSet
from .network import TensorNetwork

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
    prng: str = PRNG_NAME


def _header_text(bundle: ModelBundle) -> str:
    net = bundle.net
    q = net.quiver
    lines = [
        f"format_version {FORMAT_VERSION}",
        f"kind {bundle.kind}",
        f"n {net.n_sites}",
        f"prng {bundle.prng}",
        f"seed {bundle.seed}",
        f"isometry_tol {net.isometry_tol!r}",
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
    header = _header_text(bundle).encode("utf-8")
    blobs = [
        np.ascontiguousarray(bundle.net.vertex_tensor[v], dtype="<c16").tobytes()
        for v in bundle.net.quiver.vertices
    ]
    binary = b"".join(blobs)
    length = struct.pack("<Q", len(header))
    digest = hashlib.blake2b(digest_size=8)
    for part in (length, header, binary):
        digest.update(part)
    with open(path, "wb") as fh:
        for part in (MAGIC, length, header, binary, digest.digest()):
            fh.write(part)


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
    if int(meta.get("format_version", "-1")) not in (1, FORMAT_VERSION):
        raise ValueError(f"unsupported format version {meta.get('format_version')}")
    quiver = Quiver(
        tuple(vertices), tuple(internal_edges), tuple(in_edges), tuple(out_edges), source, target
    )
    return meta, symbols, quiver, edge_dim


def load_model(path) -> ModelBundle:
    """Read a model file. The binary section's length is checked against
    the header before its one aligned buffer is allocated, so a corrupted
    dimension raises ModelFileError, not MemoryError."""
    with open(path, "rb") as fh:
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
            tol, seed = float(meta.get("isometry_tol", "1e-08")), int(meta.get("seed", "0"))
            version = int(meta["format_version"])
        except ValueError as exc:
            raise ModelFileError(f"{path}: bad header: {str(exc)[:200]}") from exc
        shapes = {v: tuple(edge_dim[e] for e in quiver.vertex_in_edges(v) + quiver.vertex_out_edges(v))
                  for v in quiver.vertices}
        counts = [math.prod(shape) for shape in shapes.values()]  # exact: a dim may exceed int64
        if 16 * sum(counts) != binary_len:
            raise ModelFileError(f"{path}: binary section of {binary_len} bytes does not hold "
                                 f"the header's {sum(counts)} complex entries")
        binary = np.empty(sum(counts), dtype="<c16")
        if fh.readinto(binary) != binary_len or len(checksum := fh.read(8)) != 8:
            raise ModelFileError(f"{path}: file truncated while reading")
    digest = hashlib.blake2b(digest_size=8)
    # version 1 checksums the binary section only
    for part in (binary,) if version == 1 else (prefix[len(MAGIC):], raw_header, binary):
        digest.update(part)
    if digest.digest() != checksum:
        raise ModelFileError(f"{path}: checksum mismatch (file corrupted or truncated)")

    binary.setflags(write=False)  # the tensors are views of this buffer, taken without a copy
    parts = np.split(binary, np.cumsum(counts)[:-1])
    tensors = {v: part.reshape(shape) for (v, shape), part in zip(shapes.items(), parts)}

    try:
        net = TensorNetwork(quiver, edge_dim, tensors, tol)
        symbol_set = SymbolSet(tuple(symbols), meta.get("scheme", "chars")) if symbols else None
    except (ValueError, TypeError) as exc:
        raise ModelFileError(f"{path}: invalid model: {str(exc)[:200]}") from exc
    return ModelBundle(net, symbol_set, meta.get("kind", "custom"), seed, meta.get("prng", PRNG_NAME))
