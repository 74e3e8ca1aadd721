"""Fused index-codec kernels: the batched encode→encrypt→disperse→pack
fast path.

The per-record index pipeline of :mod:`repro.core.index` composes four
pure stages — Stage-2 encoding, the Stage-1 Feistel PRP, Stage-3
dispersion and fixed-width packing.  For the chunk domains the paper
actually uses (Stage-2 codes and raw chunks of at most
:data:`MAX_FUSED_BITS` bits) every stage after encoding is a pure
function of the chunk *value*, so the whole composition collapses into
one precomputed table per (key, parameters) pair:

``value -> (site-0 packed bytes, …, site-k-1 packed bytes)``

A :class:`FusedCodec` holds that table in the representation best
suited to the piece width:

* 1-byte pieces over a <=256-value domain: one 256-byte
  ``bytes.translate`` table per site — a whole record's stream is one
  C-level ``translate`` call per site;
* 1-byte pieces over wider domains: one ``bytes`` row of length
  ``domain`` per site, streamed with ``bytes(map(row.__getitem__, …))``;
* 2-byte pieces: per-site value rows streamed through an ``array``
  with a single byte swap.

Every representation is byte-identical to the per-chunk path
:class:`repro.core.index.IndexPipeline` runs for larger domains —
the equivalence suite in ``tests/core/test_kernels.py`` pins this
across the parameter grid, so wire costs and the paper's tables are
untouched by the optimisation.

Codecs are cached process-wide in a keyed registry
(:func:`fused_codec`) so every pipeline instance over the same keys
and parameters — repeated benchmark stores, the rekey twin, chaos
episodes — shares one table.  The registry exports hit/miss/build
metrics through :mod:`repro.obs.metrics` (``kernels.codec.*``).

>>> from repro.crypto.feistel import FeistelPRP
>>> prp = FeistelPRP(b"k" * 16, domain_size=64)
>>> codec = fused_codec(prp=prp, disperser=None, piece_width=1,
...                     domain=64)
>>> codec.site_streams([1, 2, 3]) == [bytes(
...     prp.encrypt(v) for v in (1, 2, 3))]
True
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
import time
from array import array
from collections import OrderedDict
from pathlib import Path

from repro.core.dispersion import Disperser
from repro.crypto.feistel import FeistelPRP
from repro.obs.metrics import inc as metric_inc
from repro.obs.metrics import observe as metric_observe
from repro.obs.metrics import set_gauge as metric_set_gauge

#: Largest chunk-value domain (in bits) the fused tables cover.  The
#: paper's configurations sit at or below 16 bits (Stage-2 codes are
#: at most 16 bits; raw ``s·f`` chunks beyond 16 bits fall back to the
#: reference path).  Kept separate from the Feistel table bound so the
#: two can be tuned independently.
MAX_FUSED_BITS = 16

#: Registry capacity: distinct (key, parameter) codecs kept alive.
#: Each codec costs at most ``k · 2**MAX_FUSED_BITS`` table slots
#: (~64 KiB–1 MiB); 64 of them bound worst-case residency at a few
#: tens of megabytes while covering every realistic deployment (one
#: codec per chunking group per store).
CACHE_CAPACITY = 64


class FusedCodec:
    """One fused ``chunk value -> per-site packed bytes`` table.

    Instances are built by :func:`fused_codec`; they assume their
    inputs are in-range chunk values (the pipeline produces them by
    construction — Stage-2 codes are ``< n_codes``, raw packings are
    ``< 2**chunk_bits``).  Out-of-range values raise ``IndexError``
    rather than corrupting output silently.
    """

    __slots__ = ("domain", "sites", "piece_width", "_translate", "_rows")

    def __init__(
        self,
        domain: int,
        sites: int,
        piece_width: int,
        pieces: list[tuple[int, ...]],
    ) -> None:
        self.domain = domain
        self.sites = sites
        self.piece_width = piece_width
        self._translate: list[bytes] | None = None
        self._rows: list[bytes] | list[list[int]] | None = None
        if piece_width == 1 and domain <= 256:
            # bytes.translate tables must be exactly 256 entries; the
            # slots beyond the domain are unreachable by construction.
            self._translate = [
                bytes(
                    pieces[value][site] if value < domain else 0
                    for value in range(256)
                )
                for site in range(sites)
            ]
        elif piece_width == 1:
            self._rows = [
                bytes(pieces[value][site] for value in range(domain))
                for site in range(sites)
            ]
        else:
            self._rows = [
                [pieces[value][site] for value in range(domain)]
                for site in range(sites)
            ]

    def site_streams(self, values: list[int]) -> list[bytes]:
        """The per-site packed index streams of one chunk-value list."""
        if self._translate is not None:
            packed = bytes(values)
            return [packed.translate(table) for table in self._translate]
        rows = self._rows
        if self.piece_width == 1:
            return [
                bytes(map(row.__getitem__, values)) for row in rows
            ]
        streams = []
        for row in rows:
            packed = array("H", [row[value] for value in values])
            if sys.byteorder == "little":
                packed.byteswap()
            streams.append(packed.tobytes())
        return streams

    def translate_table(self, site: int) -> bytes | None:
        """The site's 256-entry ``bytes.translate`` table, when this
        codec uses the translate representation (one-byte pieces over
        a domain of at most 256 values); ``None`` otherwise.  Lets
        byte-stream pipelines (the compressed index's code-level ECB)
        reuse the shared codec registry for bulk encode+encrypt."""
        if self._translate is None:
            return None
        return self._translate[site]


def _codec_key(
    prp: FeistelPRP | None,
    disperser: Disperser | None,
    piece_width: int,
    domain: int,
) -> tuple:
    """Registry key: everything the table is a function of.

    Distinct PRP keys, round counts, dispersal matrices or widths can
    never share a table — the cache-keying tests pin this.
    """
    prp_part = (
        None if prp is None
        else (prp.key, prp.domain_size, prp.rounds)
    )
    disp_part = (
        None if disperser is None
        else (disperser.k, disperser.piece_bits, disperser.matrix.rows)
    )
    return (prp_part, disp_part, piece_width, domain)


_REGISTRY: OrderedDict[tuple, FusedCodec] = OrderedDict()


# ---------------------------------------------------------------------------
# disk persistence
# ---------------------------------------------------------------------------

#: Environment variable naming the on-disk codec cache directory.
#: When set in a client's environment, built tables are persisted and
#: later client processes load them instead of re-running the Feistel
#: PRP over the whole chunk domain — the dominant cold-start cost.
#: Site processes never build a codec: only the client runs the
#: index pipeline.
CODEC_CACHE_ENV = "REPRO_CODEC_CACHE_DIR"

#: On-disk format version; bumped on any layout change so stale files
#: miss cleanly instead of decoding garbage.
DISK_FORMAT_VERSION = 1

_DISK_MAGIC = b"RPCC"
_DISK_HEADER = struct.Struct(">4sBBHI")

def codec_cache_dir() -> Path | None:
    """The active on-disk cache directory, or ``None`` (cache off)."""
    env = os.environ.get(CODEC_CACHE_ENV)
    return Path(env) if env else None


def _disk_name(key: tuple) -> str:
    """Stable file name of one codec key.

    The key tuple contains only ints, bytes, ``None`` and nested
    tuples (see :func:`_codec_key`), whose ``repr`` is deterministic
    across processes and runs — hashing it gives a collision-safe,
    invalidation-correct name: any change to the PRP key, round count,
    dispersal parameters, piece width or domain changes the digest.
    """
    digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
    return f"codec-v{DISK_FORMAT_VERSION}-{digest}.bin"


def _save_codec_table(
    path: Path,
    domain: int,
    sites: int,
    piece_width: int,
    pieces: list[tuple[int, ...]],
) -> None:
    """Persist one fused table atomically (write-temp + rename).

    Layout: ``RPCC | version u8 | piece_width u8 | sites u16 |
    domain u32`` followed by ``domain * sites`` big-endian u16 piece
    values in value-major order.  Pieces are at most 16 bits by
    construction (:data:`MAX_FUSED_BITS`).
    """
    header = _DISK_HEADER.pack(
        _DISK_MAGIC, DISK_FORMAT_VERSION, piece_width, sites, domain
    )
    body = array("H", [
        piece for row in pieces for piece in row
    ])
    if sys.byteorder == "little":
        body.byteswap()
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_bytes(header + body.tobytes())
    os.replace(tmp, path)


def _load_codec_table(
    path: Path, domain: int, sites: int, piece_width: int
) -> FusedCodec | None:
    """Load one persisted table; ``None`` on any mismatch or damage
    (the caller rebuilds — corruption can cost time, never bytes)."""
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    if len(blob) < _DISK_HEADER.size:
        return None
    magic, version, width, file_sites, file_domain = (
        _DISK_HEADER.unpack_from(blob)
    )
    if (magic != _DISK_MAGIC or version != DISK_FORMAT_VERSION
            or width != piece_width or file_sites != sites
            or file_domain != domain):
        return None
    expected = _DISK_HEADER.size + 2 * domain * sites
    if len(blob) != expected:
        return None
    body = array("H")
    body.frombytes(blob[_DISK_HEADER.size:])
    if sys.byteorder == "little":
        body.byteswap()
    pieces = [
        tuple(body[value * sites:(value + 1) * sites])
        for value in range(domain)
    ]
    return FusedCodec(domain, sites, piece_width, pieces)


def _disk_fetch(
    key: tuple, domain: int, sites: int, piece_width: int
) -> FusedCodec | None:
    directory = codec_cache_dir()
    if directory is None:
        return None
    codec = _load_codec_table(
        directory / _disk_name(key), domain, sites, piece_width
    )
    if codec is not None:
        metric_inc("kernels.codec.disk_hit")
    else:
        metric_inc("kernels.codec.disk_miss")
    return codec


def _disk_store(
    key: tuple,
    domain: int,
    sites: int,
    piece_width: int,
    pieces: list[tuple[int, ...]],
) -> None:
    directory = codec_cache_dir()
    if directory is None:
        return
    try:
        directory.mkdir(parents=True, exist_ok=True)
        _save_codec_table(
            directory / _disk_name(key), domain, sites, piece_width,
            pieces,
        )
    except OSError:
        # Persistence is best-effort: a read-only or full disk costs
        # the next process a rebuild, nothing else.
        return
    metric_inc("kernels.codec.disk_write")


def fused_codec(
    prp: FeistelPRP | None,
    disperser: Disperser | None,
    piece_width: int,
    domain: int,
) -> FusedCodec | None:
    """Build (or fetch from the registry) the fused codec for one
    chunking's parameters, or None when the domain exceeds the fused
    bound and the caller must use the reference path.

    ``prp=None`` fuses an identity Stage 1 (``encrypt=False``);
    ``disperser=None`` fuses an identity Stage 3 (``k=1``), leaving
    just PRP + packing.
    """
    if domain > (1 << MAX_FUSED_BITS):
        return None
    if disperser is not None and disperser.dispersal_table() is None:
        return None
    key = _codec_key(prp, disperser, piece_width, domain)
    codec = _REGISTRY.get(key)
    if codec is not None:
        _REGISTRY.move_to_end(key)
        metric_inc("kernels.codec.hit")
        return codec
    metric_inc("kernels.codec.miss")
    sites = disperser.k if disperser is not None else 1
    codec = _disk_fetch(key, domain, sites, piece_width)
    if codec is None:
        started = time.perf_counter()
        if prp is not None:
            encrypted = prp.permutation_table()
            if encrypted is None:  # domain within MAX_FUSED_BITS always
                encrypted = [
                    prp.encrypt(value) for value in range(domain)
                ]
        else:
            encrypted = range(domain)
        if disperser is not None:
            table = disperser.dispersal_table()
            pieces = [table[image] for image in encrypted]
        else:
            pieces = [(image,) for image in encrypted]
        codec = FusedCodec(domain, sites, piece_width, pieces)
        metric_observe(
            "kernels.codec.build_seconds",
            time.perf_counter() - started,
        )
        _disk_store(key, domain, sites, piece_width, pieces)
    _REGISTRY[key] = codec
    while len(_REGISTRY) > CACHE_CAPACITY:
        _REGISTRY.popitem(last=False)
    metric_set_gauge("kernels.codec.cached", len(_REGISTRY))
    return codec


def codec_cache_size() -> int:
    """Number of codecs currently resident in the registry."""
    return len(_REGISTRY)


def clear_codec_cache() -> None:
    """Drop every cached codec (tests and memory-pressure hooks)."""
    _REGISTRY.clear()

