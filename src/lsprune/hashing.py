"""Seeded locality-sensitive hash families over edge-attribute vectors.

Two variants map ``R^d`` to integer buckets:

* ``lsp_t`` (binary signatures): compare the input against a standard-normal
  threshold vector entrywise (strictly greater -> bit 1), pack the bits
  MSB-first into ``ceil(d / 8)`` bytes zero-padded at the tail, take the MD5
  digest, read its first 8 bytes as a big-endian unsigned integer, and reduce
  modulo the bucket count ``m``.
* ``lsp_p`` (random projections): ``floor((<x, w> + b) / l)`` with standard
  normal direction ``w`` and offset ``b ~ U[0, l]``, yielding a signed bucket.

Function ``i`` of a family is derived from ``mix_seed(master_seed, i)``, so a
family with more functions extends a smaller one sharing the same master
seed.  Bucket values are deterministic for fixed (variant, master_seed, i, x)
across processes and thread counts; bit-exact parameter reproduction across
*different* numpy builds is not promised, which is why families can be
serialized to a sidecar file (see :mod:`lsprune.container`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .seeding import mix_seed

LSP_T = "lsp_t"
LSP_P = "lsp_p"
VARIANTS = (LSP_T, LSP_P)

DEFAULT_K = 4
DEFAULT_M = 65536
DEFAULT_L = 1.0


@dataclass(frozen=True)
class LshFamilyConfig:
    """Parameters of a hash family.

    ``m`` (bucket count, a power of two up to ``2**63``) only applies to
    ``lsp_t``; ``l`` (bin width) only to ``lsp_p``.  The defaults are declared
    choices, exposed as CLI flags, not tuned values.
    """

    variant: str
    d: int
    k: int = DEFAULT_K
    m: int = DEFAULT_M
    l: float = DEFAULT_L
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown hash variant {self.variant!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if not 2 <= self.m <= 2**63 or self.m & (self.m - 1):
            raise ValueError(f"m must be a power of two in [2, 2**63], got {self.m}")
        if not 0 < self.l < math.inf:
            raise ValueError(f"l must be > 0 and finite, got {self.l}")
        if self.master_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class LshFamily:
    """A realized family of ``k`` hash functions.

    ``vectors[i]`` is function ``i``'s threshold vector (``lsp_t``) or
    projection direction (``lsp_p``), the ``w i`` line of a sidecar;
    ``offsets`` holds the ``lsp_p`` projection offsets.  Parameters are
    immutable after construction and hashing is pure, so a family can be
    shared freely across workers.
    """

    config: LshFamilyConfig
    vectors: np.ndarray
    offsets: np.ndarray | None = None

    def __post_init__(self) -> None:
        cfg = self.config
        offsets = None if self.offsets is None else self.offsets.shape
        want = (cfg.k,) if cfg.variant == LSP_P else None  # an lsp_t family has no offsets
        if self.vectors.shape != (cfg.k, cfg.d) or offsets != want:
            raise ValueError("a family needs vectors of shape (k, d), and lsp_p offsets of (k,)")

    @classmethod
    def from_config(cls, cfg: LshFamilyConfig) -> "LshFamily":
        """Generate parameters from per-function sub-seeds of the master seed.

        Function ``i`` draws its vector first from its own generator, then,
        under ``lsp_p``, its offset.
        """
        vectors = np.empty((cfg.k, cfg.d))
        offsets = np.empty(cfg.k) if cfg.variant == LSP_P else None
        for i in range(cfg.k):
            rng = np.random.default_rng(mix_seed(cfg.master_seed, i))
            vectors[i] = rng.standard_normal(cfg.d)
            if offsets is not None:
                offsets[i] = rng.uniform(0.0, cfg.l)
        return cls(config=cfg, vectors=vectors, offsets=offsets)

    def bucket_matrix(self, rows: np.ndarray) -> np.ndarray:
        """``(k, n)`` bucket matrix of ``n`` row vectors under all functions.

        Each (row, function) pair is hashed exactly once.
        """
        cfg = self.config
        rows = _check_rows(rows, cfg.d)
        if cfg.variant == LSP_T:
            return np.stack([_signature_buckets(rows > t, cfg.m) for t in self.vectors])
        out = np.empty((cfg.k, len(rows)), dtype=np.int64)
        for i in range(cfg.k):
            with np.errstate(over="ignore"):  # an overflow to inf fails the range check
                bins = np.floor((rows @ self.vectors[i] + self.offsets[i]) / cfg.l)
            if not ((bins >= -(2.0**63)) & (bins < 2.0**63)).all():
                raise ValueError(
                    f"lsp_p projection bucket outside int64 under function {i}; "
                    "attribute values are too large for bin width l"
                )
            out[i] = bins
        return out


def _check_rows(rows: np.ndarray, d: int) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != d:
        raise ValueError(f"expected rows of dimension {d}, got shape {rows.shape}")
    # single-pass screen: any NaN/Inf entry makes the sum non-finite; a
    # non-finite sum of finite entries (overflow) is ruled out exactly
    with np.errstate(over="ignore"):
        total = rows.sum()
    if rows.size and not np.isfinite(total) and not np.isfinite(rows).all():
        raise ValueError("attribute vectors contain non-finite entries")
    return rows


def _signature_buckets(bits: np.ndarray, m: int) -> np.ndarray:
    """MD5-reduce boolean signatures (one per row) to buckets in [0, m).

    Rows often share a signature, so each distinct packed row is hashed once
    and its bucket scattered back to every row that carries it.  Packed rows
    of up to 8 bytes are deduplicated as left-aligned big-endian ``uint64``
    keys, which sort several times faster than ``void`` keys.
    """
    n, d = bits.shape
    width = -(-d // 8)  # bytes of a packed signature
    # whole bytes per row, so one flat packbits packs each row MSB first with a
    # zero-padded tail (packbits along axis 1 is several times slower)
    padded = np.zeros((n, 8 * width), dtype=bool)
    padded[:, :d] = bits
    packed = np.packbits(padded.reshape(-1)).reshape(n, width)
    if width <= 8:
        keys = np.zeros((n, 8), dtype=np.uint8)
        keys[:, :width] = packed
        keys = keys.view(">u8")
    else:
        keys = packed.view((np.void, width))
    uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
    # the packed bytes of each distinct signature, without the uint64 padding
    raw = np.ascontiguousarray(uniq.view(np.uint8).reshape(-1, uniq.itemsize)[:, :width])
    md5 = hashlib.md5
    digests = b"".join([md5(s).digest()[:8] for s in raw.view((np.void, width)).ravel().tolist()])
    heads = np.frombuffer(digests, dtype=">u8")  # first 8 digest bytes, big-endian
    return (heads % m).astype(np.int64)[inverse]

