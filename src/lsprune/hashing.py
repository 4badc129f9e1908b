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
from dataclasses import dataclass, replace

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
        if not self.l > 0:
            raise ValueError(f"l must be > 0, got {self.l}")


@dataclass(frozen=True)
class LshFamily:
    """A realized family of ``k`` hash functions.

    ``thresholds`` holds the per-function comparison vectors for ``lsp_t``;
    ``directions`` and ``offsets`` the projection parameters for ``lsp_p``.
    Parameters are immutable after construction and hashing is pure, so a
    family can be shared freely across workers.
    """

    config: LshFamilyConfig
    thresholds: np.ndarray | None = None
    directions: np.ndarray | None = None
    offsets: np.ndarray | None = None

    def __post_init__(self) -> None:
        cfg = self.config
        if cfg.variant == LSP_T:
            if self.thresholds is None or self.thresholds.shape != (cfg.k, cfg.d):
                raise ValueError("lsp_t family needs thresholds of shape (k, d)")
        else:
            if self.directions is None or self.directions.shape != (cfg.k, cfg.d):
                raise ValueError("lsp_p family needs directions of shape (k, d)")
            if self.offsets is None or self.offsets.shape != (cfg.k,):
                raise ValueError("lsp_p family needs offsets of shape (k,)")

    @classmethod
    def from_config(cls, cfg: LshFamilyConfig) -> "LshFamily":
        """Generate parameters from per-function sub-seeds of the master seed."""
        if cfg.variant == LSP_T:
            thresholds = np.stack(
                [
                    np.random.default_rng(mix_seed(cfg.master_seed, i)).standard_normal(cfg.d)
                    for i in range(cfg.k)
                ]
            )
            return cls(config=cfg, thresholds=thresholds)
        directions = np.empty((cfg.k, cfg.d))
        offsets = np.empty(cfg.k)
        for i in range(cfg.k):
            rng = np.random.default_rng(mix_seed(cfg.master_seed, i))
            directions[i] = rng.standard_normal(cfg.d)
            offsets[i] = rng.uniform(0.0, cfg.l)
        return cls(config=cfg, directions=directions, offsets=offsets)

    def bucket_rows(self, i: int, rows: np.ndarray) -> np.ndarray:
        """Buckets of a batch of row vectors under function ``i``."""
        rows = _check_rows(rows, self.config.d)
        if self.config.variant == LSP_T:
            return _signature_buckets(rows > self.thresholds[i], self.config.m)
        with np.errstate(over="ignore"):  # an overflow to inf fails the range check
            bins = np.floor((rows @ self.directions[i] + self.offsets[i]) / self.config.l)
        if not ((bins >= -(2.0**63)) & (bins < 2.0**63)).all():
            raise ValueError(
                f"lsp_p projection bucket outside int64 under function {i}; "
                "attribute values are too large for bin width l"
            )
        return bins.astype(np.int64)

    def bucket_matrix(self, rows: np.ndarray) -> np.ndarray:
        """``(k, n)`` bucket matrix of ``n`` row vectors under all functions.

        Each (row, function) pair is hashed exactly once.
        """
        rows = _check_rows(rows, self.config.d)
        return np.stack([self.bucket_rows(i, rows) for i in range(self.config.k)])


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
    """MD5-reduce boolean signatures (one per row) to buckets in [0, m)."""
    packed = np.packbits(bits, axis=1)  # MSB first, tail zero-padded
    out = np.empty(len(bits), dtype=np.uint64)
    md5 = hashlib.md5
    for j, row in enumerate(packed):
        digest = md5(row.tobytes()).digest()
        out[j] = int.from_bytes(digest[:8], "big")
    return (out % m).astype(np.int64)


def collision_rate(cfg: LshFamilyConfig, pairs, trials: int) -> np.ndarray:
    """Empirical collision rate of each ``(x, y)`` pair over fresh functions.

    Draws ``trials`` functions from ``cfg.master_seed`` (each with its own
    sub-seed) and returns, per pair, the fraction under which both vectors
    land in the same bucket.  Callers aggregate the rates by pair distance to
    check that nearby pairs collide more often than distant ones.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    xs = np.stack([np.asarray(x, dtype=np.float64) for x, _ in pairs])
    ys = np.stack([np.asarray(y, dtype=np.float64) for _, y in pairs])
    probe = LshFamily.from_config(replace(cfg, k=trials))
    hx = probe.bucket_matrix(xs)
    hy = probe.bucket_matrix(ys)
    return (hx == hy).mean(axis=0)
