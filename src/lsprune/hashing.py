"""Seeded locality-sensitive hash families over edge-attribute vectors.

Two variants map ``R^d`` to integer buckets:

* ``lsp_t`` (binary signatures): compare the input against a standard-normal
  threshold vector entrywise (strictly greater -> bit 1), pack the bits
  MSB-first into ``ceil(d / 8)`` bytes zero-padded at the tail, take the MD5
  digest, read its first 8 bytes as a big-endian unsigned integer, and reduce
  modulo the bucket count ``m``.
* ``lsp_p`` (random projections): ``floor((<x, w> + b) / l)`` with standard
  normal direction ``w`` and offset ``b ~ U[0, l]``, yielding a signed bucket.

Both hash an edge's vector ``[x_u | e_uv | x_v]`` from its blocks, each
node's block once per node, gathered by endpoint; the ``(|E|, d)`` rows are
never built.  An lsp_t bit is an exact comparison, so ``lsp_t`` ORs the
blocks' signature codes, ``uint64`` words at each block's bit offset.
``lsp_p`` fixes the summation order of ``<x, w>``: each block's dot product
is summed column by column, left to right, then the block sums are added
left to right (first endpoint, edge block, second endpoint).

Function ``i`` of a family is derived from ``mix_seed(master_seed, i)``, so a
family with more functions extends a smaller one sharing the same master
seed.  Bucket values are deterministic for fixed (variant, master_seed, i, x)
across processes, thread counts, BLAS builds, and a vector's position among
the vectors hashed with it; bit-exact parameter reproduction across
*different* numpy builds is not promised, which is why families can be
serialized to a sidecar file (see :mod:`lsprune.container`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .attrs import EdgeAttrTable
from .seeding import mix_seed

LSP_T = "lsp_t"
LSP_P = "lsp_p"
VARIANTS = (LSP_T, LSP_P)

DEFAULT_K = 4
DEFAULT_M = 65536
DEFAULT_L = 1.0

_PROJECTION_BYTES = 1 << 20  # a block's row chunk, kept in cache across its columns


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

    def bucket_matrix(self, rows) -> np.ndarray:
        """``(k, n)`` bucket matrix of ``n`` vectors under all functions.

        ``rows`` is an ``(n, d)`` array or an :class:`~lsprune.attrs.EdgeAttrTable`
        of ``n`` edges.  Both variants hash a table's blocks without assembling
        its rows; an array is one block.  Each (vector, function) pair is
        hashed exactly once.
        """
        cfg = self.config
        blocks = _checked_blocks(rows, cfg.d)
        if cfg.variant == LSP_T:
            return np.stack(
                [_signature_buckets(_signature_keys(blocks, t), cfg.d, cfg.m) for t in self.vectors]
            )
        out = np.empty((cfg.k, len(rows)), dtype=np.int64)
        for i in range(cfg.k):
            with np.errstate(over="ignore", invalid="ignore"):  # inf or nan fails the range check
                bins = np.floor((_projections(blocks, self.vectors[i]) + self.offsets[i]) / cfg.l)
            if not ((bins >= -(2.0**63)) & (bins < 2.0**63)).all():
                raise ValueError(
                    f"lsp_p projection bucket outside int64 under function {i}; "
                    "attribute values are too large for bin width l"
                )
            out[i] = bins
        return out


def _checked_blocks(rows, d: int) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """The ``(matrix, index)`` blocks of ``rows``, whose vectors must be finite."""
    if isinstance(rows, EdgeAttrTable):
        blocks, shape = rows.blocks(), (len(rows), rows.dim)
    else:
        rows = np.asarray(rows, dtype=np.float64)
        blocks, shape = [(rows, None)], rows.shape
    if len(shape) != 2 or shape[1] != d:
        raise ValueError(f"expected rows of dimension {d}, got shape {shape}")
    # single-pass screen: any NaN/Inf entry makes the sum non-finite (inf - inf is nan);
    # a non-finite sum of finite entries (overflow) is ruled out exactly.  A gathered
    # block is checked on the rows it gathers only.
    for mat, idx in blocks:
        with np.errstate(over="ignore", invalid="ignore"):
            total = mat.sum()
        if mat.size and not np.isfinite(total):
            finite = np.isfinite(mat).all(axis=1)
            if not (finite if idx is None else finite[idx]).all():
                raise ValueError("attribute vectors contain non-finite entries")
    return blocks


def _projections(blocks, w: np.ndarray) -> np.ndarray:
    """``<x, w>`` of the blocks' vectors, summed in the documented order.

    Elementwise ops give a row the same bits wherever it sits, so the row
    chunks a block's columns are summed over cannot change a sum.
    """
    total, lo = None, 0
    for mat, idx in blocks:
        part = np.zeros(len(mat))  # adding to 0.0 leaves the first column's product as it is
        step = max(1, _PROJECTION_BYTES // (8 * max(1, mat.shape[1])))
        for start in range(0, len(mat), step):
            chunk, acc = mat[start : start + step], part[start : start + step]
            for j in range(mat.shape[1]):
                acc += chunk[:, j] * w[lo + j]
        part = part if idx is None else np.take(part, idx)
        total = part if total is None else np.add(total, part, out=total)
        lo += mat.shape[1]
    return total


def _signature_keys(blocks, t: np.ndarray) -> np.ndarray:
    """``(n, W)`` signatures of the blocks' vectors under thresholds ``t``, as ``uint64`` words.

    Word ``j`` of a row holds bits ``64j .. 64j + 63`` of the signature ``x > t``,
    MSB first, so the big-endian bytes of its ``W = ceil(d / 64)`` words are the
    signature packed and zero-padded.  Each block is coded once per row of its
    matrix at its bit offset, then gathered by its index; the blocks' codes
    occupy disjoint bits, so OR joins them.
    """
    words = -(-len(t) // 64)
    keys, lo = None, 0
    for mat, idx in blocks:
        code = _packed_words(mat > t[lo : lo + mat.shape[1]], lo, words)
        code = code if idx is None else np.take(code, idx, axis=0)
        keys = code if keys is None else np.bitwise_or(keys, code, out=keys)
        lo += mat.shape[1]
    return keys


def _packed_words(bits: np.ndarray, lo: int, words: int) -> np.ndarray:
    """``bits`` (one row each) placed at bit ``lo`` of ``words`` MSB-first ``uint64`` words."""
    n, w = bits.shape
    first, shift = divmod(lo, 8)  # whole bytes before the block; its bits in the next byte
    nbytes = -(-(shift + w) // 8)
    # whole bytes per row, so one flat packbits packs each row MSB first with a
    # zero-padded tail (packbits along axis 1 is several times slower)
    padded = np.zeros((n, 8 * nbytes), dtype=bool)
    padded[:, shift : shift + w] = bits
    packed = np.zeros((n, 8 * words), dtype=np.uint8)
    packed[:, first : first + nbytes] = np.packbits(padded.reshape(-1)).reshape(n, nbytes)
    return packed.view(">u8").astype(np.uint64)


def _signature_buckets(keys: np.ndarray, d: int, m: int) -> np.ndarray:
    """MD5-reduce ``d``-bit signatures (``(n, W)`` words, one row each) to buckets in [0, m).

    Rows often share a signature, so each distinct signature is hashed once
    and its bucket scattered back to every row that carries it.  One-word
    signatures (``d <= 64``) are deduplicated as ``uint64`` keys, which sort
    several times faster than the ``void`` keys of longer ones.
    """
    width = -(-d // 8)  # bytes of a packed signature
    words = keys.shape[1]
    if words == 1:
        uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
        uniq = uniq.astype(">u8")
    else:
        wide = keys.astype(">u8").view((np.void, 8 * words)).ravel()
        uniq, inverse = np.unique(wide, return_inverse=True)
    # the packed bytes of each distinct signature, without the zero padding of its last word
    raw = np.ascontiguousarray(uniq.view(np.uint8).reshape(len(uniq), 8 * words)[:, :width])
    md5 = hashlib.md5
    digests = b"".join([md5(s).digest()[:8] for s in raw.view((np.void, width)).ravel().tolist()])
    heads = np.frombuffer(digests, dtype=">u8")  # first 8 digest bytes, big-endian
    return (heads % m).astype(np.int64)[inverse]
