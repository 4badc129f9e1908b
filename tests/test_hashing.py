import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsprune import Graph, LshFamily, LshFamilyConfig, build_edge_attrs

from util import (
    assembled_rows,
    bucket_rows,
    collision_rate,
    edge_vector_blocks,
    md5_bucket,
    projection,
    projection_bucket,
    row_signature_buckets,
)

# first 8 bytes, big-endian, of MD5 over a single byte; frozen from an
# independent digest computation
MD5_FF_HEAD = 25139048975410239
MD5_00_HEAD = 10644404701628309641


def t_family(thresholds, m=65536):
    thresholds = np.asarray(thresholds, dtype=np.float64)
    cfg = LshFamilyConfig("lsp_t", d=thresholds.shape[1], k=thresholds.shape[0], m=m)
    return LshFamily(config=cfg, vectors=thresholds)


def p_family(directions, offsets, l=1.0):
    directions = np.asarray(directions, dtype=np.float64)
    cfg = LshFamilyConfig("lsp_p", d=directions.shape[1], k=directions.shape[0], l=l)
    return LshFamily(config=cfg, vectors=directions, offsets=np.asarray(offsets, float))


def bucket(family, i, x):
    """Bucket of the single vector ``x`` under function ``i``."""
    return int(bucket_rows(family, i, np.asarray(x, dtype=np.float64)[None])[0])


def test_all_ones_signature_matches_md5_oracle():
    fam = t_family(np.zeros((1, 8)))
    got = bucket(fam, 0, np.ones(8))  # strictly above every threshold
    assert got == MD5_FF_HEAD % 65536
    # cross-check the frozen constant against hashlib right here
    assert MD5_FF_HEAD == int.from_bytes(hashlib.md5(b"\xff").digest()[:8], "big")


def test_input_equal_to_threshold_hashes_as_zero_signature():
    # comparison is strict 'greater than', so ties give bit 0
    fam = t_family(np.full((1, 8), 0.25))
    got = bucket(fam, 0, np.full(8, 0.25))
    assert got == MD5_00_HEAD % 65536
    assert MD5_00_HEAD == int.from_bytes(hashlib.md5(b"\x00").digest()[:8], "big")


def test_same_side_of_thresholds_implies_collision():
    rng = np.random.default_rng(0)
    fam = LshFamily.from_config(LshFamilyConfig("lsp_t", d=6, k=3, master_seed=4))
    for _ in range(50):
        x = rng.standard_normal(6)
        delta = rng.random(6) * 0.5
        for i in range(3):
            w = fam.vectors[i]
            y = np.where(x > w, x + delta, x - delta)  # stays on the same side
            assert bucket(fam, i, x) == bucket(fam, i, y)


def test_signature_padding_beyond_one_byte():
    # d=12 packs into two bytes, tail zero-padded: 1111 0000 0000 -> f0 00
    fam = t_family(np.concatenate([np.zeros(4), np.ones(4) * 10, np.ones(4) * 10])[None, :], m=2**32)
    x = np.concatenate([np.ones(4), np.zeros(8)])
    expected = int.from_bytes(hashlib.md5(b"\xf0\x00").digest()[:8], "big") % 2**32
    assert bucket(fam, 0, x) == expected


def test_projection_zero_vector():
    fam = p_family([[0.3, -0.7]], [0.0], l=1.0)
    assert bucket(fam, 0, [0.0, 0.0]) == 0


def test_projection_hand_computed_bucket():
    fam = p_family([[1.0, 0.0]], [0.5], l=1.0)
    assert bucket(fam, 0, [1.2, 7.0]) == 1  # floor(1.2 + 0.5)


def test_projection_negative_buckets_are_signed():
    fam = p_family([[1.0]], [0.0], l=1.0)
    assert bucket(fam, 0, [-2.5]) == -3


def test_projection_within_bin_continuity():
    fam = p_family([[2.0, 0.0]], [0.25], l=1.0)
    x = np.array([0.1, 5.0])  # projection 0.45, bin 0; gap to boundary 0.55
    assert bucket(fam, 0, x) == bucket(fam, 0, x + np.array([0.2, -3.0]))


def test_projection_shift_structure():
    # adding c * l * w / ||w||^2 moves the projection by exactly c * l
    w = np.array([[2.0, 0.0]])
    fam = p_family(w, [0.125], l=1.0)
    x = np.array([0.25, 3.0])
    step = w[0] / 4.0  # l * w / ||w||^2 with ||w||^2 = 4
    for c in (-3, -1, 1, 2, 7):
        assert bucket(fam, 0, x + c * step) == bucket(fam, 0, x) + c


def test_family_regeneration_is_identical():
    cfg = LshFamilyConfig("lsp_p", d=5, k=3, master_seed=99)
    f1 = LshFamily.from_config(cfg)
    f2 = LshFamily.from_config(cfg)
    assert np.array_equal(f1.vectors, f2.vectors)
    assert np.array_equal(f1.offsets, f2.offsets)


def test_function_parameters_depend_only_on_master_seed_and_index():
    small = LshFamily.from_config(LshFamilyConfig("lsp_p", d=4, k=2, master_seed=7))
    large = LshFamily.from_config(LshFamilyConfig("lsp_p", d=4, k=5, master_seed=7))
    assert np.array_equal(small.vectors, large.vectors[:2])
    assert np.array_equal(small.offsets, large.offsets[:2])
    other = LshFamily.from_config(LshFamilyConfig("lsp_p", d=4, k=2, master_seed=8))
    assert not np.array_equal(small.vectors, other.vectors)


def test_bucket_matrix_matches_spec():
    # lsp_t: MD5 of the packed signature, first 8 bytes big-endian, mod m;
    # lsp_p: floor((<x, w> + b) / l), <x, w> summed here one float at a time in the
    # documented order: column by column within a block, then block by block
    rows = np.random.default_rng(21).standard_normal((10, 6))
    tfam = LshFamily.from_config(LshFamilyConfig("lsp_t", d=6, k=3, m=1024, master_seed=5))
    pfam = LshFamily.from_config(LshFamilyConfig("lsp_p", d=6, k=3, l=0.5, master_seed=5))
    tmat = tfam.bucket_matrix(rows)
    pmat = pfam.bucket_matrix(rows)
    for i in range(3):
        for j, x in enumerate(rows):
            digest = hashlib.md5(np.packbits(x > tfam.vectors[i]).tobytes()).digest()
            assert tmat[i, j] == int.from_bytes(digest[:8], "big") % 1024
            assert pmat[i, j] == projection_bucket([x.tolist()], pfam.vectors[i], pfam.offsets[i], 0.5)
    # a center_first node_and_edge table: [x_u | e_uv | x_v] from each endpoint
    rng = np.random.default_rng(22)
    g = Graph(5, [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)], node_attrs=rng.standard_normal((5, 2)),
              edge_attrs=rng.standard_normal((5, 3)))
    table = build_edge_attrs(g, "node_and_edge", "center_first")
    pfam = LshFamily.from_config(LshFamilyConfig("lsp_p", d=7, k=3, l=0.25, master_seed=6))
    for view in table.oriented():
        pmat = pfam.bucket_matrix(view)
        for e in range(g.num_edges):
            blocks = edge_vector_blocks(view, e)
            for i in range(3):
                assert pmat[i, e] == projection_bucket(blocks, pfam.vectors[i], pfam.offsets[i], 0.25)


def on_bin_edge(p: float, l: float = 1.0) -> float:
    """An offset ``b`` under which ``(p + b) / l`` is exactly an integer: ``p`` on a bin edge."""
    b = math.ceil(p / l) * l - p
    while p + b < math.ceil(p / l) * l:
        b = math.nextafter(b, math.inf)
    while p + b > math.ceil(p / l) * l:
        b = math.nextafter(b, -math.inf)
    assert ((p + b) / l).is_integer()
    return b


def test_bucket_does_not_depend_on_row_position():
    # function i puts row i's documented-order projection exactly on a bin edge; BLAS
    # sums a row of this matrix differently in place and alone, so one ulp either way
    # would move the row between two buckets
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20_011, 64))
    w = rng.standard_normal(64)
    k = 8
    edges = [projection([X[i].tolist()], w) for i in range(k)]
    fam = p_family(np.tile(w, (k, 1)), [on_bin_edge(p) for p in edges])
    in_place = fam.bucket_matrix(X)
    for i in range(k):
        assert np.array_equal(in_place[:, i], fam.bucket_matrix(X[i : i + 1])[:, 0]), i
    assert [in_place[i, i] for i in range(k)] == [p + b for p, b in zip(edges, fam.offsets)]


@settings(max_examples=80, deadline=None)
@given(
    d=st.sampled_from([1, 7, 8, 9, 16, 60, 64, 65, 440, 600]),  # keys of 1..75 bytes
    k=st.integers(1, 4),
    n=st.one_of(st.just(0), st.just(1), st.integers(2, 80)),
    pool=st.integers(1, 5),
    m=st.sampled_from([2, 1024, 2**63]),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=64, k=2, n=40, pool=3, m=2**63, seed=0)  # the widest uint64 key
@example(d=65, k=2, n=40, pool=3, m=2**63, seed=0)  # the narrowest void key
def test_repeated_signatures_match_hashlib(d, k, n, pool, m, seed):
    # rows repeat a small pool, so most signatures are shared; under each of k
    # random threshold vectors every row must still get the bucket of its own
    # MD5, first 8 bytes big-endian, mod m
    rng = np.random.default_rng(seed)
    thresholds = rng.standard_normal((k, d))
    base = rng.standard_normal((pool + 2, d))
    base[0] = thresholds.min() - 1.0  # the all-zero signature: a key of NUL bytes only
    base[1] = thresholds.max() + 1.0  # the all-one signature
    rows = base[rng.integers(0, pool + 2, n)]
    fam = t_family(thresholds, m=m)
    got = fam.bucket_matrix(rows)
    assert got.dtype == np.int64 and got.shape == (k, n)
    assert got.tolist() == [[md5_bucket(x > t, m) for x in rows] for t in thresholds]
    assert fam.bucket_matrix(base[:2]).tolist() == [
        [md5_bucket(np.zeros(d, bool), m), md5_bucket(np.ones(d, bool), m)]
    ] * k


# (construction mode, node_dim, edge_dim): every d of 1, 8, 9, 64 and 65 the mode can
# build, and (12, 45), whose second node block straddles the 64-bit word boundary
CODE_LAYOUTS = [("raw_edge", 0, d_e) for d_e in (1, 8, 9, 64, 65)] + [
    ("node_only", q, 0) for q in (1, 4, 32, 33)
] + [("node_and_edge", q, d_e) for q, d_e in ((0, 1), (2, 4), (1, 7), (16, 32), (20, 25), (12, 45))]


@pytest.mark.parametrize("zscore", [False, True])
@pytest.mark.parametrize("order", ["canonical", "center_first"])
@pytest.mark.parametrize("mode, q, d_e", CODE_LAYOUTS)
@pytest.mark.parametrize("num_edges", [0, 60])
def test_block_codes_match_buckets_of_assembled_rows(mode, q, d_e, order, zscore, num_edges):
    # lsp_t hashes a table from per-block codes; under each orientation its buckets must
    # equal those of the assembled rows, thresholded and packed row by row
    rng = np.random.default_rng(q * 100 + d_e)
    n = 12
    iu, iv = np.triu_indices(n, 1)
    edges = np.stack([iu, iv], axis=1)[rng.choice(len(iu), num_edges, replace=False)]
    pool = rng.standard_normal((3, max(q, d_e)))  # repeated values make shared signatures
    node_attrs = np.where(rng.random((n, q)) < 0.5, pool[0, :q], rng.standard_normal((n, q)))
    edge_attrs = np.where(rng.random((num_edges, d_e)) < 0.5, pool[1, :d_e],
                          rng.standard_normal((num_edges, d_e)))
    g = Graph(n, edges, node_attrs=None if mode == "raw_edge" else node_attrs,
              edge_attrs=None if mode == "node_only" else edge_attrs)
    table = build_edge_attrs(g, mode, order, zscore=zscore)
    d = table.dim
    fam = LshFamily.from_config(LshFamilyConfig("lsp_t", d=d, k=3, m=2**63, master_seed=d))
    views = table.oriented()
    assert (views[1] is views[0]) == (order == "canonical" or mode == "raw_edge")
    if views[1] is not views[0]:  # the larger endpoint's view exchanges the node blocks
        rows = assembled_rows(views[0])
        assert np.array_equal(assembled_rows(views[1]), np.concatenate(
            [rows[:, d - q:], rows[:, q:d - q], rows[:, :q]], axis=1))
    for view in views:
        got = fam.bucket_matrix(view)
        want = np.stack([row_signature_buckets(assembled_rows(view) > t, 2**63) for t in fam.vectors])
        assert got.shape == (3, num_edges) and got.dtype == np.int64
        assert np.array_equal(got, want)
        assert np.array_equal(fam.bucket_matrix(assembled_rows(view)), want)


@pytest.mark.parametrize("order", ["canonical", "center_first"])
@pytest.mark.parametrize("mode, q, d_e", [("raw_edge", 0, 60), ("node_only", 8, 0), ("node_and_edge", 5, 7)])
def test_block_projections_match_blas_rows_off_bin_edges(mode, q, d_e, order):
    # buckets of the documented summation order against floor((rows @ w + b) / l) of the
    # assembled rows: BLAS sums in another order, so the two may differ only where the
    # BLAS value lies within a few rounding errors of its dot product of a bin edge
    rng = np.random.default_rng(q * 100 + d_e)
    n, num_edges, l = 300, 3000, 0.125
    iu, iv = np.triu_indices(n, 1)
    edges = np.stack([iu, iv], axis=1)[rng.choice(len(iu), num_edges, replace=False)]
    g = Graph(n, edges, node_attrs=rng.standard_normal((n, q)) if q else None,
              edge_attrs=rng.standard_normal((num_edges, d_e)) if d_e else None)
    table = build_edge_attrs(g, mode, order)
    fam = LshFamily.from_config(LshFamilyConfig("lsp_p", d=table.dim, k=6, l=l, master_seed=q))
    near_edges = 0
    for view in table.oriented():
        rows = assembled_rows(view)
        got = fam.bucket_matrix(view)
        for i, (w, b) in enumerate(zip(fam.vectors, fam.offsets)):
            blas = (rows @ w + b) / l
            differ = got[i] != np.floor(blas)
            slack = 4 * table.dim * np.finfo(float).eps * (np.abs(rows) @ np.abs(w) + b) / l
            assert (np.abs(blas - np.round(blas)) <= slack)[differ].all()
            near_edges += int(differ.sum())
    assert near_edges <= 2  # of 2 * 6 * 3000 buckets; each is one ulp-scale coincidence
    print(f"  {mode} {order}: {near_edges} buckets differ from BLAS rows, all at bin edges")


def test_opposite_overflows_in_two_blocks_end_in_range_error():
    # finite attributes whose node block projects to +inf and edge block to -inf: the
    # sum is nan, which must end in the range error, not a RuntimeWarning
    g = Graph(2, [(0, 1)], node_attrs=[[1e308], [1.0]], edge_attrs=[[-1e308]])
    table = build_edge_attrs(g, "node_and_edge")
    fam = p_family([[2.0, 2.0, 2.0]], [0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="outside int64"):
            fam.bucket_matrix(table)


def test_config_validation():
    with pytest.raises(ValueError):
        LshFamilyConfig("nope", d=4)
    with pytest.raises(ValueError):
        LshFamilyConfig("lsp_t", d=0)
    with pytest.raises(ValueError):
        LshFamilyConfig("lsp_t", d=4, k=0)
    with pytest.raises(ValueError):
        LshFamilyConfig("lsp_t", d=4, m=100)  # not a power of two
    with pytest.raises(ValueError):
        LshFamilyConfig("lsp_p", d=4, l=0.0)
    with pytest.raises(ValueError, match="seed must be"):
        LshFamilyConfig("lsp_t", d=4, master_seed=-1)


def test_bucket_count_bounded_by_2_pow_63():
    for m in (2**64, 2**65):
        with pytest.raises(ValueError, match="m must be"):
            LshFamilyConfig("lsp_t", d=4, m=m)
    fam = LshFamily.from_config(LshFamilyConfig("lsp_t", d=4, k=2, m=2**63))
    buckets = fam.bucket_matrix(np.random.default_rng(0).standard_normal((20, 4)))
    assert buckets.min() >= 0  # every bucket of [0, 2**63) fits int64


def test_projection_bucket_outside_int64_rejected():
    fam = p_family([[1.0, 1.0]], [0.0])
    top = 2.0**62  # a row of two projects to 2**63, one past the int64 maximum
    for x in ([1e19, 1e19], [top, top], [-1e19, -1e19], [1e308, 1e308]):  # last: inf
        with pytest.raises(ValueError, match="outside int64"):
            bucket(fam, 0, x)
    assert bucket(fam, 0, [-top, -top]) == -(2**63)  # the int64 minimum still fits


def test_dimension_and_finiteness_errors():
    fam = LshFamily.from_config(LshFamilyConfig("lsp_p", d=3, k=1))
    with pytest.raises(ValueError, match="dimension"):
        bucket(fam, 0, [1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        bucket(fam, 0, [1.0, np.nan, 2.0])
    tfam = LshFamily.from_config(LshFamilyConfig("lsp_t", d=3, k=1))
    with pytest.raises(ValueError, match="dimension"):
        bucket(tfam, 0, [1.0, 2.0])


def test_collision_rate_identical_inputs():
    cfg = LshFamilyConfig("lsp_p", d=4, l=1.0, master_seed=3)
    x = np.array([0.3, -1.0, 2.0, 0.5])
    rates = collision_rate(cfg, [(x, x.copy())], trials=64)
    assert rates[0] == 1.0


def test_collision_rate_monotone_in_distance():
    # Monte Carlo over 10^4 fresh functions: collision probability must not
    # increase with pair distance (up to sampling noise)
    rng = np.random.default_rng(17)
    base = rng.standard_normal(8)
    distances = [0.05, 0.2, 0.5, 1.0, 2.0, 4.0]
    direction = rng.standard_normal(8)
    direction /= np.linalg.norm(direction)
    pairs = [(base, base + r * direction) for r in distances]
    cfg = LshFamilyConfig("lsp_p", d=8, l=1.0, master_seed=11)
    rates = collision_rate(cfg, pairs, trials=10_000)
    assert np.all(np.diff(rates) <= 0.02)  # noise allowance


def test_collision_rate_separates_near_from_far():
    d = 8
    near = (np.zeros(d), np.full(d, 0.1 / np.sqrt(d) / np.sqrt(d)))
    far = (np.zeros(d), np.full(d, 10.0))
    cfg = LshFamilyConfig("lsp_p", d=d, l=1.0, master_seed=2)
    rates = collision_rate(cfg, [near, far], trials=10_000)
    assert rates[0] > rates[1]
    assert rates[0] - rates[1] > 0.5


def test_collision_rate_respects_trials_validation():
    cfg = LshFamilyConfig("lsp_p", d=2)
    with pytest.raises(ValueError):
        collision_rate(cfg, [(np.zeros(2), np.zeros(2))], trials=0)


def test_lsp_t_buckets_within_range():
    fam = LshFamily.from_config(LshFamilyConfig("lsp_t", d=5, k=4, m=16, master_seed=1))
    rows = np.random.default_rng(0).standard_normal((50, 5))
    buckets = fam.bucket_matrix(rows)
    assert buckets.min() >= 0 and buckets.max() < 16
