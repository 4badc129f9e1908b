import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsprune import LshFamily, LshFamilyConfig

from util import bucket_rows, collision_rate, md5_bucket

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
    # lsp_p: floor((<x, w> + b) / l), computed here one element at a time
    rows = np.random.default_rng(21).standard_normal((10, 6))
    tfam = LshFamily.from_config(LshFamilyConfig("lsp_t", d=6, k=3, m=1024, master_seed=5))
    pfam = LshFamily.from_config(LshFamilyConfig("lsp_p", d=6, k=3, l=0.5, master_seed=5))
    tmat = tfam.bucket_matrix(rows)
    pmat = pfam.bucket_matrix(rows)
    for i in range(3):
        for j, x in enumerate(rows):
            digest = hashlib.md5(np.packbits(x > tfam.vectors[i]).tobytes()).digest()
            assert tmat[i, j] == int.from_bytes(digest[:8], "big") % 1024
            proj = float(x @ pfam.vectors[i]) + float(pfam.offsets[i])
            assert pmat[i, j] == math.floor(proj / 0.5)


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
