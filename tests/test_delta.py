"""Tests for the delta machinery and the stepping-up properties."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_increasing_tuples, tuple_from_distinct_deltas
from stepup.delta import (
    ExtremumClass,
    check_stepping_properties,
    classify_position,
    consecutive_deltas,
    delta,
    delta_array,
    delta_sequence,
    span_delta,
)
from stepup.errors import (
    EqualVertices,
    MalformedTuple,
    PositionOutOfRange,
    TupleTooShort,
)


def test_delta_known_values():
    assert delta(0, 1) == 0
    assert delta(5, 6) == 1
    assert delta(2, 6) == 2
    assert delta(6, 2) == 2
    assert delta(0, 2 ** 63) == 63


def test_delta_equal_vertices_rejected():
    with pytest.raises(EqualVertices):
        delta(7, 7)


def test_delta_negative_rejected():
    with pytest.raises(ValueError):
        delta(-1, 3)


def test_delta_sequence_known_values():
    assert delta_sequence((0, 2, 6, 14)) == (1, 2, 3)
    assert delta_sequence((0, 1)) == (0,)
    assert delta_sequence((1, 2, 3)) == (1, 0)
    assert delta_sequence((0, 8, 9, 13)) == (3, 0, 2)


def test_delta_sequence_validation():
    with pytest.raises(TupleTooShort):
        delta_sequence((5,))
    with pytest.raises(MalformedTuple):
        delta_sequence((3, 2, 5))
    with pytest.raises(MalformedTuple):
        delta_sequence((3, 3, 5))


def test_classify_position_examples():
    assert classify_position((1, 2, 3), 1) == ExtremumClass.LOCAL_MONOTONE
    assert classify_position((3, 1, 2), 1) == ExtremumClass.LOCAL_MIN
    assert classify_position((1, 3, 2), 1) == ExtremumClass.LOCAL_MAX
    assert classify_position((1, 3, 2), 0) == ExtremumClass.BOUNDARY
    assert classify_position((1, 3, 2), 2) == ExtremumClass.BOUNDARY


def test_classify_position_range():
    with pytest.raises(PositionOutOfRange):
        classify_position((1, 2), 2)
    with pytest.raises(PositionOutOfRange):
        classify_position((1, 2), -1)


def test_span_delta_examples():
    assert span_delta((0, 2, 6, 14)) == 3
    assert span_delta((1, 2, 3)) == 1


def test_check_stepping_properties_pass_examples():
    assert check_stepping_properties((0, 2, 6, 14)).ok
    report = check_stepping_properties((0, 8, 9, 13))
    assert report.ok
    assert report.checks == {
        "property_i": True, "property_ii": True, "property_iii": True,
    }
    # deltas (3, 0, 2) exercise the delta1 > delta2 branch of III: 3 != 2
    assert delta_sequence((0, 8, 9, 13)) == (3, 0, 2)


def test_check_stepping_properties_needs_three():
    with pytest.raises(TupleTooShort):
        check_stepping_properties((0, 1))


@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1))
def test_delta_symmetric_and_bounded(u, v):
    if u == v:
        return
    d = delta(u, v)
    assert d == delta(v, u)
    assert 0 <= d < max(u, v).bit_length()


@given(st.lists(st.integers(0, 50), min_size=1, max_size=10))
def test_classify_position_matches_naive(seq):
    for i in range(len(seq)):
        got = classify_position(seq, i)
        if i == 0 or i == len(seq) - 1:
            assert got == ExtremumClass.BOUNDARY
        elif seq[i - 1] < seq[i] > seq[i + 1]:
            assert got == ExtremumClass.LOCAL_MAX
        elif seq[i - 1] > seq[i] < seq[i + 1]:
            assert got == ExtremumClass.LOCAL_MIN
        else:
            assert got == ExtremumClass.LOCAL_MONOTONE


def test_property_i_randomized():
    rng = np.random.default_rng(101)
    vs = random_increasing_tuples(rng, 50_000, 3, bits=30)
    d_uv = delta_array(vs[:, 0], vs[:, 1])
    d_vw = delta_array(vs[:, 1], vs[:, 2])
    assert (d_uv != d_vw).all()


def test_property_ii_randomized():
    rng = np.random.default_rng(102)
    for length in (2, 3, 5, 9):
        vs = random_increasing_tuples(rng, 20_000, length, bits=30)
        spans = delta_array(vs[:, 0], vs[:, -1])
        cons = np.stack([
            delta_array(vs[:, i], vs[:, i + 1]) for i in range(length - 1)
        ])
        assert (spans == cons.max(axis=0)).all()


def test_property_iii_randomized():
    rng = np.random.default_rng(103)
    vs = random_increasing_tuples(rng, 50_000, 4, bits=30)
    d1 = delta_array(vs[:, 0], vs[:, 1])
    d2 = delta_array(vs[:, 1], vs[:, 2])
    d3 = delta_array(vs[:, 2], vs[:, 3])
    descending = d1 > d2
    assert (d1[descending] != d3[descending]).all()


def test_property_iv_subtuples_monotone():
    rng = np.random.default_rng(104)
    for _ in range(300):
        r = int(rng.integers(3, 9))
        ds = sorted(rng.choice(24, size=r - 1, replace=False).tolist())
        if rng.random() < 0.5:
            ds = ds[::-1]
        vs = tuple_from_distinct_deltas(ds, rng)
        full = delta_sequence(vs)
        increasing = full[0] < full[1]
        for _ in range(10):
            k = int(rng.integers(2, r + 1))
            idx = sorted(rng.choice(r, size=k, replace=False).tolist())
            sub = delta_sequence(tuple(vs[i] for i in idx))
            diffs = [b - a for a, b in zip(sub, sub[1:])]
            if increasing:
                assert all(x > 0 for x in diffs)
            else:
                assert all(x < 0 for x in diffs)


def test_stepping_properties_randomized_report():
    rng = np.random.default_rng(105)
    for _ in range(200):
        r = int(rng.integers(3, 10))
        vs = np.unique(rng.integers(0, 1 << 30, size=r + 3, dtype=np.uint64))
        if len(vs) < 3:
            continue
        assert check_stepping_properties(vs.tolist()).ok


def test_fact1_exhaustive_small_lengths():
    # Every non-monotone sequence with adjacent-distinct entries has an
    # interior local extremum.  Enumerates ALL adjacent-distinct sequences
    # of length 3..8 over {0..7}, a superset of the delta sequences
    # realizable from vertex tuples.
    for length in range(3, 9):
        total = 8 * 7 ** (length - 1)
        for start in range(0, total, 1 << 20):
            idx = np.arange(start, min(start + (1 << 20), total), dtype=np.int64)
            seqs = np.empty((idx.size, length), dtype=np.int8)
            seqs[:, 0] = idx // 7 ** (length - 1)
            rem = idx % 7 ** (length - 1)
            for pos in range(1, length):
                digit = (rem // 7 ** (length - 1 - pos)) % 7
                seqs[:, pos] = digit + (digit >= seqs[:, pos - 1])
            diff = np.diff(seqs.astype(np.int16), axis=1)
            assert (diff != 0).all()
            mono = (diff > 0).all(axis=1) | (diff < 0).all(axis=1)
            mid = seqs[:, 1:-1]
            ext = ((mid > seqs[:, :-2]) & (mid > seqs[:, 2:])) | \
                  ((mid < seqs[:, :-2]) & (mid < seqs[:, 2:]))
            assert (mono | ext.any(axis=1)).all()


def test_delta_array_matches_scalar_low_and_high():
    rng = np.random.default_rng(106)
    u = rng.integers(0, 1 << 30, size=5000, dtype=np.uint64)
    v = rng.integers(0, 1 << 30, size=5000, dtype=np.uint64)
    keep = u != v
    got = delta_array(u[keep], v[keep])
    expect = [delta(int(a), int(b)) for a, b in zip(u[keep], v[keep])]
    assert got.tolist() == expect

    # values at and above 2**53 exercise the popcount cascade path
    hi = np.array([(1 << 56) - 1, 1 << 62, (1 << 63) + 12345, 1 << 53], dtype=np.uint64)
    lo = np.array([0, 1, 7, (1 << 53) - 1], dtype=np.uint64)
    got_hi = delta_array(hi, lo)
    expect_hi = [delta(int(a), int(b)) for a, b in zip(hi, lo)]
    assert got_hi.tolist() == expect_hi


def test_delta_array_equal_pair_rejected():
    with pytest.raises(EqualVertices):
        delta_array(np.array([3, 5], dtype=np.uint64),
                    np.array([3, 6], dtype=np.uint64))


def test_consecutive_deltas_matches_scalar():
    rng = np.random.default_rng(107)
    q = np.unique(rng.integers(0, 1 << 24, size=4000, dtype=np.uint64))
    got = consecutive_deltas(q)
    assert got.tolist() == list(delta_sequence(q.tolist()))
    with pytest.raises(MalformedTuple):
        consecutive_deltas(np.array([3, 2], dtype=np.uint64))
    with pytest.raises(TupleTooShort):
        consecutive_deltas(np.array([3], dtype=np.uint64))


def test_consecutive_deltas_across_slices_and_wide_vertices():
    # long enough to span several internal slices, and one array past 2^53
    rng = np.random.default_rng(11)
    q = np.unique(rng.integers(0, 1 << 30, size=200_000, dtype=np.uint64))
    got = consecutive_deltas(q)
    assert got.dtype == np.int8
    assert got.tolist() == list(delta_sequence(q.tolist()))
    wide = np.unique(rng.integers(0, 1 << 63, size=3000, dtype=np.uint64))
    wide[-1] = np.uint64((1 << 64) - 1)
    assert (consecutive_deltas(wide).tolist()
            == list(delta_sequence(wide.tolist())))
    bad = q.copy()
    bad[150_000] = bad[150_001]
    with pytest.raises(MalformedTuple):
        consecutive_deltas(bad)


def test_consecutive_deltas_unsorted_with_early_wide_value_is_malformed():
    # the path is chosen by the last vertex, so these take the float path
    # although they hold vertices past 2^53
    wide = np.uint64(1 << 60)
    for q in (np.array([wide, 3, 5], dtype=np.uint64),
              np.concatenate([wide + np.arange(100_000, dtype=np.uint64),
                              np.arange(10, dtype=np.uint64)])):
        with pytest.raises(MalformedTuple,
                           match="vertex array must be strictly increasing"):
            consecutive_deltas(q)


def test_consecutive_deltas_are_int8_up_to_delta_63():
    # D = 64: the top bit gives the largest delta, 63, on the wide path
    top = np.uint64(1 << 63)
    q = np.array([0, 5, top, top + np.uint64(1), np.uint64((1 << 64) - 1)],
                 dtype=np.uint64)
    got = consecutive_deltas(q)
    assert got.dtype == np.int8
    assert got.tolist() == [2, 63, 0, 62] == list(delta_sequence(q.tolist()))
    # the float path stays below 2^53, where delta 52 is the largest
    narrow = np.array([0, (1 << 53) - 1], dtype=np.uint64)
    assert consecutive_deltas(narrow).dtype == np.int8
    assert consecutive_deltas(narrow).tolist() == [52]
