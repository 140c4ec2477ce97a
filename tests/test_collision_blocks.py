"""The block pass of the collision-gap engine against the per-pair loop it
replaced (``collision_reference``): the same candidates ``(x, t1, t2)`` in the
same order and the same ``ScanResult``, bit for bit."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intervalorders import (
    ScanOutcome,
    collision_scan,
    composite,
    exponential,
    identity,
    logarithm,
    logit,
    negated_log,
    negated_log_complement,
    one_minus,
    power,
)
from intervalorders import generators
from intervalorders.generators import collision_candidates
from collision_reference import (
    in_pair_zero,
    reference_collision_candidates,
    reference_collision_scan,
    reference_witness_pairs,
)

GENERATORS = [
    power(2.0), power(0.5), power(-1.0), exponential(1.0), exponential(-2.0),
    logarithm(), logit(), negated_log(), negated_log_complement(), one_minus(), identity(),
]


def _hex(values) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


def _block_candidates(h, pairs, v1, v2, n_x):
    t1 = np.array([p[0] for p in pairs], dtype=float)
    t2 = np.array([p[1] for p in pairs], dtype=float)
    return [_hex(c) for c in collision_candidates(h, t1, t2, v1, v2, n_x)]


def _reference_candidates(h, pairs, v1, v2, n_x):
    # the per-pair loop subtracts infinite h values outside an errstate
    with np.errstate(all="ignore"):
        return [_hex(c) for c in reference_collision_candidates(h, pairs, v1, v2, n_x)]


def _scan_bits(result):
    location = None if result.location is None else _hex(result.location)
    return result.outcome, location, result.sign


def _reference_scan(h, domain, v1, v2, resolution):
    with np.errstate(all="ignore"):
        return _scan_bits(reference_collision_scan(h, domain, v1, v2, resolution))


def _assert_same(h, pairs, v1, v2, n_x):
    got = _block_candidates(h, pairs, v1, v2, n_x)
    assert got == _reference_candidates(h, pairs, v1, v2, n_x)
    return got


def _square(y):
    return np.asarray(y, dtype=float) ** 2


def _sqrt(y):
    return np.sqrt(np.asarray(y, dtype=float))


def _scalar_sqrt(y):
    # refuses arrays, so every evaluation takes the per-element fallback
    if isinstance(y, np.ndarray):
        raise TypeError("scalars only")
    return math.sqrt(y)


@pytest.fixture(params=[None, 1, 7], ids=["default-block", "block-1", "block-7"])
def block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(generators, "COLLISION_BLOCK", request.param)
    return request.param


class TestDrawnComposites:
    @settings(max_examples=150, deadline=None)
    @given(
        f=st.sampled_from(GENERATORS),
        g=st.sampled_from(GENERATORS),
        v1=st.floats(0.05, 0.95),
        v2=st.one_of(st.none(), st.floats(0.05, 0.95)),
        margin=st.sampled_from([0.0, 0.02, 0.2]),
        points=st.integers(2, 10),
        n_x=st.integers(1, 48),
        order=st.sampled_from(["combinations", "widest-first", "shuffled"]),
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from([1, 7, 64]),
    )
    def test_candidates(self, f, g, v1, v2, margin, points, n_x, order, seed, block):
        h = composite(f, g).fn
        v2 = v1 if v2 is None else v2
        with np.errstate(all="ignore"):
            ts = np.sort(np.asarray(f.fn(np.linspace(margin, 1.0 - margin, points)), float))
        if order == "widest-first":
            pairs = reference_witness_pairs(ts)
        else:
            pairs = list(combinations(map(float, ts), 2))
            if order == "shuffled":
                pairs = [pairs[k] for k in np.random.default_rng(seed).permutation(len(pairs))]
        saved = generators.COLLISION_BLOCK
        generators.COLLISION_BLOCK = block
        try:
            _assert_same(h, pairs, v1, v2, n_x)
        finally:
            generators.COLLISION_BLOCK = saved

    @settings(max_examples=150, deadline=None)
    @given(
        f=st.sampled_from(GENERATORS),
        g=st.sampled_from(GENERATORS),
        v1=st.floats(0.05, 0.95),
        v2=st.one_of(st.none(), st.floats(0.05, 0.95)),
        unit_domain=st.booleans(),
        resolution=st.integers(16, 28),
    )
    def test_scan(self, f, g, v1, v2, unit_domain, resolution):
        # on the unit domain the endpoint samples 0 and 1 send a log or
        # logit h to +-inf
        h = (composite(identity(), g) if unit_domain else composite(f, g)).fn
        domain = (0.0, 1.0) if unit_domain else f.range_open()
        v2 = v1 if v2 is None else v2
        assert _scan_bits(collision_scan(h, domain, v1, v2, resolution)) == \
            _reference_scan(h, domain, v1, v2, resolution)


class TestAdversarial:
    def test_affine_h_at_equal_weights_is_flat(self, block):
        h = lambda y: 2.0 * np.asarray(y, dtype=float) + 1.0
        pairs = list(combinations(map(float, np.linspace(0.0, 1.0, 12)), 2))
        got = _assert_same(h, pairs, 0.5, 0.5, 24)
        assert len(got) == len(pairs)
        scan = collision_scan(h, (0.0, 1.0), 0.5, 0.5, 24)
        assert scan.outcome is ScanOutcome.COLLISION
        assert _scan_bits(scan) == _reference_scan(h, (0.0, 1.0), 0.5, 0.5, 24)

    @pytest.mark.parametrize("g", [logarithm(), logit(), negated_log()], ids=lambda g: g.name)
    def test_samples_at_infinite_generator_ends(self, g, block):
        h = composite(identity(), g).fn
        pairs = list(combinations(map(float, np.linspace(0.0, 1.0, 9)), 2))
        with np.errstate(all="ignore"):
            assert not np.all(np.isfinite(h(np.array([0.0, 1.0]))))
        for v1, v2 in ((0.5, 0.5), (0.3, 0.6), (0.7, 0.2)):
            _assert_same(h, pairs, v1, v2, 16)
            assert _scan_bits(collision_scan(h, (0.0, 1.0), v1, v2, 20)) == \
                _reference_scan(h, (0.0, 1.0), v1, v2, 20)

    def test_sign_change_through_a_grazing_sample(self, block):
        # G(x) = x (x - 1/2) / 4 on the pair (0, 1): the sample x = 1/2 is an
        # exact zero between a negative and a positive sample
        gs, x0 = in_pair_zero(_square, 0.0, 1.0, 0.5, 0.125, 4)
        assert x0 is None and gs[1] == 0.0 and gs[0] < 0.0 < gs[2]
        pairs = [(0.0, 1.0), (0.0, 2.0), (0.25, 1.0), (-0.5, 1.0), (0.0, 0.5)]
        _assert_same(_square, pairs, 0.5, 0.125, 4)
        assert _scan_bits(collision_scan(_square, (0.0, 1.0), 0.5, 0.125, 16)) == \
            _reference_scan(_square, (0.0, 1.0), 0.5, 0.125, 16)

    def test_flip_between_the_last_two_samples(self, block):
        gs, x0 = in_pair_zero(_square, -0.1765, 1.0, 0.5, 0.125, 8)
        assert x0 is not None and np.all(gs[:-1] < 0.0) and gs[-1] > 0.0
        pairs = [(0.5, 1.0), (-0.1765, 1.0), (0.0, 0.75), (-0.1765, 1.0)]
        got = _assert_same(_square, pairs, 0.5, 0.125, 8)
        assert (-0.1765).hex() in {c[1] for c in got}

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_cross_pair_chase_when_every_pair_keeps_one_sign(self, sign, block):
        h = lambda y: sign * _sqrt(y)
        v1, v2, n_x = 0.48, 0.5, 16
        # a narrow pair whose first sample only grazes zero leads the list:
        # the chase starts or ends on it because its last sample has a sign
        narrow = (1.0, 1.0 + 2e-10)
        gs, _ = in_pair_zero(h, *narrow, v1, v2, n_x)
        assert abs(gs[0]) < 1e-12 < abs(gs[-1])
        pairs = [narrow]
        for t1, t2 in combinations(map(float, np.linspace(1.0, 2.0, 16)), 2):
            gs, x0 = in_pair_zero(h, t1, t2, v1, v2, n_x)
            if x0 is None and not (np.any(gs > 1e-12) and np.any(gs < -1e-12)):
                pairs.append((t1, t2))
        got = _assert_same(h, pairs, v1, v2, n_x)
        assert len(got) == 1
        x0, t1, t2 = map(float.fromhex, got[0])
        assert x0 == t2 - t1

    def test_first_of_two_flips(self, block):
        cube = lambda y: np.asarray(y, dtype=float) ** 3
        gs, _ = in_pair_zero(cube, -1.0, 0.5, 0.1, 0.4, 16)
        pos, neg = gs > 1e-12, gs < -1e-12
        assert np.count_nonzero(pos[:-1] & neg[1:] | neg[:-1] & pos[1:]) == 2
        pairs = [(-1.0, 0.5), (-1.0, 0.75), (-0.75, 0.5)]
        assert len(_assert_same(cube, pairs, 0.1, 0.4, 16)) == 3

    def test_row_with_a_flip_and_a_hole_shows_no_zero(self, block):
        # the flip of test_flip_between_the_last_two_samples, with h
        # undefined at the first sample of the lower end
        t1, t2, v1, v2, n_x = -0.1765, 1.0, 0.5, 0.125, 8
        hole = t1 + v1 * np.linspace(0.0, t2 - t1, n_x + 1)[1]
        h = lambda y: np.where(np.asarray(y) == hole, np.nan, _square(y))
        assert _assert_same(h, [(t1, t2), (t1, t2)], v1, v2, n_x) == []
        assert len(_assert_same(_square, [(t1, t2)], v1, v2, n_x)) == 1

    def test_scalar_only_h_takes_the_per_element_fallback(self, block):
        pairs = reference_witness_pairs(np.linspace(1.0, 2.0, 10))
        for v1, v2 in ((0.45, 0.5), (0.48, 0.5), (0.5, 0.5)):
            _assert_same(_scalar_sqrt, pairs, v1, v2, 12)
            assert _scan_bits(collision_scan(_scalar_sqrt, (1.0, 2.0), v1, v2, 16)) == \
                _reference_scan(_scalar_sqrt, (1.0, 2.0), v1, v2, 16)

    def test_zero_width_pair_leaves_its_neighbours_alone(self, block):
        pairs = [(0.2, 0.9), (0.5, 0.5), (0.1, 0.7), (0.3, 0.4)]
        got = _assert_same(_sqrt, pairs, 0.45, 0.5, 10)
        assert got[0] == _hex((0.0, 0.5, 0.5))

    def test_deformations_are_linspace_row_by_row(self):
        rng = np.random.default_rng(5)
        t1 = rng.uniform(-3.0, 3.0, 50)
        t2 = t1 + rng.uniform(0.0, 2.0, 50)
        t2[7] = t1[7]
        xs = generators._GapBlock(_square, t1, t2, 0.4, 0.6, 48).xs
        for row, lo, hi in zip(xs, t1, t2):
            assert row.tobytes() == np.linspace(0.0, hi - lo, 49)[1:].tobytes()

    def test_no_pairs_no_candidates(self):
        assert list(collision_candidates(_sqrt, np.array([]), np.array([]), 0.4, 0.5, 8)) == []


class TestMemory:
    def test_scan_memory_is_bounded_by_blocks(self):
        # a CLEAR scan visits all C(200, 2) = 19,900 pairs; one pass over
        # all of them would hold 19,900 * 64 samples, 10 MB per array
        tracemalloc.start()
        try:
            result = collision_scan(_square, (0.0, 1.0), 0.5, 0.5, resolution=200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.outcome is ScanOutcome.CLEAR
        assert peak < 2_000_000
