import itertools
import math
import random
import statistics
import struct
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqseed.stats import hodges_lehmann, wilcoxon_signed_rank


def _walsh_median(d):
    """Oracle: the median of the full list of C(C+1)/2 Walsh averages."""
    walsh = [(d[i] + d[j]) / 2.0 for i in range(len(d)) for j in range(i, len(d))]
    return float(statistics.median(walsh))


def _bits(x):
    return struct.pack("<d", x)


def _negative_zero(x):
    return x == 0 and math.copysign(1.0, x) < 0


# a small pool of values that tie often, mixed with arbitrary finite floats;
# -0.0 is left out, since summarize's x - x differences are +0.0
_TIED = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -3.0, 0.1, -0.1,
                         1 / 3, 7.25])
_DIFFERENCE = st.one_of(_TIED, _TIED, st.integers(-4, 4),
                        st.floats(allow_nan=False, allow_infinity=False)
                        ).filter(lambda x: not _negative_zero(x))


def _tied_differences(n, seed):
    rng = random.Random(seed)
    return [rng.choice([0, 0, 1, -1, 2]) + rng.choice([0.0, 0.25, 0.5])
            for _ in range(n)]


class TestHodgesLehmann:
    def test_singleton(self):
        assert hodges_lehmann([5]) == 5

    def test_symmetric_pair(self):
        assert hodges_lehmann([-1, 1]) == 0

    def test_walsh_enumeration_example(self):
        # Walsh averages of {1, 2, 6}: {1, 1.5, 2, 3.5, 4, 6} -> median 2.75
        assert hodges_lehmann([1, 2, 6]) == pytest.approx(2.75)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hodges_lehmann([])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20),
           st.floats(-50, 50))
    def test_translation_equivariance(self, d, c):
        assert hodges_lehmann([x + c for x in d]) == pytest.approx(
            hodges_lehmann(d) + c, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
    def test_odd(self, d):
        assert hodges_lehmann([-x for x in d]) == pytest.approx(
            -hodges_lehmann(d), abs=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            hodges_lehmann([1.0, bad, -2.0])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_DIFFERENCE, min_size=1, max_size=80))
    def test_bit_identical_to_walsh_list(self, d):
        walsh = [(x + y) / 2.0 for x in d for y in d]
        # a -0.0 average ties +0.0, and the list's median then picks a sign
        # by input order; differences of mean coverages never produce one
        assume(not any(_negative_zero(w) for w in walsh))
        got = hodges_lehmann(d)
        want = _walsh_median(d)
        assert type(got) is float
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_bit_identical_at_summary_scale(self, n):
        # n = 1000 gives an even Walsh count (two middle averages), 1001 odd
        assert (n * (n + 1) // 2) % 2 == (n == 1001)
        d = _tied_differences(n, n)
        assert _bits(hodges_lehmann(d)) == _bits(_walsh_median(d))
        gauss = random.Random(n)
        d = [gauss.gauss(0.3, 1.0) for _ in range(n)]
        assert _bits(hodges_lehmann(d)) == _bits(_walsh_median(d))

    def test_memory_linear_in_count(self):
        # the full list would hold 8 002 000 floats (about 250 MB)
        rng = random.Random(4000)
        d = [rng.gauss(0.3, 1.0) for _ in range(4000)]
        tracemalloc.start()
        try:
            hodges_lehmann(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024


def wilcoxon_brute_force(diffs):
    """Full 2^n sign-pattern enumeration for the two-sided exact p."""
    nz = [d for d in diffs if d != 0]
    n = len(nz)
    ranks = []
    srt = sorted(range(n), key=lambda i: abs(nz[i]))
    r = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(nz[srt[j + 1]]) == abs(nz[srt[i]]):
            j += 1
        for t in range(i, j + 1):
            r[srt[t]] = (i + j) / 2 + 1
        i = j + 1
    ranks = r
    w_obs = sum(rk for rk, d in zip(ranks, nz) if d > 0)
    le = ge = 0
    for signs in itertools.product([0, 1], repeat=n):
        w = sum(rk for rk, s in zip(ranks, signs) if s)
        if w <= w_obs + 1e-12:
            le += 1
        if w >= w_obs - 1e-12:
            ge += 1
    return min(1.0, 2.0 * min(le, ge) / 2 ** n)


class TestWilcoxon:
    def test_perfect_symmetry(self):
        res = wilcoxon_signed_rank([1, -1, 2, -2])
        assert res.p == 1.0
        assert res.w == pytest.approx(5.0)  # half of the total rank sum

    def test_all_positive_n6_exact(self):
        res = wilcoxon_signed_rank([1, 2, 3, 4, 5, 6])
        assert res.method == "exact"
        assert res.p == pytest.approx(1 / 32)

    def test_large_all_positive_extreme_p(self):
        res = wilcoxon_signed_rank(list(range(1, 1001)))
        assert res.p < 2e-16

    def test_zeros_dropped(self):
        res = wilcoxon_signed_rank([0, 0, 1, 2, 3])
        assert res.n_effective == 3

    def test_degenerate_all_zero(self):
        res = wilcoxon_signed_rank([0.0, 0.0])
        assert res.method == "degenerate"
        assert res.w == 0
        assert res.p == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([])

    def test_exact_matches_brute_force(self):
        rng = random.Random(42)
        for n in range(1, 11):
            for _ in range(10):
                d = [rng.choice([-3, -2, -1, 1, 2, 3]) + rng.random() * 0.01
                     for _ in range(n)]
                res = wilcoxon_signed_rank(d)
                assert res.method == "exact"
                assert res.p == pytest.approx(wilcoxon_brute_force(d), abs=1e-12)

    def test_exact_matches_brute_force_with_ties(self):
        rng = random.Random(7)
        for n in range(2, 11):
            for _ in range(10):
                d = [rng.choice([-2, -1, 1, 2]) for _ in range(n)]
                res = wilcoxon_signed_rank(d)
                assert res.p == pytest.approx(wilcoxon_brute_force(d), abs=1e-12)

    def test_exact_vs_normal_agreement_at_boundary(self):
        rng = random.Random(3)
        for _ in range(20):
            d = [rng.gauss(0.3, 1.0) for _ in range(25)]
            d = [x for x in d if x != 0]
            exact = wilcoxon_signed_rank(d)
            # force the normal branch on the same data
            import seqseed.stats as sstats
            old = sstats.EXACT_LIMIT
            sstats.EXACT_LIMIT = 0
            try:
                approx = wilcoxon_signed_rank(d)
            finally:
                sstats.EXACT_LIMIT = old
            assert approx.method == "normal"
            assert abs(exact.p - approx.p) < 0.02

    @pytest.mark.parametrize("magnitudes", [[1.0, 2.5, 3.0], [1.5]],
                             ids=["few-groups", "all-tied"])
    def test_normal_matches_scipy_with_ties(self, magnitudes):
        """Past EXACT_LIMIT the p is scipy's tie-corrected normal
        approximation with continuity correction, also when every |d| ties
        (the smallest variance, n(n+1)^2/16)."""
        from scipy import stats as sps

        rng = random.Random(11)
        for n in (26, 40, 75):
            for bias in (0.2, 0.5, 0.8):
                nz = [rng.choice(magnitudes) *
                      (1 if rng.random() < bias else -1) for _ in range(n)]
                res = wilcoxon_signed_rank([0.0, 0.0] + nz)
                want = sps.wilcoxon(nz, zero_method="wilcox", correction=True,
                                    method="approx").pvalue
                assert (res.method, res.n_effective) == ("normal", len(nz))
                assert res.p == pytest.approx(want, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30),
           st.randoms())
    def test_order_invariance_and_range(self, d, rnd):
        res = wilcoxon_signed_rank(d)
        assert 0 < res.p <= 1
        shuffled = list(d)
        rnd.shuffle(shuffled)
        assert wilcoxon_signed_rank(shuffled).p == pytest.approx(res.p)
