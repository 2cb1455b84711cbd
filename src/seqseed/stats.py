"""Paired nonparametric comparison: Wilcoxon signed-rank and Hodges-Lehmann."""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import List, Sequence, Tuple

EXACT_LIMIT = 25


def hodges_lehmann(differences: Sequence[float]) -> float:
    """Median of all Walsh averages (d_i + d_j) / 2 for i <= j.

    Exact selection over the rows of the sorted differences (Johnson &
    Mizoguchi 1978; Monahan 1984), in O(C) memory: row i holds the averages
    (d[i] + d[j]) / 2.0 for j >= i, non-decreasing in j. The middle averages
    are those same floats, and an even count averages the two middle ones as
    `statistics.median` does, so the result equals the median of the full
    list of C(C+1)/2 averages. Only the sign of a zero result can differ,
    and only when some average is -0.0: the list then picks a sign by input
    order.
    """
    d = list(differences)
    if not d:
        raise ValueError("need at least one difference")
    if not all(map(math.isfinite, d)):
        raise ValueError("differences must be finite (no NaN or inf)")
    d.sort()
    n = len(d)
    total = n * (n + 1) // 2
    k = (total - 1) // 2
    a, upto = _select_walsh(d, k)
    if total % 2:
        return a
    if sum(upto) - n * (n - 1) // 2 > k + 1:
        b = a  # the next average ties with a
    else:
        # the smallest average above a: the first column past each row's cut
        b = min((d[i] + d[j]) / 2.0 for i, j in enumerate(upto) if j < n)
    return (a + b) / 2


def _select_walsh(d: List[float], k: int) -> Tuple[float, List[int]]:
    """The k-th smallest (0-based) Walsh average of sorted d, and per row the
    first column whose average exceeds it.

    Row i keeps a candidate band [lo[i], hi[i]) of columns. The pivot is the
    weighted median of the bands' middle averages, so each round drops at
    least a quarter of the candidates, and the pivot itself is always one.
    """
    n = len(d)
    offset = n * (n - 1) // 2  # sum of row starts i
    lo = list(range(n))
    hi = [n] * n
    while True:
        mids = sorted(((d[i] + d[(l + h) // 2]) / 2.0, h - l)
                      for i, (l, h) in enumerate(zip(lo, hi)) if h > l)
        half = sum(w for _, w in mids) / 2
        seen = 0
        for pivot, w in mids:
            seen += w
            if seen >= half:
                break
        below, upto = _cut(d, pivot)
        if sum(below) - offset > k:
            hi = below
        elif sum(upto) - offset <= k:
            lo = upto
        else:
            return pivot, upto


def _cut(d: List[float], pivot: float) -> Tuple[List[int], List[int]]:
    """Per row i, the first column j >= i whose average is >= pivot, and the
    first whose average is > pivot.

    d is sorted, so both columns only move left as i grows: one sweep each.
    The test computes (d[i] + d[j]) / 2.0 as the Walsh average is computed;
    IEEE addition and halving are monotone, so the counts are exact.
    """
    n = len(d)
    below = list(range(n))
    upto = list(range(n))
    a = b = n
    for i, x in enumerate(d):
        while a > i and (x + d[a - 1]) / 2.0 >= pivot:
            a -= 1
        while b > i and (x + d[b - 1]) / 2.0 > pivot:
            b -= 1
        if b <= i:
            break  # this row and every later one hold no average <= pivot
        if a > i:
            below[i] = a
        upto[i] = b
    return below, upto


@dataclass
class WilcoxonResult:
    w: float
    p: float
    n_effective: int
    method: str  # "exact", "normal", or "degenerate"


def _midranks(values: List[float]) -> List[float]:
    """Midranks of |values|: tied magnitudes share one, their mean rank."""
    order = sorted(range(len(values)), key=lambda i: abs(values[i]))
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and abs(values[order[j + 1]]) == abs(values[order[i]]):
            j += 1
        mid = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = mid
        i = j + 1
    return ranks


def _exact_p(rank2: List[int], w2: int) -> float:
    """Two-sided exact p by DP over the 2^n equiprobable sign patterns.

    rank2 holds doubled ranks (midranks become integers); w2 = 2W.
    """
    total_sum = sum(rank2)
    counts = [0] * (total_sum + 1)
    counts[0] = 1
    for r in rank2:
        for w in range(total_sum - r, -1, -1):
            if counts[w]:
                counts[w + r] += counts[w]
    total = 1 << len(rank2)
    le = sum(counts[: w2 + 1])
    ge = sum(counts[w2:])
    return min(1.0, 2.0 * min(le, ge) / total)


def wilcoxon_signed_rank(differences: Sequence[float]) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired differences.

    Zero differences are dropped. Exact enumeration (via rank-sum DP, which
    reproduces the 2^n sign-pattern distribution) when the effective sample
    is small; tie-corrected normal approximation with continuity correction
    otherwise.
    """
    if len(differences) == 0:
        raise ValueError("need at least one difference")
    nz = [float(d) for d in differences if d != 0]
    if not nz:
        return WilcoxonResult(0.0, 1.0, 0, "degenerate")
    n = len(nz)
    ranks = _midranks(nz)
    w = sum(r for r, d in zip(ranks, nz) if d > 0)
    if n <= EXACT_LIMIT:
        rank2 = [round(2 * r) for r in ranks]
        p = _exact_p(rank2, round(2 * w))
        return WilcoxonResult(w, p, n, "exact")
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # tie correction over groups of equal |d|, which share one midrank; at
    # least n(n+1)^2/16 > 0 remains, when every |d| ties
    var -= sum(t ** 3 - t for t in Counter(ranks).values()) / 48.0
    num = max(abs(w - mean) - 0.5, 0.0)
    z = num / math.sqrt(var)
    p = math.erfc(z / math.sqrt(2.0))
    # z >= 0, so p <= 1; keep it strictly positive even when erfc underflows
    return WilcoxonResult(w, max(p, 1e-300), n, "normal")
