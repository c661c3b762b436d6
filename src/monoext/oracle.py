"""Brute-force ground truth for the discrete extremal problem.

Enumerates every monotone bijection (one per linear extension) and takes
the min/max of the query sum directly.  Shares only the poset layer with
the solver, so agreement between the two is a meaningful check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    EmptyQuery,
    NotAdjacentValues,
    NotIncomparable,
    ValidationError,
)
from .poset import DEFAULT_CAP, Poset, QuerySet, _walk_poset
from .values import BoundResult, MonotoneBijection, ValueScale


def brute_min_max(
    poset: Poset, scale: ValueScale, query: QuerySet, cap: int = DEFAULT_CAP
):
    """(min BoundResult, max BoundResult, number of extensions).

    Scale values are put over a common denominator so the inner loop is
    pure integer arithmetic; results are exact.  Witnesses are the first
    extensions (in lexicographic enumeration order) attaining each optimum.
    """
    if len(query) == 0:
        raise EmptyQuery("query set is empty")
    if len(scale) != poset.n:
        raise ValidationError(
            f"scale has {len(scale)} values for a poset of {poset.n} elements"
        )
    den = 1
    for v in scale.values:
        den = lcm(den, v.denominator)
    ints = [int(v * den) for v in scale.values]
    qmask = 0
    for i in query.indices:
        qmask |= 1 << i

    # The walk keeps the running query sum per depth; an extension is
    # copied only when it is strictly better, so each witness is the first
    # extension attaining its optimum.
    chosen = [0] * poset.n
    walk = _walk_poset(poset, chosen, cap, qmask, ints)
    min_s = max_s = next(walk)
    min_ext = max_ext = tuple(chosen)
    count = 1
    for s in walk:
        count += 1
        if s < min_s:
            min_s, min_ext = s, tuple(chosen)
        elif s > max_s:
            max_s, max_ext = s, tuple(chosen)

    def result(int_sum, ext):
        ranks = [0] * poset.n
        for pos, e in enumerate(ext):
            ranks[e] = pos + 1
        fn = MonotoneBijection(poset, scale, ranks)
        perm = tuple(
            sorted(range(len(query)), key=lambda p: ranks[query.indices[p]])
        )
        per_node = tuple(fn.value(query.labels[p]) for p in perm)
        return BoundResult(Fraction(int_sum, den), perm, fn, per_node)

    return result(min_s, min_ext), result(max_s, max_ext), count


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    pair: tuple | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_monotone_bijection(poset: Poset, scale: ValueScale, f) -> CheckResult:
    """Validate membership in the class of monotone bijections.

    ``f`` may be a :class:`MonotoneBijection` or a raw mapping
    label -> rank.  On failure the first violating cover pair (in stored
    cover order) is reported.
    """
    if isinstance(f, MonotoneBijection):
        ranks = f.ranks
    else:
        try:
            ranks = [int(f[lab]) for lab in poset.labels]
        except (KeyError, TypeError):
            return CheckResult(False, None, "rank map does not cover the ground set")
    if len(scale) != poset.n or sorted(ranks) != list(range(1, poset.n + 1)):
        return CheckResult(False, None, "not a bijection onto the scale")
    for i, j in poset.covers:
        if ranks[i] > ranks[j]:
            pair = (poset.labels[i], poset.labels[j])
            return CheckResult(False, pair, "order violated")
    return CheckResult(True)


def swap_adjacent(f: MonotoneBijection, alpha, beta) -> MonotoneBijection:
    """Exchange the values of two incomparable elements holding consecutive
    scale values.  The result is again a monotone bijection.
    """
    poset = f.poset
    ia, ib = poset.index(alpha), poset.index(beta)
    if poset.comparable_idx(ia, ib):
        raise NotIncomparable(f"{alpha!r} and {beta!r} are comparable")
    ra, rb = f.ranks[ia], f.ranks[ib]
    if abs(ra - rb) != 1:
        raise NotAdjacentValues(
            f"values of {alpha!r} and {beta!r} are not adjacent in the scale"
        )
    ranks = list(f.ranks)
    ranks[ia], ranks[ib] = rb, ra
    return MonotoneBijection(poset, f.scale, ranks)
