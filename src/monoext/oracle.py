"""Brute-force ground truth for the discrete extremal problem.

Searches every monotone bijection (one per linear extension) exhaustively
and takes the min/max of the query sum directly from the definition.
Shares only the poset layer and the scale's integer form
(``values._integer_ratios``) with the solver, so agreement between the two
is a meaningful check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CapExceeded,
    EmptyQuery,
    NotAdjacentValues,
    NotIncomparable,
    ValidationError,
)
from .poset import DEFAULT_CAP, Poset, QuerySet, _cover_succs
from .values import BoundResult, MonotoneBijection, ValueScale
from .values import _integer_ratios, _is_permutation, _rank


def brute_min_max(
    poset: Poset, scale: ValueScale, query: QuerySet, cap: int = DEFAULT_CAP
):
    """(min BoundResult, max BoundResult, number of extensions).

    An exhaustive search over the linear extensions of the whole ground
    set, memoized over its order ideals (down-closed subsets).  The element
    placed at position d receives scale value d + 1, so the best query sum
    still to come depends only on the set already placed.  A forward pass
    builds the ideals layer by layer with the number of prefixes reaching
    each; a backward pass takes the least and greatest sum to come, in
    integers over a common denominator.  Witnesses are rebuilt by placing,
    at every step, the lowest-index minimal element that keeps the
    optimum: the first extension in lexicographic order attaining it.
    Raises :class:`CapExceeded` when there are more than ``cap``
    extensions, before any layer holds more than ``cap`` ideals.
    """
    if len(query) == 0:
        raise EmptyQuery("query set is empty")
    if len(scale) != poset.n:
        raise ValidationError(
            f"scale has {len(scale)} values for a poset of {poset.n} elements"
        )
    if query.poset is not poset and query.poset != poset:
        raise ValidationError("query is built on another poset")
    ints, den = _integer_ratios(scale.values)
    qmask = 0
    for i in query.indices:
        qmask |= 1 << i
    n = poset.n
    succs = _cover_succs(n, poset.covers)
    ends = {j for _, j in poset.covers}
    # Each strict down-set is computed the first time an element is tested,
    # so a search that hits the cap early reads few of them.
    below = [None] * n

    # Forward: per layer, ideal -> [prefixes reaching it, its minimal
    # unplaced elements], starting from the elements no cover pair ends
    # at.  Every prefix extends to a distinct extension, so a layer's
    # prefix count is checked against the cap before it is built.
    layers = [{0: [1, sum(1 << j for j in range(n) if j not in ends)]}]
    for _ in range(n):
        layer = layers[-1]
        if sum(c * a.bit_count() for c, a in layer.values()) > cap:
            raise CapExceeded(cap)
        nxt = {}
        for used, (c, avail) in layer.items():
            a = avail
            while a:
                low = a & -a
                a ^= low
                t = used | low
                entry = nxt.get(t)
                if entry is None:
                    na = avail ^ low
                    for j in succs[low.bit_length() - 1]:
                        strict = below[j]
                        if strict is None:
                            strict = below[j] = poset.down[j] ^ 1 << j
                        if not strict & ~t:
                            na |= 1 << j
                    nxt[t] = [c, na]
                else:
                    entry[0] += c
        layers.append(nxt)
    ((count, _),) = layers[-1].values()

    # Backward: the least and greatest query sum still to come per ideal.
    full = (1 << n) - 1
    lo = {full: 0}
    hi = {full: 0}
    for d in range(n - 1, -1, -1):
        w = ints[d]
        for used, (_, a) in layers[d].items():
            lo_to = []
            hi_to = []
            while a:
                low = a & -a
                a ^= low
                g = w if qmask & low else 0
                lo_to.append(g + lo[used | low])
                hi_to.append(g + hi[used | low])
            lo[used] = min(lo_to)
            hi[used] = max(hi_to)

    def result(best):
        ranks = [0] * n
        used = 0
        for d in range(n):
            a = layers[d][used][1]
            while True:
                low = a & -a
                a ^= low
                t = used | low
                if (ints[d] if qmask & low else 0) + best[t] == best[used]:
                    break
            ranks[low.bit_length() - 1] = d + 1
            used = t
        fn = MonotoneBijection(poset, scale, ranks)
        perm = tuple(
            sorted(range(len(query)), key=lambda p: ranks[query.indices[p]])
        )
        per_node = tuple(fn.value(query.labels[p]) for p in perm)
        return BoundResult(Fraction(best[0], den), perm, fn, per_node)

    return result(lo), result(hi), count


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
            ranks = [_rank(f[lab]) for lab in poset.labels]
        except (KeyError, TypeError):
            return CheckResult(False, None, "rank map does not cover the ground set")
        except ValidationError as e:
            return CheckResult(False, None, str(e))
        if len(f) != poset.n:
            return CheckResult(False, None, "rank map has labels outside the ground set")
    if len(scale) != poset.n or not _is_permutation(ranks, poset.n):
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
