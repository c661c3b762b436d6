"""Exact extremal values of query sums over monotone bijections.

Given a poset, a strictly increasing value scale of the same size, and a
query set B, the minimum and maximum of ``sum(f(b) for b in B)`` over all
monotone bijections f are computed from a closed-form conditional value
per admissible ordering of B, optimized by dynamic programming over
the order ideals of the query.  The search adds and compares integers:
the scale values it charges are first brought to their common
denominator, so every result is exact.  It keeps two layers of cost
values over that denominator, plus one choice per ideal.  Every maximum
runs through the same code as the minimum, reading the up-sets from the
top of the order (:func:`_orientation`); no reversed instance is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_

import numpy as np

from .errors import (
    CapExceeded,
    EmptyQuery,
    InvalidPermutation,
    NotAChain,
    PreconditionViolated,
    ValidationError,
)
from .func1d import MonotoneMap1D
from .grid import _GridSets
from .poset import DEFAULT_CAP, Poset, QuerySet, _query_covers
from .poset import _cover_succs, _first_extension
from .values import BoundResult, MonotoneBijection, ValueScale, _integer_ratios


def _check_scale(poset: Poset, scale: ValueScale) -> None:
    if len(scale) != poset.n:
        raise ValidationError(
            f"scale has {len(scale)} values for a poset of {poset.n} elements"
        )


def _check_instance(poset: Poset, scale: ValueScale, query: QuerySet) -> None:
    """The scale fits the poset and the query is not empty."""
    _check_scale(poset, scale)
    if len(query) == 0:
        raise EmptyQuery("query set is empty")


def _first_holder(sets, reading, whole: bool):
    """Per element e, the position in ``reading`` of the first element whose
    set holds e, or ``len(reading)``: a grid's array, a built poset's list
    from the bits of each newly covered block, or unless ``whole`` its dict
    over the elements read only."""
    if isinstance(sets, _GridSets):
        return sets.first_holder(reading)
    key = [len(reading)] * len(sets) if whole else {}
    mask = 0
    for k, i in enumerate(reading):
        new = sets[i] & ~mask
        mask |= new
        if not whole:
            # Only an element that an earlier set holds is searched for.
            key[i] = k if new >> i & 1 else next(
                q for q, j in enumerate(reading) if sets[j] >> i & 1)
            continue
        while new:
            low = new & -new
            key[low.bit_length() - 1] = k
            new ^= low
    return key


def _validate_ordering(poset: Poset, scale: ValueScale, query: QuerySet, perm,
                       up: bool = False, whole: bool = False):
    """The key :func:`_first_holder` of the down-sets along ``perm``, or
    with ``up`` of the up-sets along it from the top, once the scale and
    permutation are checked.  The ordering is admissible iff each query
    element's key is its own position; if not, the error names the first
    element below an earlier one, and the first earlier one above it."""
    _check_scale(poset, scale)
    n = len(query)
    if tuple(sorted(perm)) != tuple(range(n)):
        raise InvalidPermutation(f"{perm!r} is not a permutation of 0..{n - 1}")
    reading = [query.indices[p] for p in (perm[::-1] if up else perm)]
    key = _first_holder(poset.up if up else poset.down, reading, whole)
    for late, i in enumerate(reading):
        if key[i] != late:
            break
    else:
        return key
    if up:  # inadmissible either way; the message is worded from the bottom
        _validate_ordering(poset, scale, query, perm)
    below, above = (query.labels[perm[k]] for k in (late, key[reading[late]]))
    raise InvalidPermutation(f"{below!r} lies below {above!r} but is ordered after it")


def _first_pair(query: QuerySet, offends):
    """The labels of the first pair of query elements, in query order, whose
    indices ``offends``; the callers know that one does."""
    idxs, labels = query.indices, query.labels
    return next((labels[a], labels[b]) for a, b in combinations(range(len(idxs)), 2)
                if offends(idxs[a], idxs[b]))


def _orientation(poset: Poset, mode: str):
    """The one place where the minimum and the maximum part ways:
    ``(sets, rank, sign)``.  The minimum reads an ordering from the bottom
    with the down-sets, and a running union of k elements ranks k.  The
    maximum, the negated minimum of the order-reversed instance, reads it
    from the top with the up-sets, and k elements rank N + 1 - k.  ``sign``
    is +1 or -1: ``perm[::sign]`` is the reading order, and the search
    minimizes ``sign`` times the sum.
    """
    if mode == "min":
        return poset.down, lambda k: k, 1
    if mode == "max":
        top = poset.n + 1
        return poset.up, lambda k: top - k, -1
    raise ValidationError(f"mode must be 'min' or 'max', got {mode!r}")


def _oriented_sum(poset, scale, idxs, perm, mode) -> Fraction:
    """The conditional optimum of the ordering ``perm`` (positions into
    ``idxs``, lowest first): along the ordering in reading order, the value
    ranked by the running union of the oriented sets."""
    sets, rank, sign = _orientation(poset, mode)
    total = Fraction(0)
    mask = 0
    for p in perm[::sign]:
        mask |= sets[idxs[p]]
        total += scale.value(rank(mask.bit_count()))
    return total


def conditional_min(
    poset: Poset, scale: ValueScale, query: QuerySet, perm
) -> Fraction:
    """Minimum of the query sum over bijections realizing ordering ``perm``.

    Equals the sum over positions k of the scale value whose rank is the
    size of the union of down-sets of the first k ordered query elements.
    """
    _validate_ordering(poset, scale, query, perm)
    return _oriented_sum(poset, scale, query.indices, perm, "min")


def conditional_max(
    poset: Poset, scale: ValueScale, query: QuerySet, perm
) -> Fraction:
    """Maximum of the query sum over bijections realizing ordering ``perm``.

    The same sum read from the top of the ordering: the k-th element from
    the top contributes the value of rank N + 1 - |union of the up-sets of
    the last k ordered elements|.
    """
    _validate_ordering(poset, scale, query, perm)
    return _oriented_sum(poset, scale, query.indices, perm, "max")


def solve_min(
    poset: Poset, scale: ValueScale, query: QuerySet, cap: int = DEFAULT_CAP
) -> BoundResult:
    """Global minimum of the query sum over all monotone bijections.

    Dynamic programming over the order ideals (down-closed subsets) of the
    subposet induced on the query (:func:`_search`), with the value of
    rank k charged for a prefix whose down-sets cover k elements.  The
    reported ordering is the lexicographically least optimal one, and
    ``cap`` bounds the number of ideals (DP states).
    """
    return _solve(poset, scale, query, cap, "min")


def solve_max(
    poset: Poset, scale: ValueScale, query: QuerySet, cap: int = DEFAULT_CAP
) -> BoundResult:
    """Global maximum of the query sum over all monotone bijections.

    The search of :func:`solve_min` over the up-sets of the query read from
    the top: a suffix whose up-sets cover k elements is charged minus the
    value of rank N + 1 - k.  The ordering found runs from the top, so it
    is reported reversed; of the optimal orderings it is the one whose
    reversal is lexicographically least.
    """
    return _solve(poset, scale, query, cap, "max")


def _solve(poset, scale, query, cap, mode) -> BoundResult:
    _check_instance(poset, scale, query)
    sets, rank, sign = _orientation(poset, mode)
    xi = scale.values
    best, perm = _search(sets, query.indices, lambda k: xi[rank(k) - 1], sign, cap)
    perm = perm[::sign]
    witness = build_witness(poset, scale, query, perm, mode)
    per_node = tuple(witness.value(query.labels[p]) for p in perm)
    return BoundResult(best, perm, witness, per_node)


def _search(sets, idxs, value, sign: int, cap: int):
    """``sign`` times the least sum of ``sign * value(k)`` over the prefixes
    of an admissible ordering of the query entries ``idxs``, k being the
    size of the union of the prefix's sets, and the lexicographically least
    ordering (in canonical index) attaining it, as positions into ``idxs``.
    That is the least sum for ``sign`` +1 and the greatest for -1.
    ``sets`` are the down-sets of the order searched: the poset's
    down-sets, or its up-sets for the reversed order.

    The cost still to come after placing a set of query elements depends
    only on that set, so each order ideal of the induced subposet is solved
    once.  A forward pass enumerates the ideals layer by layer with the
    size of their union.  The values at the sizes reached are brought to
    their common denominator, so the backward pass adds and compares
    integers; it keeps the cost still to come for two layers only, plus
    one choice per ideal: the lowest successor bit attaining the minimum.
    Following the choices from the empty ideal rebuilds the ordering.
    Raises :class:`CapExceeded` when there are more than ``cap`` ideals.
    """
    n = len(idxs)
    # Bit r of an ideal stands for query position order[r], so the lowest
    # bit of a mask is the element first in canonical order.
    order = sorted(range(n), key=idxs.__getitem__)
    ordered = [idxs[p] for p in order]
    lower, upper = _query_covers(sets, ordered)
    downs = [sets[i] for i in ordered]
    minimal = {0: sum(1 << r for r in range(n) if not lower[r])}

    # Forward: per layer, ideal -> size of the union of its down-sets; the
    # unions themselves are kept for one layer only.  Each ideal's minimal
    # unplaced elements are updated along the covers: placing r can make
    # minimal only an element covering r.
    sizes = [{0: 0}]
    states = 1
    layer = {0: 0}
    for _ in range(n):
        nxt = {}
        for used, mask in layer.items():
            a = minimal[used]
            while a:
                low = a & -a
                a ^= low
                t = used | low
                if t not in nxt:
                    r = low.bit_length() - 1
                    nxt[t] = mask | downs[r]
                    if states + len(nxt) > cap:
                        raise CapExceeded(cap)
                    m = minimal[used] ^ low
                    for c in upper[r]:
                        if not lower[c] & ~t:
                            m |= 1 << c
                    minimal[t] = m
        states += len(nxt)
        sizes.append({t: mask.bit_count() for t, mask in nxt.items()})
        layer = nxt

    # Integer weights over the common denominator of the values at the
    # sizes reached; the empty ideal is charged nothing.
    reached = set().union(*(level.values() for level in sizes[1:]))
    nums, den = _integer_ratios([value(k) for k in reached])
    weight = {k: sign * num for k, num in zip(reached, nums)}
    weight[0] = 0

    # Backward: ``ahead`` holds, for the layer after the current one, the
    # cost of entering each ideal plus the optimal cost of every later
    # step.  Successors are scanned lowest bit first and replaced only on
    # a strict improvement.
    choice = {}
    ahead = {t: weight[k] for t, k in sizes[n].items()}
    for level in reversed(sizes[:n]):
        here = {}
        for used, k in level.items():
            a = minimal[used]
            pick = a & -a
            best = ahead[used | pick]
            a ^= pick
            while a:
                low = a & -a
                a ^= low
                cost = ahead[used | low]
                if cost < best:
                    best = cost
                    pick = low
            here[used] = weight[k] + best
            choice[used] = pick
        ahead = here

    perm = []
    used = 0
    for _ in range(n):
        pick = choice[used]
        perm.append(order[pick.bit_length() - 1])
        used |= pick
    return Fraction(sign * ahead[0], den), tuple(perm)


def build_witness(
    poset: Poset, scale: ValueScale, query: QuerySet, perm, mode: str = "min"
) -> MonotoneBijection:
    """A monotone bijection attaining the conditional optimum for ``perm``.

    The ordering is read as :func:`_orientation` reads it, and ranks are
    handed out block by block: the k-th block is the set of elements newly
    covered by the running union of sets once the k-th query element is
    read, filled along the lexicographically first linear extension of the
    order read.  Min mode reads the down-sets from the bottom and hands out
    ranks 1, 2, ...; max mode reads the up-sets from the top, walks the
    cover pairs flipped, and hands out ranks N, N - 1, ....  This is the
    least linear extension under the key (first block containing the
    element, canonical index).

    The running unions are down-closed in the order read, so the key never
    decreases along it.  The ordering check computes it, and:
    - on a grid, the key is an array and the extension a sort by it,
      :meth:`~monoext.grid._GridSets.extension`;
    - on a built poset, the key is found by walking each block's bits;
      if its cover pairs (i, j) all have i < j, min mode reads along them,
      and (key, index) is itself an extension, so it is the stable sort of
      the key; otherwise Kahn's algorithm with a heap finds it,
      :func:`_first_extension`.
    """
    key = _validate_ordering(poset, scale, query, perm, mode == "max", True)
    sets, _, sign = _orientation(poset, mode)
    n = poset.n
    if isinstance(key, np.ndarray):
        ranks = np.empty(n, dtype=np.int64)
        ranks[sets.extension(key)] = np.arange(1, n + 1)[::sign]
        ranks = ranks.tolist()  # the array is freed before the check
        return MonotoneBijection(poset, scale, ranks)
    if sign > 0 and poset.rising:
        order = sorted(range(n), key=key.__getitem__)
    else:
        order = _first_extension(_cover_succs(poset, sign), key)
    ranks = [0] * n
    for e, r in zip(order, range(1, n + 1)[::sign]):
        ranks[e] = r
    return MonotoneBijection(poset, scale, ranks)


def chain_bounds(poset: Poset, scale: ValueScale, query: QuerySet):
    """(min, max) closed forms when the query set is a chain.

    A chain has one admissible ordering, and the running union along it is
    the current element's down-set (up-set, read from the top): min sums
    the values ranked by each element's down-set size, max the values
    ranked N + 1 - |up-set|.  The query may be given in any order; it is
    sorted along the chain once.  Sorted by down-set size, the query is a
    chain exactly when each element lies below the next: k - 1 checks.
    Only when one fails are the pairs scanned, to name the first
    incomparable pair in query order.
    """
    _check_instance(poset, scale, query)
    idxs = query.indices
    order = sorted(range(len(idxs)), key=lambda p: poset.down[idxs[p]].bit_count())
    if not all(poset.leq_idx(idxs[a], idxs[b]) for a, b in zip(order, order[1:])):
        a, b = _first_pair(query, lambda i, j: not poset.comparable_idx(i, j))
        raise NotAChain(f"{a!r} and {b!r} are incomparable")
    return (
        _oriented_sum(poset, scale, idxs, order, "min"),
        _oriented_sum(poset, scale, idxs, order, "max"),
    )


def disjoint_bound(
    poset: Poset, scale: ValueScale, query: QuerySet, mode: str = "min"
) -> Fraction:
    """Closed form when the query elements' down-sets (up-sets) are disjoint.

    For ``mode="min"`` the down-sets must be pairwise disjoint, and
    ``mode="max"`` is the dual with up-sets.  The running union's size is
    then the running sum of the set sizes, so reading the sets smallest
    first, the k-th term is the value ranked by the k-th prefix sum (for
    the maximum, N + 1 minus it).  The sets are disjoint exactly when
    their union is as large as their sizes together, which takes one
    pass.  Only when it is smaller are the pairs scanned, to name the first
    intersecting pair in query order.
    """
    _check_instance(poset, scale, query)
    sets, _, sign = _orientation(poset, mode)
    idxs = query.indices
    sizes = [sets[i].bit_count() for i in idxs]
    if reduce(or_, (sets[i] for i in idxs)).bit_count() != sum(sizes):
        a, b = _first_pair(query, lambda i, j: sets[i] & sets[j])
        kind = "down-sets" if mode == "min" else "up-sets"
        raise PreconditionViolated(f"{kind} of {a!r} and {b!r} intersect", pair=(a, b))
    # perm[::sign] is the reading order: smallest set first.
    perm = sorted(range(len(idxs)), key=lambda p: sign * sizes[p])
    return _oriented_sum(poset, scale, idxs, perm, mode)


def scale_from_m(m: MonotoneMap1D, n: int) -> ValueScale:
    """The scale of preimages m^{-1}(i / n^2), i = 1..n^2.

    Identity maps produce the exact rationals i / n^2, held as the
    numerators ``range(1, n^2 + 1)`` over n^2.  Other kinds go through one
    :meth:`~MonotoneMap1D.inverse_many` call on the correctly rounded
    floats i / n^2, whose results the scale then holds exactly, as
    integers over their common power-of-two denominator.  Strict increase
    is re-checked on the integers.
    """
    if n < 1:
        raise ValidationError("n must be at least 1")
    if not m.is_increasing_bijection:
        raise ValidationError("map must be an increasing bijection")
    n2 = n * n
    if m.kind == "identity":
        return ValueScale.over(range(1, n2 + 1), n2)
    inverse = m.inverse_many(np.arange(1, n2 + 1) / n2).tolist()
    return ValueScale.over(*_integer_ratios(inverse))
