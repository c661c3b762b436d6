"""Exact extremal values of query sums over monotone bijections.

Given a poset, a strictly increasing value scale of the same size, and a
query set B, the minimum and maximum of ``sum(f(b) for b in B)`` over all
monotone bijections f are computed from a closed-form conditional value
per admissible ordering of B, optimized by dynamic programming over
the order ideals of the query.  All arithmetic is exact rational.
"""

from __future__ import annotations

from fractions import Fraction
from re import finditer

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
from .poset import DEFAULT_CAP, Poset, QuerySet, _query_covers
from .poset import _cover_succs, _first_extension
from .values import BoundResult, MonotoneBijection, ValueScale


def _check_scale(poset: Poset, scale: ValueScale) -> None:
    if len(scale) != poset.n:
        raise ValidationError(
            f"scale has {len(scale)} values for a poset of {poset.n} elements"
        )


def _validate_ordering(poset: Poset, query: QuerySet, perm) -> None:
    n = len(query)
    if tuple(sorted(perm)) != tuple(range(n)):
        raise InvalidPermutation(f"{perm!r} is not a permutation of 0..{n - 1}")
    idxs = query.indices
    placed = 0
    for later, p in enumerate(perm):
        i = idxs[p]
        if poset.up[i] & placed:
            earlier = next(q for q in perm[:later] if poset.leq_idx(i, idxs[q]))
            raise InvalidPermutation(
                f"{query.labels[p]!r} lies below "
                f"{query.labels[earlier]!r} but is ordered after it"
            )
        placed |= 1 << i


def conditional_min(
    poset: Poset, scale: ValueScale, query: QuerySet, perm
) -> Fraction:
    """Minimum of the query sum over bijections realizing ordering ``perm``.

    Equals the sum over positions k of the scale value whose rank is the
    size of the union of down-sets of the first k ordered query elements.
    """
    _check_scale(poset, scale)
    _validate_ordering(poset, query, perm)
    return _ordered_min(poset, scale, query, perm)


def _ordered_min(poset: Poset, scale: ValueScale, query: QuerySet, perm):
    idxs = query.indices
    total = Fraction(0)
    mask = 0
    for p in perm:
        mask |= poset.down[idxs[p]]
        total += scale.value(mask.bit_count())
    return total


def conditional_max(
    poset: Poset, scale: ValueScale, query: QuerySet, perm
) -> Fraction:
    """Maximum of the query sum over bijections realizing ordering ``perm``.

    The negated :func:`conditional_min` of the order-reversed instance
    (:func:`reverse_reduce`) under the reversed ordering: position k,
    counting from the top of the ordering, contributes the value of rank
    N - |union of up-sets of the last k ordered elements| + 1.
    """
    _check_scale(poset, scale)
    _validate_ordering(poset, query, perm)
    rposet, rscale, rquery = reverse_reduce(poset, scale, query)
    return -_ordered_min(rposet, rscale, rquery, tuple(reversed(perm)))


def solve_min(
    poset: Poset, scale: ValueScale, query: QuerySet, cap: int = DEFAULT_CAP
) -> BoundResult:
    """Global minimum of the query sum over all monotone bijections.

    Dynamic programming over the order ideals (down-closed subsets) of the
    subposet induced on the query.  The cost still to come after placing a
    set of query elements depends only on that set, through the size of
    the union of their down-sets, so each ideal is solved once.  A forward
    pass enumerates the ideals layer by layer, a backward pass computes
    the exact optimal cost-to-go of each, and the ordering is rebuilt by
    taking, at every step, the first element in canonical order that
    keeps the optimum.  The reported ordering is therefore the
    lexicographically least optimal one.  ``cap`` bounds the number of
    ideals (DP states).
    """
    _check_scale(poset, scale)
    if len(query) == 0:
        raise EmptyQuery("query set is empty")
    xi = scale.values
    idxs = query.indices
    n = len(idxs)
    # Bit r of an ideal stands for query position order[r], so the lowest
    # bit of a mask is the element first in canonical order.
    order = sorted(range(n), key=idxs.__getitem__)
    ordered = [idxs[p] for p in order]
    lower, upper = _query_covers(poset, ordered)
    downs = [poset.down[i] for i in ordered]
    minimal = {0: sum(1 << r for r in range(n) if not lower[r])}

    def successors(used: int):
        a = minimal[used]
        while a:
            low = a & -a
            a ^= low
            yield low.bit_length() - 1, used | low

    # Forward: ideal -> size of the union of its down-sets, inserted layer
    # by layer, and ideal -> its minimal unplaced elements, updated along
    # the covers as the extension walker does; the unions themselves are
    # kept for one layer only.
    size = {0: 0}
    layer = {0: 0}
    for _ in range(n):
        nxt = {}
        for used, mask in layer.items():
            for r, t in successors(used):
                if t not in nxt:
                    nxt[t] = mask | downs[r]
                    if len(size) + len(nxt) > cap:
                        raise CapExceeded(cap)
                    a = minimal[used] ^ 1 << r
                    for c in upper[r]:
                        if not lower[c] & ~t:
                            a |= 1 << c
                    minimal[t] = a
        for t, mask in nxt.items():
            size[t] = mask.bit_count()
        layer = nxt

    # Backward: entering ideal t costs xi[size - 1]; ``enter[t]`` adds the
    # optimal cost of every later step.  Reversed insertion order visits
    # each ideal after all of its successors.
    full = (1 << n) - 1
    enter = {}
    for used in reversed(size):
        if used == full:
            rest = Fraction(0)
        else:
            rest = min(enter[t] for _, t in successors(used))
        enter[used] = xi[size[used] - 1] + rest if used else rest
    best_val = enter[0]

    perm = []
    used = 0
    rest = best_val
    for _ in range(n):
        for r, t in successors(used):
            if enter[t] == rest:
                break
        perm.append(order[r])
        used = t
        rest -= xi[size[t] - 1]
    best_perm = tuple(perm)
    witness = build_witness(poset, scale, query, best_perm, "min")
    per_node = tuple(witness.value(query.labels[p]) for p in best_perm)
    return BoundResult(best_val, best_perm, witness, per_node)


def solve_max(
    poset: Poset, scale: ValueScale, query: QuerySet, cap: int = DEFAULT_CAP
) -> BoundResult:
    """Global maximum of the query sum, via the order-reversal reduction.

    Maximizing over the original orders is minimizing over the reversed
    poset with the negated, reversed scale; the witness maps back through
    rank -> N + 1 - rank.
    """
    _check_scale(poset, scale)
    if len(query) == 0:
        raise EmptyQuery("query set is empty")
    rposet, rscale, rquery = reverse_reduce(poset, scale, query)
    res = solve_min(rposet, rscale, rquery, cap=cap)
    n_total = poset.n
    ranks = [n_total + 1 - r for r in res.witness_fn.ranks]
    witness = MonotoneBijection(poset, scale, ranks)
    perm = tuple(reversed(res.witness_perm))
    per_node = tuple(witness.value(query.labels[p]) for p in perm)
    return BoundResult(-res.objective, perm, witness, per_node)


def build_witness(
    poset: Poset, scale: ValueScale, query: QuerySet, perm, mode: str = "min"
) -> MonotoneBijection:
    """A monotone bijection attaining the conditional optimum for ``perm``.

    Min mode assigns scale ranks block by block: the k-th block is the set
    of elements newly covered by the union of down-sets after placing the
    k-th ordered query element, filled along the lexicographically first
    linear extension of the induced subposet.  This is the least linear
    extension under the key (first prefix containing the element,
    canonical index), built in O((N + covers) log N).  Max mode runs the
    same construction on the reversed instance and maps ranks back.
    """
    _check_scale(poset, scale)
    _validate_ordering(poset, query, perm)
    if mode == "max":
        rposet, rscale, rquery = reverse_reduce(poset, scale, query)
        g = build_witness(rposet, rscale, rquery, tuple(reversed(perm)), "min")
        ranks = [poset.n + 1 - r for r in g.ranks]
        return MonotoneBijection(poset, scale, ranks)
    if mode != "min":
        raise ValidationError(f"mode must be 'min' or 'max', got {mode!r}")

    # The prefix unions are down-closed, so ordering by (key, index) fills
    # each block along its lexicographically first extension.
    idxs = query.indices
    key = [len(perm)] * poset.n
    mask = 0
    for k, p in enumerate(perm):
        new = poset.down[idxs[p]] & ~mask
        mask |= new
        for bit in finditer("1", bin(new)[:1:-1]):  # character i is bit i
            key[bit.start()] = k
    ranks = [0] * poset.n
    for r, e in enumerate(_first_extension(_cover_succs(poset), key), 1):
        ranks[e] = r
    return MonotoneBijection(poset, scale, ranks)


def reverse_reduce(poset: Poset, scale: ValueScale, query: QuerySet):
    """Order-reversed instance whose minimum is the negated maximum.

    Returns the reversed poset, the negated-and-reversed scale, and the
    query re-bound to the reversed poset (same labels).
    """
    rposet = poset.reversed()
    rscale = ValueScale(tuple(-v for v in reversed(scale.values)))
    rquery = QuerySet(rposet, query.labels)
    return rposet, rscale, rquery


def chain_bounds(poset: Poset, scale: ValueScale, query: QuerySet):
    """(min, max) closed forms when the query set is a chain.

    min sums the values ranked by each element's down-set size; max sums
    the values ranked N - |up-set| + 1.  The query may be given in any
    order; elements are sorted along the chain internally.
    """
    _check_scale(poset, scale)
    if len(query) == 0:
        raise EmptyQuery("query set is empty")
    idxs = query.indices
    for a in range(len(idxs)):
        for b in range(a + 1, len(idxs)):
            if not poset.comparable_idx(idxs[a], idxs[b]):
                raise NotAChain(
                    f"{query.labels[a]!r} and {query.labels[b]!r} are incomparable"
                )
    ordered = sorted(idxs, key=lambda i: poset.down[i].bit_count())
    n_total = poset.n
    mn = sum(
        (scale.value(poset.down[i].bit_count()) for i in ordered), Fraction(0)
    )
    mx = sum(
        (
            scale.value(n_total - poset.up[i].bit_count() + 1)
            for i in ordered
        ),
        Fraction(0),
    )
    return mn, mx


def disjoint_bound(
    poset: Poset, scale: ValueScale, query: QuerySet, mode: str = "min"
) -> Fraction:
    """Closed form when the query elements' down-sets (up-sets) are disjoint.

    For ``mode="min"`` the down-sets must be pairwise disjoint; sorting
    their sizes ascending, the k-th term is the value ranked by the k-th
    prefix sum.  ``mode="max"`` is the dual with up-sets and ranks counted
    from the top.
    """
    _check_scale(poset, scale)
    if len(query) == 0:
        raise EmptyQuery("query set is empty")
    if mode not in ("min", "max"):
        raise ValidationError(f"mode must be 'min' or 'max', got {mode!r}")
    sets = poset.down if mode == "min" else poset.up
    idxs = query.indices
    for a in range(len(idxs)):
        for b in range(a + 1, len(idxs)):
            if sets[idxs[a]] & sets[idxs[b]]:
                kind = "down-sets" if mode == "min" else "up-sets"
                raise PreconditionViolated(
                    f"{kind} of {query.labels[a]!r} and "
                    f"{query.labels[b]!r} intersect",
                    pair=(query.labels[a], query.labels[b]),
                )
    sizes = sorted(sets[i].bit_count() for i in idxs)
    n_total = poset.n
    total = Fraction(0)
    prefix = 0
    for s in sizes:
        prefix += s
        rank = prefix if mode == "min" else n_total - prefix + 1
        total += scale.value(rank)
    return total


def scale_from_m(m: MonotoneMap1D, n: int) -> ValueScale:
    """The scale of preimages m^{-1}(i / n^2), i = 1..n^2.

    Identity maps produce the exact rationals i / n^2.  Other kinds go
    through one :meth:`~MonotoneMap1D.inverse_many` call on the correctly
    rounded floats i / n^2, whose results the scale then holds exactly.
    Strict increase is re-checked by the scale.
    """
    if n < 1:
        raise ValidationError("n must be at least 1")
    if not m.is_increasing_bijection:
        raise ValidationError("map must be an increasing bijection")
    n2 = n * n
    if m.kind == "identity":
        return ValueScale(Fraction(i, n2) for i in range(1, n2 + 1))
    return ValueScale(m.inverse_many(np.arange(1, n2 + 1) / n2).tolist())
