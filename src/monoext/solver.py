"""Exact extremal values of query sums over monotone bijections.

Given a poset, a strictly increasing value scale of the same size, and a
query set B, the minimum and maximum of ``sum(f(b) for b in B)`` over all
monotone bijections f are computed from a closed-form conditional value
per admissible ordering of B, optimized over those orderings
(:func:`_search`).  A query whose induced order is a chain has one
admissible ordering, found by sorting it by set size (:func:`_chain`),
and its sum is read off its elements' set sizes.  Any other query is
searched by dynamic programming over the order ideals of the
query, pruned: an ideal is kept only if the least cost of reaching it plus
a lower bound on the cost still to come is at most the cost of a greedy
ordering, so every ideal on an optimal path is kept and the result is
that of the full search.  The search adds and compares integers: the
scale values it charges are first brought to their common denominator,
so every result is exact.  It keeps two layers of cost values over that
denominator, plus one choice per kept ideal.  Every maximum runs through
the same code as the minimum, reading the up-sets from the top of the
order (:func:`_orientation`); no reversed instance is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations
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
from .grid import _GridSets
from .poset import DEFAULT_CAP, Poset, QuerySet, _query_covers
from .poset import _cover_succs, _first_extension
from .values import BoundResult, MonotoneBijection, ValueScale, _integer_ratios, _Ratios


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
    ``cap`` bounds the number of ideals (DP states) the search holds.
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
    best, perm = _search(sets, query.indices, scale.values, rank, sign, cap)
    perm = perm[::sign]
    witness = build_witness(poset, scale, query, perm, mode)
    # Read by index: the labels need no lookup, and the ranks no bounds check.
    ranks, idxs, values = witness.ranks, query.indices, scale.values
    per_node = tuple(values[ranks[idxs[p]] - 1] for p in perm)
    return BoundResult(best, perm, witness, per_node)


def _chain(sets, idxs):
    """``(order, sizes)`` if the query entries ``idxs`` form a chain in the
    order whose down-sets are ``sets``, else None.  ``order`` holds the
    positions into ``idxs`` from the bottom of the chain, and ``sizes``
    the size of each one's set, in that order.

    Along a chain the sets strictly grow, so sorted by set size the
    entries form a chain exactly when each one's set holds the entry
    before it: k - 1 membership bits are tested.
    """
    held = [sets[i] for i in idxs]
    sizes = [mask.bit_count() for mask in held]
    order = sorted(range(len(idxs)), key=sizes.__getitem__)
    for a, b in zip(order, order[1:]):
        if not held[b] >> idxs[a] & 1:
            return None
    return order, [sizes[p] for p in order]


def _charged(values, rank, sizes) -> Fraction:
    """The sum of the values ranked ``rank(k)`` for k in ``sizes``, added
    as integers over one denominator (:func:`_weights`); no other value
    is read."""
    w, den = _weights(values, rank, 1, sizes)
    return Fraction(sum(w), den)


def _weights(values, rank, sign: int, sizes):
    """``(w, den)``: ``w[j]`` is ``sign`` times the value ranked
    ``rank(sizes[j])``, as an integer over the common denominator ``den``.
    A range of sizes is read as one slice.  A from_m scale's held
    numerators are read without building a value."""
    if isinstance(values, _Ratios):
        held, den = values.nums, values.den
    else:
        held, den = values, None
    if isinstance(sizes, range):
        a, b = rank(sizes[0]) - 1, rank(sizes[-1]) - 1
        picked = held[min(a, b):max(a, b) + 1][::sign]
    else:
        picked = [held[rank(k) - 1] for k in sizes]
    if den is None:
        picked, den = _integer_ratios(picked)
    return [sign * num for num in picked], den


def _freed(free: int, used: int, low: int, lower, upper) -> int:
    """The minimal unplaced elements of the ideal ``used``, which bit
    ``low`` has just joined, from ``free``, those of the ideal before it
    less ``low``: placing r can make minimal only an element covering r,
    and does once every element that one covers is placed."""
    for c in upper[low.bit_length() - 1]:
        if not lower[c] & ~used:
            free |= 1 << c
    return free


def _search(sets, idxs, values, rank, sign: int, cap: int):
    """``sign`` times the least sum of ``sign`` times the scale value
    ``values[rank(k) - 1]`` over the prefixes of an admissible ordering of
    the query entries ``idxs``, k being the size of the union of the
    prefix's sets, and the lexicographically least ordering (in canonical
    index) attaining it, as positions into ``idxs``.  That is the least
    sum for ``sign`` +1 and the greatest for -1.  ``sets`` are the
    down-sets of the order searched: the poset's down-sets, or its up-sets
    for the reversed order.  The charges are brought to one denominator,
    so the search adds and compares integers; ``w(u)`` below is the charge
    of a union of u elements, and it rises with u in both modes.

    A query whose induced order is a chain (:func:`_chain`) has one
    admissible ordering, and the union along it is the current element's
    set: the sum is read off the k set sizes, and only their values are
    charged.

    Otherwise the cost still to come after placing a set of query elements
    depends only on that set, so each order ideal of the induced subposet
    is solved once, and only the ideals that can lie on an optimal path
    are kept.  A greedy ordering, placing next the minimal element whose
    union grows least, costs UB.  The forward pass goes layer by layer and
    carries g, the least cost of reaching an ideal from a kept ideal.  With
    s the size of the ideal's union, r the placements left and ``full``
    the size of the union of all the query's sets, each placement left
    grows the union by at least one and the last ends at ``full``; as w
    rises, h = W(s + r - 1) - W(s) + w(full), W the prefix sums of w, is
    at most the cost still to come.  An ideal is kept iff g + h <= UB.

    Why the result is unchanged.  Take an ideal on an optimal path whose
    ideals before it are kept.  Its g is at most the path's cost up to
    it, and its h at most the path's cost still to come, so g + h <= the
    optimum <= UB and it is kept: by induction from the empty ideal, every
    ideal on an optimal path is kept.  The backward pass runs over the
    kept ideals only, so the cost still to come it finds through a kept
    successor is never less than the true one, and it is the true one at
    an ideal on an optimal path, whose optimal continuations are all
    kept.  So at each ideal of the reported path, the successors attaining
    the optimum are those of the unpruned search, and taking the lowest
    bit among them returns the same optimum and the same lexicographically
    least ordering, in both modes.

    ``cap`` bounds the ideals held, which are the kept ones (k + 1 for a
    chain).  Raises :class:`CapExceeded` past it.
    """
    n = len(idxs)
    chain = _chain(sets, idxs)
    if chain is not None:
        if n + 1 > cap:
            raise CapExceeded(cap)
        path, sizes = chain
        return _charged(values, rank, sizes), tuple(path)

    # Bit r of an ideal stands for query position order[r], so the lowest
    # bit of a mask is the element first in canonical order.
    order = sorted(range(n), key=idxs.__getitem__)
    lower, upper = _query_covers(sets, [idxs[p] for p in order])
    downs = [sets[idxs[p]] for p in order]
    first = sum(1 << r for r in range(n) if not lower[r])
    full = reduce(or_, downs).bit_count()
    w, den = _weights(values, rank, sign, range(1, full + 1))
    w.insert(0, 0)  # the empty ideal is charged nothing
    prefix = list(accumulate(w))

    # The greedy ordering's cost, the incumbent UB.
    ub = used = mask = 0
    free = first
    for _ in range(n):
        a = free
        size = full + 1
        while a:
            low = a & -a
            a ^= low
            k = (mask | downs[low.bit_length() - 1]).bit_count()
            if k < size:
                size, pick = k, low
        ub += w[size]
        mask |= downs[pick.bit_length() - 1]
        used |= pick
        free = _freed(free ^ pick, used, pick, lower, upper)

    # Forward: per layer, the kept ideals with the size of their union,
    # and for one layer only their unions and the least g of a kept
    # predecessor.  An ideal whose union has s elements, entered from a
    # predecessor of cost g, passes iff g + W(s + n - j - 1) - W(s - 1) +
    # w(full) <= UB: the cost of entering it plus its h.  Its g is the least
    # over its kept predecessors, so it is kept iff one of them passes it,
    # and once kept, a later predecessor can only lower its g.
    minimal = {0: first}
    layers = [{0: 0}]
    kept = 1
    room = ub - w[full]
    reach, unions = {0: 0}, {0: 0}
    for j in range(1, n + 1):
        left = n - j - 1
        sizes = layers[-1]
        prev, unions, nxt, level = unions, {}, {}, {}
        for used, mask in prev.items():
            g = reach[used] + w[sizes[used]]
            free = minimal[used]
            a = free
            while a:
                low = a & -a
                a ^= low
                t = used | low
                if t in nxt:
                    if g < nxt[t]:
                        nxt[t] = g
                    continue
                union = mask | downs[low.bit_length() - 1]
                s = union.bit_count()
                if g + prefix[s + left] - prefix[s - 1] > room:
                    continue
                kept += 1
                if kept > cap:
                    raise CapExceeded(cap)
                nxt[t] = g
                unions[t] = union
                level[t] = s
                minimal[t] = _freed(free ^ low, t, low, lower, upper)
        reach = nxt
        layers.append(level)

    # Backward: ``ahead`` holds, for the layer after the current one, the
    # cost of entering each kept ideal plus the optimal cost of every later
    # step through kept ideals; an ideal with no kept successor has none.
    # Successors are scanned lowest bit first and replaced only on a strict
    # improvement.
    choice = {}
    ahead = {t: w[s] for t, s in layers[n].items()}
    for level in reversed(layers[:n]):
        here = {}
        for used, s in level.items():
            a = minimal[used]
            best = None
            while a:
                low = a & -a
                a ^= low
                c = ahead.get(used | low)
                if c is not None and (best is None or c < best):
                    best, pick = c, low
            if best is not None:
                here[used] = w[s] + best
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
    element, canonical index).  The ranks are a permutation of 1..N by
    construction, so they are built as one tuple and handed to
    :meth:`~monoext.values.MonotoneBijection._of_ranks`, which does not
    check them again.

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
        ranks = ranks.tolist()  # the array is freed before the tuple is built
        return MonotoneBijection._of_ranks(poset, scale, tuple(ranks))
    if sign > 0 and poset.rising:
        order = sorted(range(n), key=key.__getitem__)
    else:
        order = _first_extension(_cover_succs(poset, sign), key)
    ranks = [0] * n
    for e, r in zip(order, range(1, n + 1)[::sign]):
        ranks[e] = r
    return MonotoneBijection._of_ranks(poset, scale, tuple(ranks))


def chain_bounds(poset: Poset, scale: ValueScale, query: QuerySet):
    """(min, max) closed forms when the query set is a chain.

    A chain has one admissible ordering, and the running union along it is
    the current element's down-set (up-set, read from the top): min sums
    the values ranked by each element's down-set size, max the values
    ranked N + 1 - |up-set|.  The query may be given in any order, and no
    running union is built: :func:`_chain`, which the search shares, tests
    k - 1 membership bits, and each sum charges only its k sizes, added
    as integers (:func:`_charged`).  Only when the test fails are the
    pairs scanned, to name the first incomparable pair in query order.
    """
    _check_instance(poset, scale, query)
    idxs = query.indices
    chain = _chain(poset.down, idxs)
    if chain is None:
        a, b = _first_pair(query, lambda i, j: not poset.comparable_idx(i, j))
        raise NotAChain(f"{a!r} and {b!r} are incomparable")
    _, top_rank, _ = _orientation(poset, "max")
    return (
        _charged(scale.values, lambda k: k, chain[1]),
        _charged(scale.values, top_rank, [poset.up[i].bit_count() for i in idxs]),
    )


def disjoint_bound(
    poset: Poset, scale: ValueScale, query: QuerySet, mode: str = "min"
) -> Fraction:
    """Closed form when the query elements' down-sets (up-sets) are disjoint.

    For ``mode="min"`` the down-sets must be pairwise disjoint, and
    ``mode="max"`` is the dual with up-sets.  The running union's size is
    then the running sum of the set sizes, so reading the sets smallest
    first, the k-th term is the value ranked by the k-th prefix sum (for
    the maximum, N + 1 minus it), and only those k values are charged
    (:func:`_charged`).  The sets are disjoint exactly when their union is
    as large as their sizes together, which takes one pass.  Only when it
    is smaller are the pairs scanned, to name the first intersecting pair
    in query order.
    """
    _check_instance(poset, scale, query)
    sets, rank, _ = _orientation(poset, mode)
    idxs = query.indices
    sizes = [sets[i].bit_count() for i in idxs]
    if reduce(or_, (sets[i] for i in idxs)).bit_count() != sum(sizes):
        a, b = _first_pair(query, lambda i, j: sets[i] & sets[j])
        kind = "down-sets" if mode == "min" else "up-sets"
        raise PreconditionViolated(f"{kind} of {a!r} and {b!r} intersect", pair=(a, b))
    return _charged(scale.values, rank, list(accumulate(sorted(sizes))))
