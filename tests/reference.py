"""References for the tests.

The brute-force ones are written from the definitions: each filters all
permutations or compares all pairs, so it shares no code with the
solver's ordering search, its precondition checks, the
oracle's enumeration or the witness builder, and is meant for posets of a
few elements only.  :func:`eval_extremal_process` is the one-point case of
the process grid evaluator, which no program path needs.
"""

from itertools import permutations

from monoext import QuerySet, ValueScale, build_poset
from monoext.func1d import _clamp_unit
from monoext.process import _process_values


def admissible_orderings(poset, query):
    """The admissible orderings of ``query``: tuples of 0-based positions
    into it, smallest value first, in which no element comes after an
    element it lies strictly below.  They come in lexicographic order of
    the canonical indices they list."""
    idxs = query.indices
    order = sorted(range(len(idxs)), key=idxs.__getitem__)
    for perm in permutations(order):
        seq = [idxs[p] for p in perm]
        if not any(
            poset.leq_idx(later, earlier)
            for k, earlier in enumerate(seq)
            for later in seq[k + 1:]
        ):
            yield perm


def ordering_violation(poset, query, perm):
    """The message that rejects the ordering ``perm`` of ``query``, or None
    if it is admissible: it names the element at the first position that
    lies below an element placed before it, and the first such element."""
    seq = [query.indices[p] for p in perm]
    for k, i in enumerate(seq):
        for q, j in zip(perm, seq[:k]):
            if poset.leq_idx(i, j):
                return (f"{query.labels[perm[k]]!r} lies below "
                        f"{query.labels[q]!r} but is ordered after it")
    return None


def first_offending_pair(query, offends):
    """The labels ``(a, b)`` of the first pair of query elements, a listed
    before b, for which ``offends(a, b)`` holds, pairs taken by a and then
    by b in query order; None if no pair offends."""
    labels = query.labels
    for k, a in enumerate(labels):
        for b in labels[k + 1:]:
            if offends(a, b):
                return a, b
    return None


def linear_extensions(poset):
    """The linear extensions of ``poset``: tuples of element indices, lowest
    first, that place i before j for every cover pair (i, j); in
    lexicographic order."""
    covers = tuple(poset.covers)
    for ext in permutations(range(poset.n)):
        pos = sorted(range(poset.n), key=ext.__getitem__)
        if all(pos[i] < pos[j] for i, j in covers):
            yield ext


def reversed_instance(poset, scale, query):
    """The order-reversed instance, whose minimum is the negated maximum:
    the poset rebuilt from the flipped cover pairs (so its closure is
    computed afresh), the scale negated and reversed, and the query's
    labels bound to the new poset."""
    labels = poset.labels
    rposet = build_poset(labels, [(labels[j], labels[i]) for i, j in poset.covers])
    rscale = ValueScale([-v for v in reversed(scale.values)])
    return rposet, rscale, QuerySet(rposet, query.labels)


def eval_extremal_process(proc, t: float, y: float) -> float:
    """Trajectory value of ``proc`` at time t for the outcome of rank
    fraction y: the one-point case of the grid evaluator, so it returns
    exactly the values :func:`monoext.verify_process_membership` checks."""
    t = _clamp_unit(t, "t")
    y = _clamp_unit(y, "y")
    return float(_process_values(proc, t, y))
