"""Finite posets with bitmask reachability and deterministic enumeration.

Elements are identified by hashable labels.  The position of a label in the
defining list is its canonical index, and every deterministic tie-break in
this package (enumeration order, witness construction) uses that index.
Reachability is stored as one Python-int bitmask per element, which keeps
down-set unions and cardinalities cheap even for posets with tens of
thousands of elements.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence

from .errors import (
    CapExceeded,
    CycleError,
    DuplicateLabelError,
    InvalidGrid,
    UnknownElement,
)

DEFAULT_CAP = 10**6

Label = Hashable


class Poset:
    """Immutable finite partially ordered set.

    Bit ``j`` of ``down[i]`` is set iff ``labels[j] <= labels[i]`` (the
    relation is reflexive, so bit ``i`` is always set); ``up`` is the
    transpose.  Instances are constructed through :func:`build_poset` or
    :func:`grid_poset`, which compute the closure.
    """

    __slots__ = ("labels", "covers", "down", "up", "_index")

    def __init__(self, labels, covers, down, up):
        self.labels: tuple = tuple(labels)
        self.covers: tuple = tuple(covers)
        self.down: tuple = tuple(down)
        self.up: tuple = tuple(up)
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: Label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElement(f"{label!r} is not an element of the poset") from None

    def label(self, i: int) -> Label:
        return self.labels[i]

    def leq_idx(self, i: int, j: int) -> bool:
        """True iff element i is below-or-equal element j."""
        return bool(self.down[j] >> i & 1)

    def leq(self, a: Label, b: Label) -> bool:
        return self.leq_idx(self.index(a), self.index(b))

    def comparable_idx(self, i: int, j: int) -> bool:
        return self.leq_idx(i, j) or self.leq_idx(j, i)

    def reversed(self) -> "Poset":
        """The same ground set under the reversed order."""
        return Poset(
            self.labels,
            tuple((b, a) for a, b in self.covers),
            self.up,
            self.down,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.labels == other.labels and self.down == other.down

    def __hash__(self) -> int:
        return hash((self.labels, self.down))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={len(self.covers)})"


class ElementSet:
    """Subset of a poset's ground set with bitset semantics."""

    __slots__ = ("poset", "mask")

    def __init__(self, poset: Poset, mask: int):
        self.poset = poset
        self.mask = mask

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, label: Label) -> bool:
        return bool(self.mask >> self.poset.index(label) & 1)

    @property
    def labels(self) -> tuple:
        m = self.mask
        return tuple(
            lab for i, lab in enumerate(self.poset.labels) if m >> i & 1
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElementSet):
            return NotImplemented
        return self.poset == other.poset and self.mask == other.mask

    def __repr__(self) -> str:
        return f"ElementSet({self.labels!r})"


class QuerySet:
    """Ordered list of distinct poset elements."""

    __slots__ = ("poset", "labels", "indices")

    def __init__(self, poset: Poset, labels: Iterable[Label]):
        labs = tuple(labels)
        idxs = []
        seen = set()
        for lab in labs:
            i = poset.index(lab)
            if i in seen:
                raise DuplicateLabelError(f"query element {lab!r} repeated")
            seen.add(i)
            idxs.append(i)
        self.poset = poset
        self.labels = labs
        self.indices = tuple(idxs)

    def __len__(self) -> int:
        return len(self.indices)

    def __repr__(self) -> str:
        return f"QuerySet({list(self.labels)!r})"


def build_poset(labels: Sequence[Label], covers: Iterable[tuple]) -> Poset:
    """Build a poset from labels and cover pairs ``(a, b)`` meaning a < b.

    The transitive-reflexive closure is computed once, by propagating
    bitmasks along a topological order of the cover DAG.  Redundant
    (transitive) pairs in ``covers`` are harmless.
    """
    labs = list(labels)
    seen = set()
    for lab in labs:
        if lab in seen:
            raise DuplicateLabelError(f"duplicate label {lab!r}")
        seen.add(lab)
    index = {lab: i for i, lab in enumerate(labs)}
    n = len(labs)

    edges = []
    edge_seen = set()
    for a, b in covers:
        if a not in index:
            raise UnknownElement(f"cover endpoint {a!r} is not a label")
        if b not in index:
            raise UnknownElement(f"cover endpoint {b!r} is not a label")
        ia, ib = index[a], index[b]
        if ia == ib:
            raise CycleError(f"self-loop at {a!r}")
        if (ia, ib) not in edge_seen:
            edge_seen.add((ia, ib))
            edges.append((ia, ib))

    preds = [[] for _ in range(n)]
    succs = [[] for _ in range(n)]
    indeg = [0] * n
    for ia, ib in edges:
        preds[ib].append(ia)
        succs[ia].append(ib)
        indeg[ib] += 1

    topo = [i for i in range(n) if indeg[i] == 0]
    head = 0
    deg = list(indeg)
    while head < len(topo):
        v = topo[head]
        head += 1
        for w in succs[v]:
            deg[w] -= 1
            if deg[w] == 0:
                topo.append(w)
    if len(topo) != n:
        raise CycleError("cover relation contains a directed cycle")

    down = [0] * n
    for v in topo:
        m = 1 << v
        for u in preds[v]:
            m |= down[u]
        down[v] = m
    up = [0] * n
    for v in reversed(topo):
        m = 1 << v
        for w in succs[v]:
            m |= up[w]
        up[v] = m

    cover_labels = tuple((labs[ia], labs[ib]) for ia, ib in edges)
    return Poset(labs, cover_labels, down, up)


def grid_poset(n: int, order_kind: str = "product") -> Poset:
    """Square grid ``{(i, j) : 1 <= i, j <= n}`` under one of two orders.

    ``"product"``: (i1,j1) <= (i2,j2) iff i1 <= i2 and j1 <= j2.
    ``"rows"``: elements are comparable only within a row (equal j),
    ordered by i, so the poset is n disjoint n-chains.
    """
    return _grid_poset(n, n, order_kind)


def _grid_poset(nx: int, ny: int, order_kind: str) -> Poset:
    """The ``nx x ny`` grid ``{(i, j)}`` under the orders of :func:`grid_poset`."""
    if nx < 1 or ny < 1:
        raise InvalidGrid("grid size must be at least 1")
    if order_kind not in ("product", "rows"):
        raise InvalidGrid(f"unknown order kind {order_kind!r}")
    labels = [(i, j) for i in range(1, nx + 1) for j in range(1, ny + 1)]
    covers = []
    for i in range(1, nx + 1):
        for j in range(1, ny + 1):
            if i < nx:
                covers.append(((i, j), (i + 1, j)))
            if order_kind == "product" and j < ny:
                covers.append(((i, j), (i, j + 1)))
    return build_poset(labels, covers)


def down_set(poset: Poset, alpha: Label) -> ElementSet:
    """All elements below-or-equal ``alpha``, including ``alpha`` itself."""
    return ElementSet(poset, poset.down[poset.index(alpha)])


def up_set(poset: Poset, alpha: Label) -> ElementSet:
    """All elements above-or-equal ``alpha``, including ``alpha`` itself."""
    return ElementSet(poset, poset.up[poset.index(alpha)])


def _query_below(poset: Poset, query: QuerySet) -> list:
    """Per query position p, the bitmask of query positions strictly below p."""
    idxs = query.indices
    out = []
    for i in idxs:
        down = poset.down[i]
        m = 0
        for q, j in enumerate(idxs):
            if j != i and down >> j & 1:
                m |= 1 << q
        out.append(m)
    return out


def admissible_permutations(
    poset: Poset, query: QuerySet, cap: int = DEFAULT_CAP
) -> Iterator[tuple]:
    """Orderings of the query set compatible with the partial order.

    Yields tuples ``perm`` of 0-based positions into ``query``: ``perm[k]``
    is the query element placed k-th, smallest value first.  An ordering is
    admissible when no element appears before another element lying
    strictly below it, i.e. the sequence is a linear extension of the
    induced subposet on the query set.  Yield order is lexicographic in
    the canonical indices of the emitted sequence.  Raises
    :class:`CapExceeded` on the (cap+1)-th result.
    """
    idxs = query.indices
    n = len(idxs)
    strictly_below = _query_below(poset, query)
    order = sorted(range(n), key=lambda p: idxs[p])
    chosen = [0] * n
    count = 0

    def explore(depth: int, used: int) -> Iterator[tuple]:
        nonlocal count
        if depth == n:
            count += 1
            if count > cap:
                raise CapExceeded(cap)
            yield tuple(chosen)
            return
        for p in order:
            if used >> p & 1 or strictly_below[p] & ~used:
                continue
            chosen[depth] = p
            yield from explore(depth + 1, used | 1 << p)

    yield from explore(0, 0)


def linear_extensions(poset: Poset, cap: int = DEFAULT_CAP) -> Iterator[tuple]:
    """All linear extensions of the full ground set.

    Yields tuples of element indices in extension order, lexicographically
    by canonical index, with the same cap discipline as
    :func:`admissible_permutations`.
    """
    n = poset.n
    strictly_below = [poset.down[i] & ~(1 << i) for i in range(n)]
    chosen = [0] * n
    count = 0

    def explore(depth: int, used: int) -> Iterator[tuple]:
        nonlocal count
        if depth == n:
            count += 1
            if count > cap:
                raise CapExceeded(cap)
            yield tuple(chosen)
            return
        for i in range(n):
            if used >> i & 1 or strictly_below[i] & ~used:
                continue
            chosen[depth] = i
            yield from explore(depth + 1, used | 1 << i)

    yield from explore(0, 0)


def count_linear_extensions(poset: Poset, cap: int = DEFAULT_CAP) -> int:
    return sum(1 for _ in linear_extensions(poset, cap=cap))
