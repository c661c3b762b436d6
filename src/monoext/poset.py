"""Finite posets with bitmask reachability.

Elements are identified by hashable labels.  The position of a label in the
defining list is its canonical index, and every deterministic tie-break in
this package (ordering search, witness construction) uses that index.
Reachability is one Python-int bitmask per element and direction, which
keeps down-set unions and cardinalities cheap even for posets with tens of
thousands of elements.  :func:`build_poset` computes every mask once and
holds its labels, covers, sets and label index as tuples, :class:`_BuiltSets`
and a dict.  :func:`grid_poset` holds no per-element object at all: element
e of an ``nx x ny`` grid is ``(e // ny + 1, e % ny + 1)``, so its labels,
covers and index are the views of :mod:`monoext.grid`, computed from (i, j)
arithmetic when read, and each down-set and up-set, a rectangle, is
computed on first use.  Either kind of sets is a sequence of masks with
``size``, ``holds``, ``first_holder`` and ``ranks``, all the solver reads;
the order test :meth:`Poset.leq_idx` reads ``holds`` as well.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Hashable

from .errors import (
    CycleError,
    DuplicateLabelError,
    InvalidGrid,
    UnknownElement,
)
from .grid import _GridCovers, _GridIndex, _GridLabels, _GridSets

DEFAULT_CAP = 10**6

Label = Hashable


def _is_int(v) -> bool:
    """True for a Python int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


class Poset:
    """Immutable finite partially ordered set.

    Bit ``j`` of ``down[i]`` is set iff ``labels[j] <= labels[i]`` (the
    relation is reflexive, so bit ``i`` is always set); ``up`` is the
    transpose.  ``covers`` holds the given cover pairs as canonical index
    pairs ``(i, j)`` meaning ``labels[i] < labels[j]``, without repeats and
    in input order.  Instances are constructed through :func:`build_poset`,
    which computes the closure into tuples and :class:`_BuiltSets`, or
    :func:`grid_poset`, whose labels, covers and sets are the read-only
    views of :mod:`monoext.grid`; both kinds of sets read alike.
    """

    __slots__ = ("labels", "covers", "down", "up", "_index")

    def __init__(self, labels, covers, down, up):
        self.labels: Sequence = labels
        self.covers: Sequence[tuple] = covers
        self.down: Sequence[int] = down
        self.up: Sequence[int] = up
        if isinstance(self.labels, _GridLabels):
            self._index = _GridIndex(*self.labels.key)
        else:
            self._index = {lab: i for i, lab in enumerate(self.labels)}

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: Label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElement(f"{label!r} is not an element of the poset") from None

    def leq_idx(self, i: int, j: int) -> bool:
        """True iff element i is below-or-equal element j (``down.holds``)."""
        return bool(self.down.holds(j, i))

    def leq(self, a: Label, b: Label) -> bool:
        return self.leq_idx(self.index(a), self.index(b))

    def comparable_idx(self, i: int, j: int) -> bool:
        return self.leq_idx(i, j) or self.leq_idx(j, i)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.labels == other.labels and self.down == other.down

    def __hash__(self) -> int:
        # Equal posets share their labels; hashing only the size and the end
        # labels keeps a grid's labels and masks uncomputed.
        return hash((self.n, self.labels[:1], self.labels[-1:]))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={len(self.covers)})"


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
    for ia, ib in edges:
        preds[ib].append(ia)
        succs[ia].append(ib)

    topo = _first_extension(succs, range(n))
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

    edges = tuple(edges)
    return Poset(tuple(labs), edges, _BuiltSets(down, edges, "down"),
                 _BuiltSets(up, edges, "up"))


class _BuiltSets(tuple):
    """The down-sets (``direction`` "down") or up-sets ("up") of a built
    poset as bitmasks, element e at bit e, with the methods of
    :class:`~monoext.grid._GridSets`.  The order read from them has the
    cover pairs ``covers``, flipped for up-sets."""

    def __new__(cls, masks, covers, direction: str):
        sets = super().__new__(cls, masks)
        sets._covers, sets._down = covers, direction == "down"
        return sets

    def size(self, e: int) -> int:
        return self[e].bit_count()

    def holds(self, e: int, f: int) -> int:
        return self[e] >> f & 1

    def first_holder(self, reading, whole: bool = True):
        """Per element e, the position in ``reading`` of the first element
        whose set holds e, or ``len(reading)``: a list from the bits of each
        newly covered block, or unless ``whole`` a dict from its bits in ``reading``."""
        key = [len(reading)] * len(self) if whole else {}
        wanted = -1 if whole else sum(1 << i for i in reading)
        mask = 0
        for k, i in enumerate(reading):
            new = self[i] & ~mask
            mask |= new
            new &= wanted
            while new:
                low = new & -new
                key[low.bit_length() - 1] = k
                new ^= low
        return key

    def ranks(self, key) -> list:
        """The ranks, 1..N from the bottom (down-sets) or N..1 from the top
        (up-sets), of the least linear extension of the order read under
        ``(key[e], e)``, ``key`` a whole :meth:`first_holder`.  The key never
        decreases along that order, so if its cover pairs (i, j) all have
        i < j, the extension is the stable sort of the key; otherwise it is
        Kahn's algorithm with a heap (:func:`_first_extension`)."""
        n = len(self)
        pairs = self._covers if self._down else [(j, i) for i, j in self._covers]
        if all(i < j for i, j in pairs):
            order = sorted(range(n), key=key.__getitem__)
        else:
            order = _first_extension(_cover_succs(n, pairs), key)
        ranks = [0] * n
        for e, r in zip(order, range(1, n + 1) if self._down else range(n, 0, -1)):
            ranks[e] = r
        return ranks


def _first_extension(succs: Sequence[Sequence[int]], key: Sequence) -> list:
    """Kahn's algorithm with a heap on ``(key[i], i)``: the linear extension
    of ``0..n-1`` under the pairs ``i < j``, j in ``succs[i]`` (no repeats),
    that always places the minimal element least by that pair.  It is
    shorter than n exactly when the pairs contain a directed cycle."""
    indeg = [0] * len(succs)
    for row in succs:
        for j in row:
            indeg[j] += 1
    heap = [(key[i], i) for i, d in enumerate(indeg) if not d]
    heapify(heap)
    out = []
    while heap:
        i = heappop(heap)[1]
        out.append(i)
        for j in succs[i]:
            indeg[j] -= 1
            if not indeg[j]:
                heappush(heap, (key[j], j))
    return out


def grid_poset(n: int, order_kind: str = "product") -> Poset:
    """Square grid ``{(i, j) : 1 <= i, j <= n}`` under one of two orders.

    ``"product"``: (i1,j1) <= (i2,j2) iff i1 <= i2 and j1 <= j2.
    ``"rows"``: elements are comparable only within a row (equal j),
    ordered by i, so the poset is n disjoint n-chains.
    """
    return _grid_poset(n, n, order_kind)


def _grid_poset(nx: int, ny: int, order_kind: str) -> Poset:
    """The ``nx x ny`` grid ``{(i, j)}`` under the orders of :func:`grid_poset`."""
    if not (_is_int(nx) and _is_int(ny)):
        raise InvalidGrid(f"grid size must be an integer, got {nx!r} x {ny!r}")
    if nx < 1 or ny < 1:
        raise InvalidGrid("grid size must be at least 1")
    if order_kind not in ("product", "rows"):
        raise InvalidGrid(f"unknown order kind {order_kind!r}")
    return Poset(
        _GridLabels(nx, ny),
        _GridCovers(nx, ny, order_kind),
        _GridSets(nx, ny, order_kind, "down"),
        _GridSets(nx, ny, order_kind, "up"),
    )


def _query_below(downs: Sequence[int], idxs: Sequence[int]) -> list:
    """Per entry p of ``idxs``, the bitmask of entries strictly below it in
    the order whose down-sets are ``downs`` (a poset's ``down``, or its
    ``up`` for the reversed order).

    Each down-set is written out as a binary string, most significant bit
    first, and the characters of the entries are gathered last entry first
    in one C-level step, so the string read back as an integer has bit q
    set iff entry q lies below; the entry's own bit is then cleared.
    """
    if not idxs:
        return []
    n = len(downs)
    spec = f"0{n}b"
    pick = itemgetter(*[n - 1 - i for i in reversed(idxs)])
    return [
        int("".join(pick(format(downs[i], spec))), 2) & ~(1 << q)
        for q, i in enumerate(idxs)
    ]


def _query_covers(downs: Sequence[int], idxs: Sequence[int]):
    """The cover relation induced on ``idxs`` by the order whose down-sets
    are ``downs``.

    Returns, per entry p, the bitmask of the entries p covers and the list
    of the entries covering p.  The strict down-sets are taken in a
    topological order (by down-set size), where the highest bit of a set
    is one of its maximal elements; each cover costs one peeling step.
    """
    topo = sorted(range(len(idxs)), key=lambda p: downs[idxs[p]].bit_count())
    below = _query_below(downs, [idxs[p] for p in topo])
    lower = [0] * len(idxs)
    upper = [[] for _ in idxs]
    for a, m in enumerate(below):
        p = topo[a]
        while m:
            b = m.bit_length() - 1
            m &= ~(below[b] | 1 << b)
            q = topo[b]
            lower[p] |= 1 << q
            upper[q].append(p)
    return lower, upper


def _cover_succs(n: int, pairs) -> list:
    """Per element of ``0..n-1``, the elements above it along ``pairs``."""
    succs = [[] for _ in range(n)]
    for i, j in pairs:
        succs[i].append(j)
    return succs
