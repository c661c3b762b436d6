"""The grid ``{(i, j) : 1 <= i <= nx, 1 <= j <= ny}`` as read-only views
computed from (i, j) arithmetic.

Element e of the grid is ``i * ny + j`` (0-based i, j).  Its label, its
cover pairs, the index of a label and its down-set and up-set bitmasks are
all computed from that arithmetic when read, so a grid poset holds no
per-element object (:func:`monoext.poset.grid_poset` puts these views
together).  The sets also give a witness its key and its linear
extension as array arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import product
from operator import eq

import numpy as np


@Sequence.register
class _GridSequence:
    """A read-only sequence over the ``nx x ny`` grid that computes each
    entry when it is read.  Subclasses set ``key``, which names the grid,
    and compute entry e, for e in ``0..len - 1``, in ``_at``.

    Views of the same class and key compare equal without computing an
    entry; any other comparison, tuples included, runs entry by entry.
    The class is registered as a :class:`~collections.abc.Sequence` (so
    ``random.sample`` takes the labels) rather than derived from it, which
    keeps ``isinstance`` checks against it as cheap as for a plain class.
    """

    __slots__ = ("key",)

    def __getitem__(self, e):
        if isinstance(e, slice):
            return tuple(map(self._at, range(len(self))[e]))
        return self._at(range(len(self))[e])

    def __iter__(self) -> Iterator:
        return map(self._at, range(len(self)))

    def __eq__(self, other) -> bool:
        if type(other) is type(self) and other.key == self.key:
            return True
        if not isinstance(other, (_GridSequence, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class _GridLabels(_GridSequence):
    """The labels ``(i, j)``, 1-based, in canonical order: ``i`` major."""

    __slots__ = ()

    def __init__(self, nx: int, ny: int):
        self.key = (nx, ny)

    def __len__(self) -> int:
        return self.key[0] * self.key[1]

    def _at(self, e: int) -> tuple:
        i, j = divmod(e, self.key[1])
        return (i + 1, j + 1)

    def __iter__(self) -> Iterator[tuple]:
        nx, ny = self.key
        return product(range(1, nx + 1), range(1, ny + 1))


class _GridIndex:
    """The label -> index lookup of the ``nx x ny`` grid, as arithmetic:
    ``(i, j)`` is element ``(i - 1) * ny + (j - 1)``.

    It accepts the labels a dict from label to index would: those equal to
    an element and hashing alike, such as ``(1.0, 2)`` or ``(True, 2)`` for
    ``(1, 2)``.  Any other raises KeyError, or TypeError if unhashable.
    """

    __slots__ = ("nx", "ny")

    def __init__(self, nx: int, ny: int):
        self.nx, self.ny = nx, ny

    def __getitem__(self, label) -> int:
        h = hash(label)
        try:
            i, j = label if isinstance(label, tuple) else ()
            element = (int(i.real), int(j.real))
        except (AttributeError, TypeError, ValueError, OverflowError):
            raise KeyError(label) from None
        i, j = element
        if not (1 <= i <= self.nx and 1 <= j <= self.ny and hash(element) == h
                and element == label):
            raise KeyError(label)
        return (i - 1) * self.ny + (j - 1)


class _GridCovers(_GridSequence):
    """The cover pairs ``(e, f)`` in the order that
    :func:`~monoext.poset.build_poset` stores them in, given the labels:
    per element, the next i (``f = e + ny``), then, under the product
    order, the next j (``f = e + 1``)."""

    __slots__ = ()

    def __init__(self, nx: int, ny: int, order_kind: str):
        self.key = (nx, ny, order_kind)

    def __len__(self) -> int:
        nx, ny, order_kind = self.key
        nexts_i = (nx - 1) * ny
        return nexts_i if order_kind == "rows" else nexts_i + nx * (ny - 1)

    def _at(self, c: int) -> tuple:
        nx, ny, order_kind = self.key
        if order_kind == "rows":
            return (c, c + ny)
        # Each row but the last has 2 ny - 1 covers: both of every element
        # but its last, which has only the next i; the last row has the
        # ny - 1 next j.
        i, r = divmod(c, 2 * ny - 1)
        if i == nx - 1:
            e = i * ny + r
            return (e, e + 1)
        e = i * ny + r // 2
        return (e, e + (1 if r % 2 else ny))


class _GridSets(_GridSequence):
    """The down-sets (``direction`` "down") or up-sets ("up") of the grid,
    as bitmasks, each computed the first time it is read and cached.

    Element e lies at bit e.  Its set is a rectangle: rows 0..i (down) or
    i..nx-1 (up), and in each of them the columns lo..hi-1, which are 0..j
    or j..ny-1 under the product order and j alone under the rows order.
    With ``rows`` the mask of the first bit of each row taken, the set is
    ``rows * (2**hi - 2**lo)``.
    """

    __slots__ = ("_rows", "_cache")

    def __init__(self, nx: int, ny: int, order_kind: str, direction: str):
        self.key = (nx, ny, order_kind, direction)
        self._rows = int(("0" * (ny - 1) + "1") * nx, 2)  # bit i * ny, every i
        self._cache = {}

    def __len__(self) -> int:
        return self.key[0] * self.key[1]

    def _at(self, e: int) -> int:
        mask = self._cache.get(e)
        if mask is None:
            nx, ny, order_kind, direction = self.key
            i, j = divmod(e, ny)
            whole = order_kind == "product"  # all columns on one side of j
            if direction == "down":
                rows = self._rows & (1 << (i + 1) * ny) - 1
                lo, hi = (0 if whole else j), j + 1
            else:
                rows = self._rows >> i * ny << i * ny
                lo, hi = j, (ny if whole else j + 1)
            mask = self._cache[e] = (rows << hi) - (rows << lo)
        return mask

    def first_holder(self, elements) -> np.ndarray:
        """Per element e, the position in ``elements`` (distinct elements)
        of the first whose set holds e, or ``len(elements)`` if none does.

        The sets holding e are those of the elements above it (down-sets)
        or below it (up-sets), which form a rectangle, so the answer is a
        running minimum of the positions, placed at their grid cells:
        along both axes under the product order and along the rows only
        under the rows order, from the far corner for down-sets and from
        the origin for up-sets.  It runs in place, on the grid turned half
        round for down-sets.
        """
        nx, ny, order_kind, direction = self.key
        key = np.full(nx * ny, len(elements))
        key[np.asarray(elements, dtype=np.intp)] = np.arange(len(elements))
        cells = key.reshape(nx, ny)
        if direction == "down":
            cells = cells[::-1, ::-1]
        np.minimum.accumulate(cells, axis=0, out=cells)
        if order_kind == "product":
            np.minimum.accumulate(cells, axis=1, out=cells)
        return key

    def extension(self, key) -> np.ndarray:
        """The elements in the order of the least linear extension under
        ``(key[e], e)`` of the order read from these sets: the grid's order
        from the bottom (down-sets) or its reversal from the top (up-sets),
        ``key`` being a :meth:`first_holder` of these sets.

        From the bottom, (key, index) is itself an extension: the stable
        sort of the key.  From the top, the placed set is up-closed, and
        the heap would take the available element of least row:
        - product order: the lowest placed row does not increase with the
          column, so that element is in the rightmost column the block has
          left, which the heap walks down: the order is (key, -column,
          -row);
        - rows order: a block meets each column in a run of rows, which the
          heap walks down one at a time, the run of lowest top row first,
          then of lowest column: (key, top row of the run, column, -row).
        """
        nx, ny, order_kind, direction = self.key
        if direction == "down":
            return np.argsort(key, kind="stable")
        if order_kind == "product":
            # Column ny - 1 first, top row first.
            columns = np.arange(nx * ny).reshape(nx, ny)[::-1, ::-1].T.ravel()
            return columns[np.argsort(key[columns], kind="stable")]
        # The key does not decrease down a column, so each block meets it
        # in one run of rows.  The top row of an element's run is the first
        # row, from the element's up, whose next row holds another key or
        # is off the grid.
        row, column = np.divmod(np.arange(nx * ny), ny)
        changes = np.diff(key.reshape(nx, ny), axis=0, append=-1) != 0
        tops = np.where(changes, row.reshape(nx, ny), nx)
        top = np.minimum.accumulate(tops[::-1], axis=0)[::-1]
        return np.lexsort((-row, column, top.ravel(), key))
