"""Value scales and monotone bijections onto them.

Scale entries are held as exact rationals; float inputs are converted to
their exact binary value, so sums and comparisons in the discrete solvers
carry no rounding at all.  A scale whose values share a denominator (the
scales derived from a map) holds only the integer numerators, and builds
the rational of a position when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from math import gcd, lcm
from operator import eq, index, lt
from typing import Iterable, Iterator, Sequence, Union

from .errors import NotIncreasing, ValidationError
from .poset import Poset

Rational = Union[int, float, Fraction]


def _is_int(v) -> bool:
    """True for a Python int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def to_fraction(v: Rational) -> Fraction:
    """A scale value as a Fraction.  A bool is refused, as :func:`_rank`
    refuses it: ``True`` is not the value 1."""
    if isinstance(v, Fraction):
        return v
    if _is_int(v):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v)  # exact binary expansion of the double
    raise ValidationError(f"cannot interpret {v!r} as a scale value")


def _integer_ratios(values) -> tuple:
    """``(nums, den)`` with ``values[k] == nums[k] / den`` exactly: the
    values (ints, floats or Fractions) brought to the least common multiple
    of their denominators.  The values of a :class:`_Ratios` sequence are
    already over one denominator and are returned as they are held."""
    if isinstance(values, _Ratios):
        return values.nums, values.den
    nums = [v.as_integer_ratio() for v in values]
    den = lcm(*{d for _, d in nums})
    # In place, so that each pair is freed as its numerator replaces it.
    for k, (n, d) in enumerate(nums):
        nums[k] = n * (den // d)
    return nums, den


class _Ratios:
    """The rationals ``nums[k] / den`` as a read-only sequence that holds
    only the integers and builds the :class:`Fraction` of a position when
    it is read.

    Sequences with equal ``nums`` and ``den`` compare equal without
    building a value; any other comparison runs value by value.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: Sequence[int], den: int):
        self.nums = nums
        self.den = den

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(Fraction, self.nums[k], repeat(self.den)))
        return Fraction(self.nums[k], self.den)

    def __iter__(self) -> Iterator[Fraction]:
        return map(Fraction, self.nums, repeat(self.den))

    def __reversed__(self) -> Iterator[Fraction]:
        return map(Fraction, reversed(self.nums), repeat(self.den))

    def __eq__(self, other) -> bool:
        same_den = isinstance(other, _Ratios) and other.den == self.den
        if same_den and other.nums == self.nums:
            return True
        if not isinstance(other, (_Ratios, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def ratios(self) -> Iterator[tuple]:
        den = self.den
        for num in self.nums:
            g = gcd(num, den)
            yield num // g, den // g


def _check_increasing(values: Sequence, keys: Sequence) -> None:
    """Raise unless ``keys``, which order like ``values``, strictly
    increase; the error names the first offending pair of values."""
    if not values:
        raise ValidationError("scale must be nonempty")
    if not all(map(lt, keys, islice(keys, 1, None))):
        k = next(k for k in range(len(keys) - 1) if keys[k] >= keys[k + 1])
        raise NotIncreasing(
            f"scale values not strictly increasing: {values[k]} >= {values[k + 1]}"
        )


class ValueScale:
    """Strictly increasing finite sequence of exact rational values.

    ``ValueScale(values)`` holds one :class:`Fraction` per value.
    :meth:`over` holds integer numerators over one denominator instead.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[Rational]):
        vals = tuple(to_fraction(v) for v in values)
        _check_increasing(vals, vals)
        self.values = vals

    @classmethod
    def over(cls, numerators: Sequence[int], denominator: int) -> "ValueScale":
        """The scale ``numerators[k] / denominator``, k = 0, 1, ....

        Only the integers are held: a ``range`` stays a ``range``, any
        other numerators become a tuple of Python ints, so sums of them
        never wrap.  A bool or a non-integer is refused.  Strict increase
        is checked on the integers.
        """
        if not (_is_int(denominator) and denominator > 0):
            raise ValidationError(
                f"denominator must be a positive integer, got {denominator!r}"
            )
        if not isinstance(numerators, range):
            numerators = tuple(numerators)
            # Exact ints, the integer form of a float scale, need no
            # per-entry conversion.
            if not set(map(type, numerators)) <= {int}:
                numerators = tuple(_integer(v, "numerator") for v in numerators)
        vals = _Ratios(numerators, denominator)
        _check_increasing(vals, numerators)
        scale = cls.__new__(cls)
        scale.values = vals
        return scale

    def __len__(self) -> int:
        return len(self.values)

    def value(self, rank: int) -> Fraction:
        """The rank-th smallest value, rank in 1..N."""
        if not 1 <= rank <= len(self.values):
            raise ValidationError(f"rank {rank} outside 1..{len(self.values)}")
        return self.values[rank - 1]

    def ratios(self) -> Iterator[tuple]:
        """Each value's ``(numerator, denominator)`` in lowest terms, in
        increasing order of the values."""
        if isinstance(self.values, _Ratios):
            return self.values.ratios()
        return ((v.numerator, v.denominator) for v in self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ValueScale):
            return NotImplemented
        return self.values == other.values

    def __repr__(self) -> str:
        return f"ValueScale({[str(v) for v in self.values]})"


def _integer(v, what: str) -> int:
    """``v`` as an int.  Any integer but a bool is taken (``True`` is not
    1); anything else, ``1.5`` or ``"2"`` included, is a
    :class:`ValidationError` naming ``what``, never truncated."""
    if not isinstance(v, bool):
        try:
            return index(v)
        except TypeError:
            pass
    raise ValidationError(f"{what} {v!r} is not an integer")


def _rank(r) -> int:
    """A rank as an int, by :func:`_integer`."""
    return _integer(r, "rank")


def _is_permutation(ranks, n: int) -> bool:
    """True iff the ints ``ranks`` are 1..n in some order: n ranks that
    cover 1..n are distinct."""
    return len(ranks) == n and set(ranks).issuperset(range(1, n + 1))


class MonotoneBijection:
    """Bijective assignment of scale values to poset elements.

    Stored as element -> rank with ranks a permutation of 1..N; the value
    of an element is the rank-th scale entry.  The constructor enforces
    bijectivity only; order preservation is the checker's concern.
    """

    __slots__ = ("poset", "scale", "ranks")

    def __init__(self, poset: Poset, scale: ValueScale, ranks):
        if len(scale) != poset.n:
            raise ValidationError(
                f"scale has {len(scale)} values for {poset.n} elements"
            )
        if isinstance(ranks, dict):
            seq = [0] * poset.n
            if len(ranks) != poset.n:
                raise ValidationError("rank map does not cover the ground set")
            for lab, r in ranks.items():
                seq[poset.index(lab)] = _rank(r)
        else:
            seq = tuple(ranks)
            # Exact ints, the solver's ranks, need no per-rank conversion.
            if not set(map(type, seq)) <= {int}:
                seq = tuple(map(_rank, seq))
            if len(seq) != poset.n:
                raise ValidationError("rank sequence has wrong length")
        if not _is_permutation(seq, poset.n):
            raise ValidationError("ranks are not a bijection onto 1..N")
        self.poset = poset
        self.scale = scale
        self.ranks = tuple(seq)

    def rank(self, label) -> int:
        return self.ranks[self.poset.index(label)]

    def value(self, label) -> Fraction:
        return self.scale.value(self.rank(label))

    def items(self) -> Iterator[tuple]:
        for lab, r in zip(self.poset.labels, self.ranks):
            yield lab, self.scale.value(r)

    def as_rank_dict(self) -> dict:
        return dict(zip(self.poset.labels, self.ranks))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonotoneBijection):
            return NotImplemented
        return (
            self.poset == other.poset
            and self.scale == other.scale
            and self.ranks == other.ranks
        )

    def __repr__(self) -> str:
        return f"MonotoneBijection({self.as_rank_dict()!r})"


@dataclass(frozen=True)
class BoundResult:
    """An extremal value together with the ordering and function attaining it.

    ``witness_perm`` holds 0-based positions into the query set, listed in
    increasing order of the witness value; ``per_node_values`` are the
    witness values along that ordering (strictly increasing).
    """

    objective: Fraction
    witness_perm: tuple
    witness_fn: MonotoneBijection
    per_node_values: tuple
