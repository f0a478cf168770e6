"""Ground-set, subset, and set-interval-lattice primitives.

Elements carry 1-based ids 1..n everywhere in the public API and in text
formats; bit k-1 of the internal mask represents element k.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import CapacityMismatch, CapExceeded

DEFAULT_ENUMERATION_CAP = 25


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the 1-based element ids set in ``mask``, ascending."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length()
        mask ^= lsb


@dataclass(frozen=True, slots=True)
class GroundSet:
    """The ground set {1, ..., n}."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"ground set needs n >= 1, got {self.n}")

    def elements(self) -> range:
        return range(1, self.n + 1)

    def empty(self) -> "SubsetBits":
        return SubsetBits(self.n, 0)

    def full(self) -> "SubsetBits":
        return SubsetBits(self.n, (1 << self.n) - 1)


@dataclass(frozen=True, slots=True)
class SubsetBits:
    """An immutable subset of {1..capacity} stored as a bit mask."""

    capacity: int
    mask: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if not 0 <= self.mask < (1 << self.capacity):
            raise ValueError("mask has bits outside capacity")

    @classmethod
    def empty(cls, capacity: int) -> "SubsetBits":
        return cls(capacity, 0)

    @classmethod
    def full(cls, capacity: int) -> "SubsetBits":
        return cls(capacity, (1 << capacity) - 1)

    @classmethod
    def from_members(cls, capacity: int, members: Iterable[int]) -> "SubsetBits":
        mask = 0
        for i in members:
            mask |= 1 << (_check_element(capacity, i) - 1)
        return cls(capacity, mask)

    @classmethod
    def from_ids(cls, capacity: int, ids) -> "SubsetBits":
        """``from_members`` for an int array of ids: one membership mask, packed once."""
        ids = np.asarray(ids, dtype=np.int64)
        if not ids.size:
            return cls(capacity, 0)
        bad = (ids < 1) | (ids > capacity)
        if bad.any():
            raise _out_of_range(capacity, int(ids[bad.argmax()]))
        members = np.zeros(capacity, dtype=bool)
        members[ids - 1] = True
        return cls.from_bool_array(members)

    # -- element ops ------------------------------------------------------

    def add(self, i: int) -> "SubsetBits":
        i = _check_element(self.capacity, i)
        return SubsetBits(self.capacity, self.mask | (1 << (i - 1)))

    def remove(self, i: int) -> "SubsetBits":
        i = _check_element(self.capacity, i)
        return SubsetBits(self.capacity, self.mask & ~(1 << (i - 1)))

    def contains(self, i: int) -> bool:
        i = _check_element(self.capacity, i)
        return bool((self.mask >> (i - 1)) & 1)

    def __contains__(self, i: int) -> bool:
        return self.contains(i)

    # -- set ops ----------------------------------------------------------

    def union(self, other: "SubsetBits") -> "SubsetBits":
        _check_same_capacity(self, other)
        return SubsetBits(self.capacity, self.mask | other.mask)

    def intersection(self, other: "SubsetBits") -> "SubsetBits":
        _check_same_capacity(self, other)
        return SubsetBits(self.capacity, self.mask & other.mask)

    def difference(self, other: "SubsetBits") -> "SubsetBits":
        _check_same_capacity(self, other)
        return SubsetBits(self.capacity, self.mask & ~other.mask)

    def is_subset(self, other: "SubsetBits") -> bool:
        _check_same_capacity(self, other)
        return (self.mask & ~other.mask) == 0

    def complement(self) -> "SubsetBits":
        return SubsetBits(self.capacity, ~self.mask & ((1 << self.capacity) - 1))

    def cardinality(self) -> int:
        return self.mask.bit_count()

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def members(self) -> list[int]:
        return list(iter_bits(self.mask))

    def to_bool_array(self) -> np.ndarray:
        """Membership indicator as a numpy bool array of length capacity."""
        nbytes = (self.capacity + 7) // 8
        raw = np.frombuffer(self.mask.to_bytes(nbytes, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=self.capacity, bitorder="little").view(bool)

    @classmethod
    def from_bool_array(cls, arr: np.ndarray) -> "SubsetBits":
        packed = np.packbits(np.asarray(arr, dtype=bool), bitorder="little")
        return cls(len(arr), int.from_bytes(packed.tobytes(), "little"))

    def __str__(self) -> str:
        return format_set(self)

    def __repr__(self) -> str:
        return f"SubsetBits({self.capacity}, {format_set(self)})"


def format_set(x: SubsetBits) -> str:
    """Render as the text literal used by the CLI and reports: ``{1,3,7}``."""
    return "{" + ",".join(str(i) for i in x) + "}"


def parse_set(text: str, capacity: int) -> SubsetBits:
    """Parse a set literal such as ``{1,3,7}`` or ``{}``."""
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"not a set literal: {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return SubsetBits.empty(capacity)
    try:
        ids = [int(tok) for tok in inner.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad set literal {text!r}") from exc
    return SubsetBits.from_members(capacity, ids)


@dataclass(frozen=True, slots=True)
class IntervalLattice:
    """The interval [lower, upper] = all sets U with lower <= U <= upper."""

    lower: SubsetBits
    upper: SubsetBits

    def __post_init__(self) -> None:
        _check_same_capacity(self.lower, self.upper)

    @property
    def capacity(self) -> int:
        return self.lower.capacity

    def is_empty(self) -> bool:
        return not self.lower.is_subset(self.upper)

    def is_point(self) -> bool:
        return self.lower == self.upper

    def contains(self, x: SubsetBits) -> bool:
        _check_same_capacity(self.lower, x)
        return self.lower.is_subset(x) and x.is_subset(self.upper)

    def free_mask(self) -> int:
        return self.upper.mask & ~self.lower.mask

    def free_elements(self) -> list[int]:
        return list(iter_bits(self.free_mask()))

    def member(self, index: int) -> SubsetBits:
        """The member whose free elements, taken ascending, are picked by the bits of ``index``.

        Bit j of ``index`` sets the (j+1)-th smallest free element, so member 0 is
        ``lower`` and member 2**free_count - 1 is ``upper``; members come in
        ascending mask order as ``index`` ascends.
        """
        free = self.free_mask()
        if not 0 <= index < 1 << free.bit_count():
            raise ValueError(f"member index {index} out of range for {free.bit_count()} free elements")
        mask = self.lower.mask
        while index:
            low = free & -free
            if index & 1:
                mask |= low
            free ^= low
            index >>= 1
        return SubsetBits(self.capacity, mask)

    def member_rows(self, indices: np.ndarray) -> np.ndarray:
        """``member`` of each index as one membership row: a (len(indices), capacity) bool matrix.

        The same rule on an index array: row r is
        ``member(indices[r]).to_bool_array()``, so bit j of an index sets the
        (j+1)-th smallest free element. Indices are int64, below 2**63.
        """
        indices = np.asarray(indices, dtype=np.int64)
        lower = self.lower.to_bool_array()
        free = np.flatnonzero(self.upper.to_bool_array() & ~lower)
        bad = (indices < 0) | (indices >> len(free) != 0)
        if bad.any():
            raise ValueError(f"member index {indices[bad.argmax()]} out of range for {len(free)} free elements")
        rows = np.repeat(lower[None, :], len(indices), axis=0)
        for j, element in enumerate(free):
            rows[:, element] = (indices >> j) & 1
        return rows

    def __repr__(self) -> str:
        return f"IntervalLattice({format_set(self.lower)}, {format_set(self.upper)})"


def lattice_free_count(lattice: IntervalLattice) -> int:
    """Number of elements left undecided by the lattice; its size is 2**count."""
    if lattice.is_empty():
        raise ValueError("empty lattice has no free count")
    return lattice.free_mask().bit_count()


def enumerate_lattice(
    lattice: IntervalLattice, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[SubsetBits]:
    """An iterator over every member of the lattice, each once, 2**free_count in total.

    Members come in ascending mask order, the order of ``lattice.member(i)``
    for i = 0, 1, ...: the walk visits the submasks of the free mask upward.
    Over ``cap`` free elements it raises CapExceeded at the call, not at the first ``next``.
    """
    free = lattice_free_count(lattice)
    if free > cap:
        raise CapExceeded(f"lattice has {free} free elements, cap is {cap}")
    return _submask_walk(lattice.capacity, lattice.lower.mask, lattice.free_mask())


def _submask_walk(n: int, base: int, free_mask: int) -> Iterator[SubsetBits]:
    sub = 0
    while True:
        yield SubsetBits(n, base | sub)
        sub = (sub - free_mask) & free_mask
        if sub == 0:
            return


def _check_element(capacity: int, i: int) -> int:
    """``i`` as a Python int in 1..capacity: a numpy int would overflow ``1 << (i - 1)`` past bit 63."""
    i = operator.index(i)
    if not 1 <= i <= capacity:
        raise _out_of_range(capacity, i)
    return i


def _out_of_range(capacity: int, i: int) -> ValueError:
    return ValueError(f"element id {i} out of range 1..{capacity}")


def _check_same_capacity(x: SubsetBits, y: SubsetBits) -> None:
    if x.capacity != y.capacity:
        raise CapacityMismatch(f"capacities differ: {x.capacity} vs {y.capacity}")
