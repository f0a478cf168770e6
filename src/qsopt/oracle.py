"""Value-oracle contract for set functions, marginal gains, and call accounting.

An oracle is a value formula, its scalar row, and ``cursor``. The value
formula, ``value_rows``, takes a (k, n) boolean membership matrix, row r the
indicator of one set, and returns the k values; given one bare (n,) row it
returns that row's value, and ``value(x)`` is the formula at x's row. A
formula works along each row's contiguous last axis, elementwise or by a
per-row reduction (a numpy sum, or ``np.vecdot``, one dot product per row),
never by a matrix product, whose blocking would make a row's bits depend on
its position in the block. So a row has the same bits at any block height
and as a bare row: a scalar and a batch agree by construction, as a family
cursor's scalar marginal is its batch at the bare id. ``lattice_values``
asks the formula for a lattice's members in row blocks of at most
``BLOCK_CELLS`` membership cells, and ``eval_table`` for the full cube the
same way. An oracle with no formula (``value_rows`` None or absent: a
restricted oracle, a plain test oracle, a timing proxy around ``value``) has
only the scalar ``value``, and those two fall back to one ``value`` call per
member.

A cursor is an incremental view anchored at a working set: it answers
add/drop marginal queries against that set and moves, one element or one
batch at a time, which is what the reduction algorithms need to stay cheap
at n in the thousands. Each benchmark family supplies its own cursor through
a cursor factory; without one, the generic ``Cursor`` answers from value
differences.
A cursor holds no value of its own: callers take F(X) from ``value``, so a
cursor keeps only what its marginals need.

The base ``Cursor`` owns the anchored set. Its ``add``/``remove`` move one
element: each updates the set and then calls one hook, ``_moved(e, added)``,
where a subclass brings whatever it keeps along (the generic cursor
re-evaluates F; a family cursor with no statistics does nothing).
``move(added, removed)`` takes two arrays of 1-based ids and moves the
anchor to (X + added) - removed. The base ``move`` is a loop over ``add``
then ``remove``, so the generic cursor still evaluates once per element and
a wrapper that overrides only ``add``/``remove`` sees every element of a
batch. A family cursor overrides ``move``: it builds and checks the new set
once (``moved_set``) and calls one batch hook, ``_moved_batch``, which by
default runs ``_moved`` per id in order. The reductions move once per
phase; the sequential baselines, which move one element between queries,
keep ``add``/``remove``. A move that would not change the set (an add of a
member, a remove of a non-member) raises ValueError; a batch with no ids
moves nothing. ``members()`` reads the set back, so an algorithm keeps no
copy of its working set beside its cursor.

Queries come in two shapes. ``add_marginal(u)``/``drop_marginal(d)`` answer one
element; ``add_marginals(ids)``/``drop_marginals(ids)`` answer a whole array of
1-based ids against the same anchored set and return a float ndarray. The
reductions and local search judge every candidate against one frozen set per
sweep, so they ask in batches; double greedy moves after every query, so it
asks one element at a time. Either way ``CountingOracle`` books one marginal
call per element queried: a batch of k counts as k.

``gains()`` answers every element at once: the signed flip-gain vector, whose
entry for element i (at index i - 1) is F(i | X) when i is outside the
anchored set X and -F(i | X - i) when it is inside, the change in value from
flipping i. The base cursor builds it from the two batches, and
``CountingOracle`` books n marginal calls per read. The facility and
determinant cursors keep the vector up to date under single moves instead of
answering n marginals again, which is what single-flip local search needs.

Epoch cursors (the half_products, facility and determinant families) keep
statistics over the members and bring them up to date at the next query
after a move, by one rule: exactly one move since the last query, between
two nonempty sets, is applied as an exact in-place update; the first query,
two or more moves, and one move into or out of the empty set take a full
refactor. A batch counts as many moves as it has ids. So a baseline that
moves once between queries pays one update per move, and a sweep that fixes
many elements pays one refactor.
Half_products' update is its refactor, one O(n) prefix sum.

A NaN marginal fails every strict sign test, so an algorithm would take it
for a fixed point. The one rule against it is here, not in the algorithms:
the counting cursor checks every answer it forwards, and the generic cursor
its two scalar queries, which its batches and ``gains()`` loop over. The
InternalInvariantError, ``marginal of element 2 is NaN (drop at {1,2})``,
names a query that ``F.cursor({1,2})`` replays.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import InternalInvariantError
from .sets import (
    DEFAULT_ENUMERATION_CAP,
    GroundSet,
    IntervalLattice,
    SubsetBits,
    enumerate_lattice,
    format_set,
    iter_bits,
    lattice_free_count,
)

EvalFn = Callable[[SubsetBits], float]
#: A value formula: F of each row of a (k, n) boolean membership matrix, as k
#: floats, or F of one bare (n,) row.
RowsFn = Callable[[np.ndarray], np.ndarray]
MarginalFn = Callable[[int, SubsetBits], float]

#: The side of a batch move that moves nothing: an empty id array.
NO_IDS = np.empty(0, dtype=np.int64)
NO_IDS.flags.writeable = False

#: Relative tolerance for comparing two computations of the same quantity,
#: with an absolute floor for values near zero.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def values_close(a: float, b: float, rel: float = REL_TOL, abs_floor: float = ABS_TOL) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_floor)


def _nan_marginal(e: int, at: SubsetBits) -> InternalInvariantError:
    """A NaN marginal of e at ``at``: an add query if e is outside, a drop if inside."""
    query = "drop" if at.contains(e) else "add"
    return InternalInvariantError(f"marginal of element {e} is NaN ({query} at {format_set(at)})")


def _not_moved(e: int, added: bool, at: SubsetBits) -> ValueError:
    """A move of e that would leave ``at`` as it is: an add of a member or a remove of a non-member."""
    where = "already in" if added else "not in"
    return ValueError(f"cannot {'add' if added else 'remove'} element {e}: it is {where} {format_set(at)}")


def moved_set(x: SubsetBits, added: np.ndarray, removed: np.ndarray) -> SubsetBits:
    """(x + added) - removed from one mask per side, checked as ``Cursor.move`` checks it id by id.

    Raises ValueError for an id outside 1..n, an added id already in x, a
    removed id in neither x nor ``added``, and an id named twice on one side.
    """
    grow = SubsetBits.from_ids(x.capacity, added)
    shrink = SubsetBits.from_ids(x.capacity, removed)
    if grow.cardinality() != len(added) or shrink.cardinality() != len(removed):
        raise ValueError("a move names an element twice on one side")
    if x.mask & grow.mask:
        raise _not_moved(next(iter_bits(x.mask & grow.mask)), True, x)
    grown = x.mask | grow.mask
    if shrink.mask & ~grown:
        raise _not_moved(next(iter_bits(shrink.mask & ~grown)), False, SubsetBits(x.capacity, grown))
    return SubsetBits(x.capacity, grown & ~shrink.mask)


class Cursor:
    """Incremental view of F anchored at a working set: marginals and moves.

    A cursor answers marginal queries and moves; it does not report F(X),
    which callers take from the oracle's ``value``, so it keeps only the state
    its marginals need. The base class owns the anchored set: ``add`` and
    ``remove`` update it and then call ``_moved(e, added)``, the hook a
    subclass overrides to bring its own state along, and the base ``move``
    of a batch is a loop over ``add`` then ``remove``. A wrapper that
    forwards to an inner cursor overrides the moves themselves, and one that
    overrides only ``add``/``remove`` still takes every batch through them;
    a family cursor overrides ``move`` to build the new set once and call
    one batch hook. The default implementation answers every query with
    fresh evaluations, keeping F at its anchor to take differences against,
    and its hook re-evaluates F at the new anchor; benchmark families
    install replacements with cheap hooks and vectorized batches. An epoch
    cursor defers the work of its moves to the next query: one pending move
    is an in-place update, more than one a refactor, and the answers agree
    either way. The base batch
    queries loop over the scalar ones, so a wrapper that overrides only
    ``add_marginal``/``drop_marginal`` (a timing proxy around a family
    cursor, say) still sees every query of a batch, one at a time, and needs
    no ``_oracle`` of its own. The family cursors go the other way: each has
    one formula per marginal, written for an id or an id array alike, and a
    scalar query is that batch formula at the bare id. The default
    scalar queries check for NaN; a family cursor's answers are checked by
    the counting cursor that wraps it.

    ``gains()`` is the signed flip-gain vector over all n elements: the add
    marginal of each element outside the anchored set and minus the drop
    marginal of each element inside it. The base method asks the two batches
    (drops first); a cursor that overrides it must return the same numbers
    within the tolerance of its marginals.
    """

    def __init__(self, oracle: "SetFunctionOracle", start: SubsetBits):
        self._oracle = oracle
        self._current = start
        self._value = oracle.value(start)

    def members(self) -> SubsetBits:
        return self._current

    def add_marginal(self, u: int) -> float:
        """F(u | X) for u outside the anchored set X."""
        gain = self._oracle.value(self._current.add(u)) - self._value
        if gain != gain:  # NaN, the one value unequal to itself
            raise _nan_marginal(u, self._current)
        return gain

    def drop_marginal(self, d: int) -> float:
        """F(d | X - d) = F(X) - F(X - d) for d inside the anchored set X."""
        gain = self._value - self._oracle.value(self._current.remove(d))
        if gain != gain:
            raise _nan_marginal(d, self._current)
        return gain

    def add_marginals(self, ids: np.ndarray) -> np.ndarray:
        """``add_marginal`` of each id in ``ids``, all outside the anchored set."""
        return np.array([self.add_marginal(int(u)) for u in ids], dtype=float)

    def drop_marginals(self, ids: np.ndarray) -> np.ndarray:
        """``drop_marginal`` of each id in ``ids``, all inside the anchored set."""
        return np.array([self.drop_marginal(int(d)) for d in ids], dtype=float)

    def gains(self) -> np.ndarray:
        """Flip gain of every element 1..n at index id - 1: F(i | X) or -F(i | X - i)."""
        members = self.members().to_bool_array()
        inside = np.flatnonzero(members)
        outside = np.flatnonzero(~members)
        out = np.empty(len(members))
        out[inside] = -self.drop_marginals(inside + 1)
        out[outside] = self.add_marginals(outside + 1)
        return out

    def move(self, added: np.ndarray, removed: np.ndarray) -> None:
        """Move the anchor to (X + added) - removed: each id of ``added`` in, then each of ``removed`` out.

        The base loops over ``add`` and ``remove``, so a wrapper that
        overrides only those sees every element of a batch, one at a time.
        """
        for u in np.asarray(added).tolist():
            self.add(u)
        for d in np.asarray(removed).tolist():
            self.remove(d)

    def add(self, u: int) -> None:
        """Move the anchor to X + u, for u outside X."""
        moved = self._current.add(u)
        if moved.mask == self._current.mask:
            raise _not_moved(u, True, self._current)
        self._current = moved
        self._moved(u, True)

    def remove(self, d: int) -> None:
        """Move the anchor to X - d, for d inside X."""
        moved = self._current.remove(d)
        if moved.mask == self._current.mask:
            raise _not_moved(d, False, self._current)
        self._current = moved
        self._moved(d, False)

    def _moved(self, e: int, added: bool) -> None:
        """Bring the cursor's own state to the new anchor after element e moved in or out."""
        self._value = self._oracle.value(self._current)


class SetFunctionOracle:
    """Evaluation access to F: 2^N -> R, through ``value_rows``, ``value`` and ``cursor``.

    Built from exactly one of a scalar ``eval_fn`` or a ``value_rows``
    formula; with the formula, ``value(x)`` is the formula at x's membership
    row, and ``value_rows`` is None otherwise. Evaluation must
    be deterministic, and a cursor's marginals must equal the value
    differences within relative 1e-9. A marginal query goes through
    ``cursor(X)``; the oracle answers none itself.

    The ``fast_marginal=``/``fast_drop_marginal=`` and ``dense_table=`` kwargs
    and their attributes are read by nothing in this package. They stay only
    because the benchmark's tracing proxy (``perfbench/tracing.py``) passes
    and reads them, as it reads ``_cursor_factory``, to build its timing
    view; they go once the proxy moves onto ``value`` and ``cursor``.
    """

    def __init__(
        self,
        ground: GroundSet,
        eval_fn: Optional[EvalFn] = None,
        *,
        value_rows: Optional[RowsFn] = None,
        fast_marginal: Optional[MarginalFn] = None,
        fast_drop_marginal: Optional[MarginalFn] = None,
        cursor_factory: Optional[Callable[["SetFunctionOracle", SubsetBits], Cursor]] = None,
        dense_table: Optional[np.ndarray] = None,
        params: Optional[dict] = None,
        name: str = "",
    ):
        if (eval_fn is None) == (value_rows is None):
            raise ValueError("an oracle takes exactly one of eval_fn and value_rows")
        self.ground = ground
        self._eval = eval_fn
        self.value_rows = value_rows
        self._fast_marginal = fast_marginal
        self._fast_drop = fast_drop_marginal
        self._cursor_factory = cursor_factory
        self.dense_table = dense_table
        self.params = params or {}
        self.name = name

    @property
    def n(self) -> int:
        return self.ground.n

    def value(self, x: SubsetBits) -> float:
        if self.value_rows is None:
            return float(self._eval(x))
        return float(self.value_rows(x.to_bool_array()))

    def cursor(self, start: SubsetBits) -> Cursor:
        if self._cursor_factory is not None:
            return self._cursor_factory(self, start)
        return Cursor(self, start)


class _CountingCursor(Cursor):
    """Counts and checks marginal queries against a wrapped family cursor."""

    def __init__(self, counter: "CountingOracle", inner: Cursor):
        # no super().__init__: the inner cursor owns the state
        self._counter = counter
        self._inner = inner
        counter.eval_calls += 1  # anchor evaluation

    def members(self) -> SubsetBits:
        return self._inner.members()

    def add_marginal(self, u: int) -> float:
        self._counter.marginal_calls += 1
        gain = self._inner.add_marginal(u)
        if gain != gain:  # NaN, the one value unequal to itself
            raise _nan_marginal(u, self._inner.members())
        return gain

    def drop_marginal(self, d: int) -> float:
        self._counter.marginal_calls += 1
        gain = self._inner.drop_marginal(d)
        if gain != gain:
            raise _nan_marginal(d, self._inner.members())
        return gain

    def add_marginals(self, ids: np.ndarray) -> np.ndarray:
        self._counter.marginal_calls += len(ids)
        return self._checked(self._inner.add_marginals(ids), ids)

    def drop_marginals(self, ids: np.ndarray) -> np.ndarray:
        self._counter.marginal_calls += len(ids)
        return self._checked(self._inner.drop_marginals(ids), ids)

    def gains(self) -> np.ndarray:
        self._counter.marginal_calls += self._counter.n
        return self._checked(self._inner.gains())

    def _checked(self, marginals: np.ndarray, ids: Optional[np.ndarray] = None) -> np.ndarray:
        """``marginals`` unless one is NaN; without ``ids`` they are a gains vector over 1..n."""
        if np.isnan(marginals).any():
            i = int(np.isnan(marginals).argmax())
            raise _nan_marginal(i + 1 if ids is None else int(ids[i]), self._inner.members())
        return marginals

    def move(self, added: np.ndarray, removed: np.ndarray) -> None:
        self._inner.move(added, removed)

    def add(self, u: int) -> None:
        self._inner.add(u)

    def remove(self, d: int) -> None:
        self._inner.remove(d)


class CountingOracle:
    """Transparent wrapper that counts oracle traffic.

    ``eval_calls`` counts full evaluations (a block of k rows through
    ``value_rows`` counts k), ``marginal_calls`` counts family cursor
    marginal queries (each worth at most two evaluations; a batch of k ids
    counts k, a ``gains()`` read n). Returned values are identical to the
    wrapped oracle's, but a NaN marginal raises InternalInvariantError: every
    query an algorithm makes goes through these cursors.
    """

    def __init__(self, inner):
        self.inner = inner
        self.eval_calls = 0
        self.marginal_calls = 0

    @property
    def ground(self) -> GroundSet:
        return self.inner.ground

    @property
    def n(self) -> int:
        return self.inner.n

    @property
    def total_calls(self) -> int:
        return self.eval_calls + self.marginal_calls

    def value(self, x: SubsetBits) -> float:
        self.eval_calls += 1
        return self.inner.value(x)

    @property
    def value_rows(self) -> Optional[RowsFn]:
        """The wrapped formula, booking one evaluation per row; None when it has none."""
        rows_of = getattr(self.inner, "value_rows", None)
        if rows_of is None:
            return None

        def counted(members: np.ndarray) -> np.ndarray:
            self.eval_calls += len(members)
            return rows_of(members)

        return counted

    def cursor(self, start: SubsetBits) -> Cursor:
        factory = getattr(self.inner, "_cursor_factory", None)
        if factory is not None:
            return _CountingCursor(self, factory(self.inner, start))
        return Cursor(self, start)  # generic cursor; its evals route through us


#: Membership cells (rows times n) in one block of a batch evaluation, with
#: at least one row. The block's boolean matrix takes this many bytes and each
#: float temporary of a value formula eight times that, 64 KiB: below the
#: allocator's mmap threshold, so one block after another reuses heap memory.
BLOCK_CELLS = 1 << 13


def lattice_values(oracle, lattice: IntervalLattice, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """F at every member of ``lattice``: entry i is F at ``lattice.member(i)``.

    An oracle with a value formula answers row blocks of ``lattice.member_rows``,
    ``BLOCK_CELLS // n`` rows each; any other oracle takes one ``value`` call
    per member, in the walk of ``enumerate_lattice``. Over ``cap`` free
    elements it raises ``CapExceeded`` before any evaluation.
    """
    members = enumerate_lattice(lattice, cap=cap)  # raises over the cap, before any evaluation
    count = 1 << lattice_free_count(lattice)
    value_rows = getattr(oracle, "value_rows", None)
    if value_rows is None:
        return np.fromiter((oracle.value(x) for x in members), dtype=float, count=count)
    height = max(1, BLOCK_CELLS // lattice.capacity)
    out = np.empty(count)
    for start in range(0, count, height):
        stop = min(start + height, count)
        out[start:stop] = value_rows(lattice.member_rows(np.arange(start, stop)))
    return out


def eval_table(oracle, n: int) -> np.ndarray:
    """F on every subset; entry m holds F of the set with mask m.

    ``lattice_values`` over the full cube, whose member m has mask m: row
    blocks of the value formula, or 2**n ``value`` calls without one. Callers
    are responsible for keeping n small.
    """
    return lattice_values(oracle, IntervalLattice(SubsetBits.empty(n), SubsetBits.full(n)), cap=n)
