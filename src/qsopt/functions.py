"""Benchmark set-function families with seeded generation.

Families: iwata, com (concave-over-modular), half_products (served as the
negated maximization objective), perturbed_facility, determinant,
cobb_douglas, and small tabular functions, each named once in ``_FAMILIES``
with its builder and the parameters it takes (``family_parameters`` names
those to the harness). Each family is a value formula on a membership
matrix, one row per set (or one bare row), plus one cursor class, which
``_family_oracle`` puts together (tabular, looked up by mask, builds its
own). A cursor's batch formulas take an id or an id array alike: a scalar
query is the batch at the bare id, the reverse of the base ``Cursor``.
A single move is the base ``Cursor``'s, which keeps the anchored set; a
batch move, ``_FamilyCursor.move``, builds the new set from one mask and
calls one batch hook. A family that keeps statistics over the members (com's
w1 sum, Cobb-Douglas' log sum, an epoch cursor's pending move) updates them
in the ``_moved`` hook and its batch form, ``_moved_batch``, with the same
bits; iwata and tabular read the set itself.
``_EpochCursor._sync`` alone chooses between an in-place update and a
refactor for the half_products, facility and determinant cursors.
A ``FunctionSpec`` names an instance and is the one place that checks one:
the family, integer n >= 1 and seed >= 0, and the parameters the family takes,
perturbed_facility's integer ``d`` >= 1 (400 when absent) and tabular's list
``values`` of 2**n numbers, n <= ``TABLE_MAX_N`` (NaN and +-inf are numbers).
Every other constant of a family is fixed in its generator.
Instances are reproducible: parameter array k of a family is drawn from the
PCG64 stream of ``SeedSequence(seed, spawn_key=(k,))``: the spec pins every bit.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .checkers import SSBC_MAX_N, satisfies_ssbc
from .errors import ConfigError, InternalInvariantError, require_kind
from .exact import TABLE_MAX_N
from .oracle import Cursor, SetFunctionOracle, moved_set
from .sets import GroundSet, SubsetBits


def seeded_stream(seed: int, index: int) -> np.random.Generator:
    """Generator ``index`` of ``seed``: an instance's parameter array or a baseline's trial."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


#: Every family: how a checked spec builds its oracle, and the parameters the
#: family takes, each with the kind its value must be and how a config error
#: names that kind. The builders look their generators up at call time.
_FAMILIES = {
    "iwata": (lambda spec: make_iwata(spec.n), {}),
    "com": (lambda spec: make_com(spec.n, spec.seed), {}),
    "half_products": (lambda spec: make_half_products(spec.n, spec.seed), {}),
    "perturbed_facility": (
        lambda spec: make_perturbed_facility(spec.n, spec.params.get("d", 400), spec.seed),
        {"d": (numbers.Integral, "an integer")},
    ),
    "determinant": (lambda spec: make_determinant(spec.n, spec.seed), {}),
    "cobb_douglas": (lambda spec: make_cobb_douglas(spec.n, spec.seed), {}),
    "tabular": (lambda spec: make_tabular(spec.params["values"]), {"values": (list, "a list")}),
}


def family_parameters(family) -> tuple[str, ...]:
    """The names of the parameters ``family`` takes; a name that is no family takes none."""
    entry = _FAMILIES.get(family) if isinstance(family, str) else None
    return tuple(entry[1]) if entry else ()


@dataclass
class FunctionSpec:
    """Serializable description of a benchmark instance, checked on construction."""

    family: str
    n: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.family, str) or self.family not in _FAMILIES:
            raise ConfigError(f"unsupported family {self.family!r}")
        require_kind(self.n, numbers.Integral, "an integer", "field 'n'")
        require_kind(self.seed, numbers.Integral, "an integer", "field 'seed'")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.seed < 0:
            raise ConfigError(f"field 'seed' must be >= 0, got {self.seed}")
        if not isinstance(self.params, dict):
            raise ConfigError(f"params must be an object, got {self.params!r}")
        _build, takes = _FAMILIES[self.family]
        for key, value in self.params.items():
            if key not in takes:
                raise ConfigError(f"{self.family} takes no parameter params.{key}")
            require_kind(value, *takes[key], f"{self.family} params.{key}")
        if "d" in self.params and self.params["d"] < 1:  # only perturbed_facility takes d
            raise ConfigError(f"perturbed_facility params.d must be >= 1, got {self.params['d']}")
        if self.family == "tabular":
            values = self.params.get("values")
            if values is None:
                raise ConfigError("tabular spec needs params.values")
            if self.n > TABLE_MAX_N:
                raise ConfigError(f"tabular capped at n <= {TABLE_MAX_N}")
            if len(values) != (1 << self.n):
                raise ConfigError("tabular params.values length must be 2**n")
            # judged per entry type, not per entry: 2**20 isinstance checks take a second.
            # NaN and +-inf are floats and load; the exact layer names a NaN set itself
            bad = {t for t in set(map(type, values)) if t is bool or not issubclass(t, numbers.Real)}
            if bad:
                i = next(i for i, v in enumerate(values) if type(v) in bad)
                raise ConfigError(f"tabular params.values[{i}] must be a number, got {values[i]!r}")


def _json_default(value):
    """numpy arrays and scalars as the lists and numbers ``json`` writes."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def save_spec(spec: FunctionSpec, path: str | Path) -> None:
    # not asdict: it would deep-copy a tabular values list one entry at a time
    payload = {f.name: getattr(spec, f.name) for f in fields(spec)}
    # repr floats round-trip exactly; NaN and +-Infinity are literals json.loads reads back
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    Path(path).write_text(text + "\n")


def load_spec(path: str | Path) -> FunctionSpec:
    """Read an instance file; ``FunctionSpec`` checks it, and its errors name the file."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read instance file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"instance file {path} is not a JSON object")
    try:
        family, n, seed = payload["family"], payload["n"], payload.get("seed", 0)
    except KeyError as exc:
        raise ConfigError(f"instance file {path} missing field {exc}") from exc
    params = payload.get("params")  # absent or null is no parameters; any other value is checked
    try:
        return FunctionSpec(family=family, n=n, seed=seed, params={} if params is None else params)
    except ConfigError as exc:
        raise ConfigError(f"instance file {path}: {exc}") from exc


def instantiate(spec: FunctionSpec) -> SetFunctionOracle:
    """The oracle of a spec, which its construction has checked."""
    build, _takes = _FAMILIES[spec.family]
    return build(spec)


class _FamilyCursor(Cursor):
    """Family cursor base: a scalar query is the batch formula at the bare id, bit for bit."""

    def __init__(self, start: SubsetBits):
        self._current = start  # no F at the anchor: the family formulas need none

    def move(self, added: np.ndarray, removed: np.ndarray) -> None:
        """The batch move: the new set built and checked once, then one ``_moved_batch``."""
        added = np.asarray(added, dtype=np.int64)
        removed = np.asarray(removed, dtype=np.int64)
        if not (added.size or removed.size):
            return
        self._current = moved_set(self._current, added, removed)
        self._moved_batch(added, removed)

    def _moved(self, e: int, added: bool) -> None:
        """Nothing to update; a family with statistics over the members overrides this."""

    def _moved_batch(self, added: np.ndarray, removed: np.ndarray) -> None:
        """``_moved`` of each added id, then of each removed id, in order."""
        for u in added.tolist():
            self._moved(u, True)
        for d in removed.tolist():
            self._moved(d, False)

    def add_marginal(self, u: int) -> float:
        return float(self.add_marginals(u))

    def drop_marginal(self, d: int) -> float:
        return float(self.drop_marginals(d))


def _row_formula(formula):
    """``formula``, written for a (k, n) membership matrix, also taking one bare (n,) row.

    The bare row is answered as row 0 of its one-row matrix, so the two give
    the same bits. The families whose formula is elementwise along the rows
    take both shapes as they are.
    """

    @functools.wraps(formula)
    def value(*args):
        members = args[-1]
        if members.ndim > 1:
            return formula(*args)
        return formula(*args[:-1], members[None, :])[0]

    return value


def _family_oracle(n: int, value_rows, cursor_at, params: dict, name: str) -> SetFunctionOracle:
    """The oracle of ``value_rows``, a value formula on a membership matrix, and ``cursor_at(start)``."""
    return SetFunctionOracle(
        GroundSet(n),
        value_rows=value_rows,
        cursor_factory=lambda _owner, start: cursor_at(start),
        params=params,
        name=name,
    )


# ---------------------------------------------------------------------------
# Iwata's function: F(X) = |X| * |N \ X| - sum_{i in X} (5 i - 2 n)


class _IwataCursor(_FamilyCursor):
    def __init__(self, start: SubsetBits, n: int):
        super().__init__(start)
        self._n = n

    def _moved_batch(self, added: np.ndarray, removed: np.ndarray) -> None:
        """Nothing to update, not even id by id: the marginals take the member count at the query."""

    def add_marginals(self, ids: np.ndarray) -> np.ndarray:
        return np.asarray(3 * self._n - 2 * len(self._current) - 1 - 5 * ids, dtype=float)

    def drop_marginals(self, ids: np.ndarray) -> np.ndarray:
        return np.asarray(3 * self._n - 2 * len(self._current) + 1 - 5 * ids, dtype=float)


def iwata_value(weights: np.ndarray, members: np.ndarray) -> np.ndarray:
    """F(X) = |X| |N\\X| - weights(X) per row, with ``weights`` the n values 5 i - 2 n."""
    k = members.sum(axis=-1)
    return k * (len(weights) - k) - np.vecdot(members, weights)


def make_iwata(n: int) -> SetFunctionOracle:
    """Deterministic size-versus-rank benchmark; no seed."""
    weights = 5.0 * np.arange(1, n + 1) - 2.0 * n
    return _family_oracle(
        n,
        functools.partial(iwata_value, weights),
        lambda start: _IwataCursor(start, n),
        {"weights": weights},
        f"iwata(n={n})",
    )


# ---------------------------------------------------------------------------
# COM: F(X) = sqrt(w1(X)) + w2(N \ X), w1 and w2 uniform in [0,1]^n


class _ComCursor(_FamilyCursor):
    def __init__(self, start: SubsetBits, w1: np.ndarray, w2: np.ndarray):
        super().__init__(start)
        self._w1 = w1
        self._w2 = w2
        self._s1 = self._exact_sum()

    def _exact_sum(self) -> float:
        """w1(X) from the members. The running sum drifts under moves, and at one
        member or none sqrt(s - w_e) amplifies the drift, so a query there takes this."""
        return float(self._w1 @ self._current.to_bool_array())

    # the member count is taken at the query, not the move: the reductions move
    # thousands of elements between two batch queries
    def add_marginals(self, ids: np.ndarray) -> np.ndarray:
        s = max(self._s1, 0.0) if self._current.mask.bit_count() > 1 else self._exact_sum()
        return np.sqrt(s + self._w1[ids - 1]) - math.sqrt(s) - self._w2[ids - 1]

    def drop_marginals(self, ids: np.ndarray) -> np.ndarray:
        s = max(self._s1, 0.0) if self._current.mask.bit_count() > 1 else self._exact_sum()
        return math.sqrt(s) - np.sqrt(np.maximum(s - self._w1[ids - 1], 0.0)) - self._w2[ids - 1]

    def _moved(self, e: int, added: bool) -> None:
        if added:
            self._s1 += self._w1[e - 1]
        else:
            self._s1 -= self._w1[e - 1]

    def _moved_batch(self, added: np.ndarray, removed: np.ndarray) -> None:
        self._s1 = _running_sum(self._s1, self._w1, added, removed)


def _running_sum(total: float, weights: np.ndarray, added: np.ndarray, removed: np.ndarray) -> float:
    """``total`` plus the weights of ``added``, then minus those of ``removed``, one id at a
    time in order: the bits of the same moves made one by one through ``_moved``."""
    for w in weights[added - 1].tolist():
        total += w
    for w in weights[removed - 1].tolist():
        total -= w
    return total


def com_value(w1: np.ndarray, w2: np.ndarray, members: np.ndarray) -> np.ndarray:
    """sqrt(w1(X)) + w2 over the complement of X per row, taken as w2(N) - w2(X)."""
    return np.sqrt(np.vecdot(members, w1)) + (w2.sum() - np.vecdot(members, w2))


def make_com(n: int, seed: int) -> SetFunctionOracle:
    """Concave-over-modular: sqrt of one modular weight plus the complement of another."""
    w1 = seeded_stream(seed, 0).uniform(0.0, 1.0, n)
    w2 = seeded_stream(seed, 1).uniform(0.0, 1.0, n)
    return _family_oracle(
        n,
        functools.partial(com_value, w1, w2),
        lambda start: _ComCursor(start, w1, w2),
        {"w1": w1, "w2": w2},
        f"com(n={n}, seed={seed})",
    )


# ---------------------------------------------------------------------------
# Epoch cursors: statistics over the members, brought up to date at a query.


_STALE = object()  #: the pending state of an epoch cursor that refactors at its next query


class _EpochCursor(_FamilyCursor):
    """Cursor whose statistics over the members are synced lazily.

    A move only records itself. The next query syncs by one rule: a single
    pending move between two nonempty sets is applied as an exact in-place
    update (``_insert``/``_delete``); the first query, two or more pending
    moves, and a single move into or out of the empty set take the full
    refactor (``_refactor``). So an update never starts or ends at the empty
    set, the sequential baselines, which move once between queries, pay an
    update per move, and a reduction sweep that moves many elements pays one
    refactor.
    """

    def __init__(self, start: SubsetBits):
        super().__init__(start)
        # the moves since the last sync: None for none, (added, e) for one, _STALE for a refactor
        self._pending = _STALE

    def _sync(self) -> None:
        pending = self._pending
        if pending is None:
            return
        # one add leaving a single member, or one remove leaving none, crosses the empty set
        if pending is _STALE or len(self._current) == pending[0]:
            self._refactor()
        elif pending[0]:
            self._insert(pending[1])
        else:
            self._delete(pending[1])
        self._pending = None

    def _moved(self, e: int, added: bool) -> None:
        self._pending = (added, e) if self._pending is None else _STALE

    def _moved_batch(self, added: np.ndarray, removed: np.ndarray) -> None:
        # the rule of as many single moves: one is an update, two or more a refactor
        if len(added) + len(removed) > 1:
            self._pending = _STALE
        elif len(added):
            self._moved(int(added[0]), True)
        else:
            self._moved(int(removed[0]), False)


# ---------------------------------------------------------------------------
# Half-products, served negated: the oracle evaluates
#   -F(X) = c(X) - sum_{i,j in X, i <= j} a(i) b(j)
# so maximizing the oracle minimizes the original half-products objective.


class _HalfProductsCursor(_EpochCursor):
    """Epoch cursor over prefix sums of a and suffix sums of b on the members.

    Every sync is the refactor: one O(n) cumsum is as cheap as any update.
    """

    def __init__(self, start: SubsetBits, a, b, c):
        super().__init__(start)
        self._a = a
        self._b = b
        self._c = c
        self._prefix_a = None
        self._suffix_b = None

    def _refactor(self) -> None:
        m = self._current.to_bool_array()
        # prefix_a[k] = sum of a over members with id <= k (1-based, index 0 = 0)
        self._prefix_a = np.concatenate(([0.0], np.cumsum(self._a * m)))
        self._suffix_b = np.concatenate((np.cumsum((self._b * m)[::-1])[::-1], [0.0]))

    def _insert(self, e: int) -> None:
        self._refactor()

    _delete = _insert

    def add_marginals(self, ids: np.ndarray) -> np.ndarray:
        # c(u) - a(u) b(u) - b(u) * sum_{i in X, i < u} a(i) - a(u) * sum_{j in X, j > u} b(j)
        self._sync()
        a = self._a[ids - 1]
        b = self._b[ids - 1]
        pair = a * b + b * self._prefix_a[ids - 1] + a * self._suffix_b[ids]
        return self._c[ids - 1] - pair

    # members too: prefix/suffix exclude the id itself by index choice
    drop_marginals = add_marginals


def half_products_value(a: np.ndarray, b: np.ndarray, c: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Negated half-products per row: c(X) minus the a(i)b(j) sum over member pairs i <= j."""
    pairs = np.vecdot(b * members, np.cumsum(a * members, axis=-1))
    return np.vecdot(members, c) - pairs


def make_half_products(n: int, seed: int) -> SetFunctionOracle:
    """Negated half-products; c is uniform in [0, n/4]."""
    a = seeded_stream(seed, 0).uniform(0.0, 1.0, n)
    b = seeded_stream(seed, 1).uniform(0.0, 1.0, n)
    c = seeded_stream(seed, 2).uniform(0.0, 0.25 * n, n)
    return _family_oracle(
        n,
        functools.partial(half_products_value, a, b, c),
        lambda start: _HalfProductsCursor(start, a, b, c),
        {"a": a, "b": b, "c": c},
        f"half_products(n={n}, seed={seed})",
    )


# ---------------------------------------------------------------------------
# Perturbed facility location: F(X) = sum_j max_{i in X} M[i,j] + sigma(X),
# with the max over an empty X taken as 0.

#: Rows of the matrix that one facility pass gathers at a time: every
#: temporary of the family is at most this many rows.
_FACILITY_BLOCK = 512


def _row_blocks(ids: np.ndarray):
    """Consecutive slices of ``ids``, ``_FACILITY_BLOCK`` at a time."""
    return (ids[s : s + _FACILITY_BLOCK] for s in range(0, len(ids), _FACILITY_BLOCK))


def _top_two(mat: np.ndarray, rows: np.ndarray, cols=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column maximum, second largest (0 for one row) and count of the maximum.

    Taken over the 0-based ``rows`` of ``mat`` (at least one) and the columns
    ``cols`` (all when None), one row block at a time. In a block, max2 is the
    largest value left once max1 is masked to -inf, or max1 itself where two
    rows reach it; the second largest counted with multiplicity, either way.
    Two blocks merge exactly: the counts add where a block reaches the larger
    max1, and max2 is the largest of both max2 and the smaller max1.
    """
    max1 = max2 = counts = None
    for block in _row_blocks(rows):
        sub = mat[block] if cols is None else mat[np.ix_(block, cols)]  # a copy: masked in place
        b1 = sub.max(axis=0)
        hit = sub == b1
        bc = hit.sum(axis=0)
        np.copyto(sub, -np.inf, where=hit)
        b2 = np.where(bc >= 2, b1, sub.max(axis=0))
        if max1 is None:
            max1, max2, counts = b1, b2, bc
            continue
        new1 = np.maximum(max1, b1)
        counts = np.where(max1 == new1, counts, 0) + np.where(b1 == new1, bc, 0)
        max2 = np.maximum(np.maximum(max2, b2), np.minimum(max1, b1))
        max1 = new1
    if len(rows) < 2:
        max2 = np.zeros(len(max1))
    return max1, max2, counts


class _FacilityCursor(_EpochCursor):
    """Epoch cursor holding per-column top-two statistics over the members.

    Per column: max1 is the best member value (0 when empty), max2 the second
    best counted with multiplicity (0 below two members) and counts how many
    members reach max1. Updates are exact, so they match a refactor bit for
    bit: adding a row costs O(d); removing one recomputes only the columns
    where the row reached max2, the only ones whose statistics can change.

    Every pass over the matrix (the refactor, a removal's column rescan, the
    batch marginals and the rows a gains refresh scans) takes its rows in
    blocks of ``_FACILITY_BLOCK``, so no temporary is larger than a block
    by d. Each row reduces on its own and a column max is exact, so the bits
    do not depend on the block. A bare id, or a batch of at most one block,
    is one direct call.

    Once ``gains()`` has been read, an update also refreshes the rows of the
    flip-gain vector it can change: the flipped row and every row that
    reaches the old or the new max1 in a column whose statistics changed.
    They are recomputed with the batch expressions, so the vector stays equal
    bit for bit to fresh batches; a refactor drops it.
    """

    def __init__(self, start: SubsetBits, mat: np.ndarray, sigma: np.ndarray):
        super().__init__(start)
        self._mat = mat
        self._sigma = sigma
        self._max1 = None
        self._max2 = None
        self._counts = None
        self._gains = None

    def _refactor(self) -> None:
        rows = np.flatnonzero(self._current.to_bool_array())
        if len(rows):
            self._max1, self._max2, self._counts = _top_two(self._mat, rows)
        else:
            d = self._mat.shape[1]
            self._max1 = np.zeros(d)
            self._max2 = np.zeros(d)
            self._counts = np.zeros(d, dtype=int)
        self._gains = None

    def _insert(self, u: int) -> None:
        row = self._mat[u - 1]
        old = (self._max1, self._max2, self._counts)  # the update rebinds all three, never writes them
        max1 = self._max1
        if len(self._current) == 2:  # one member before the add: max2 is the smaller of the two
            self._max2 = np.minimum(max1, row)
        else:
            self._max2 = np.where(row >= max1, max1, np.maximum(self._max2, row))
        self._counts = np.where(row > max1, 1, self._counts + (row == max1))
        self._max1 = np.maximum(max1, row)
        if self._gains is not None:
            self._refresh_gains(u, slice(None), *old)

    def _delete(self, d: int) -> None:
        cols = np.flatnonzero(self._mat[d - 1] >= self._max2)
        kept = self._gains is not None
        old = (self._max1[cols], self._max2[cols], self._counts[cols]) if kept else None
        rows = np.flatnonzero(self._current.to_bool_array())
        max1, max2, counts = _top_two(self._mat, rows, cols)
        self._max1[cols] = max1
        self._max2[cols] = max2
        self._counts[cols] = counts
        if kept:
            self._refresh_gains(d, cols, *old)

    def _refresh_gains(self, e: int, cols, old1, old2, old_counts) -> None:
        """Recompute the flip gains that the move of e can change.

        ``old1``, ``old2`` and ``old_counts`` are the statistics of the columns
        ``cols`` before the move; no other column changed.
        """
        new1 = self._max1[cols]
        changed = (new1 != old1) | (self._max2[cols] != old2) | (self._counts[cols] != old_counts)
        reach = np.minimum(old1, new1)[changed]
        touched = np.arange(self._mat.shape[1])[cols][changed]
        n, block = self._mat.shape[0], _FACILITY_BLOCK
        rows = np.empty(n, dtype=bool)
        for s in range(0, n, block):
            rows[s : s + block] = (self._mat[s : s + block, touched] >= reach).any(axis=1)
        rows[e - 1] = True
        self._fill_gains(np.flatnonzero(rows))

    def _fill_gains(self, rows: np.ndarray) -> None:
        inside = self._current.to_bool_array()[rows]
        self._gains[rows[inside]] = -self._drop_rows(rows[inside] + 1)
        self._gains[rows[~inside]] = self._add_rows(rows[~inside] + 1)

    def _add_rows(self, ids: np.ndarray) -> np.ndarray:
        if isinstance(ids, np.ndarray) and len(ids) > _FACILITY_BLOCK:
            return np.concatenate([self._add_rows(block) for block in _row_blocks(ids)])
        # take copies even one row; indexing by a bare id gives a view the in-place ops would write
        gains = self._mat.take(ids - 1, axis=0)
        gains -= self._max1
        np.maximum(gains, 0.0, out=gains)
        return gains.sum(axis=-1) + self._sigma[ids - 1]

    def _drop_rows(self, ids: np.ndarray) -> np.ndarray:
        if isinstance(ids, np.ndarray) and len(ids) > _FACILITY_BLOCK:
            return np.concatenate([self._drop_rows(block) for block in _row_blocks(ids)])
        loses = (self._mat[ids - 1] == self._max1) & (self._counts == 1)
        return ((self._max1 - self._max2) * loses).sum(axis=-1) + self._sigma[ids - 1]

    def add_marginals(self, ids: np.ndarray) -> np.ndarray:
        self._sync()
        return self._add_rows(ids)

    def drop_marginals(self, ids: np.ndarray) -> np.ndarray:
        self._sync()
        return self._drop_rows(ids)

    def gains(self) -> np.ndarray:
        self._sync()
        if self._gains is None:
            self._gains = np.empty(self._mat.shape[0])
            self._fill_gains(np.arange(self._mat.shape[0]))
        return self._gains.copy()


def _member_max(mat: np.ndarray, block: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Per row of ``block``, the column max of ``mat`` over its members among ``ids``; -inf for none."""
    if len(block) == 1:  # a lone row is a member of every id its block uses: no mask
        return mat[ids].max(axis=0)
    return np.where(block[:, ids, None], mat[ids], -np.inf).max(axis=1)


@_row_formula
def facility_value(mat: np.ndarray, sigma: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Column-wise best facility among the members plus modular noise per row; empty gives 0.

    The membership rows go in blocks of h = ``_FACILITY_BLOCK // n`` (at
    least one), and a block gathers only the matrix rows of its members, w at
    a time with h w <= ``_FACILITY_BLOCK``: no temporary is larger than that
    many matrix rows by d, and one row at large n reads its members' rows,
    not all n. A max is exact, so the bits do not depend on the blocks.
    """
    k, n = members.shape
    height = max(1, _FACILITY_BLOCK // n)
    best = np.empty(k)  # the column-max sum of each row, -inf for no member
    for s in range(0, k, height):
        block = members[s : s + height]
        top = np.full((len(block), mat.shape[1]), -np.inf)
        used = np.flatnonzero(block.any(axis=0))
        width = _FACILITY_BLOCK // len(block)
        for c in range(0, len(used), width):
            np.maximum(top, _member_max(mat, block, used[c : c + width]), out=top)
        best[s : s + height] = top.sum(axis=-1)
    return np.where(best > -np.inf, best + np.vecdot(members, sigma), 0.0)


def make_perturbed_facility(n: int, d: int, seed: int) -> SetFunctionOracle:
    """Facility location over a random [0.5,1] matrix plus modular noise in [-0.01,0.01]."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    mat = seeded_stream(seed, 0).uniform(0.5, 1.0, (n, d))
    sigma = seeded_stream(seed, 1).uniform(-0.01, 0.01, n)
    return _family_oracle(
        n,
        functools.partial(facility_value, mat, sigma),
        lambda start: _FacilityCursor(start, mat, sigma),
        {"M": mat, "sigma": sigma, "d": d},
        f"perturbed_facility(n={n}, d={d}, seed={seed})",
    )


# ---------------------------------------------------------------------------
# Determinant of the principal submatrix of a positive definite kernel.
# The kernel is a quality-diversity Gaussian similarity over clustered random
# points: K[i,j] = q_i q_j exp(-|x_i - x_j|^2 / (2 l^2)) plus a tiny jitter
# ridge. Clusters mix singletons, tight pairs/triples, and "anchored pairs"
# (a tight high-quality pair next to a stronger moderately-correlated anchor);
# the mix shapes how much of the ground set the reductions leave undecided.
# det over the empty index set is 1.

#: The kernel's fixed shape: point dimension, length scale l, the quality and
#: correlation ranges of clustered points, and the cluster-kind probabilities.
_KERNEL_PARAMS = {
    "dim": 8,
    "length_scale": 0.35,
    "q_lo": 0.82,
    "q_hi": 1.25,
    "rho_lo": 0.57,
    "rho_hi": 0.98,
    "p_pair": 0.30,
    "p_triple": 0.15,
    "p_anchor": 0.12,
    "jitter": 1e-8,
}

#: Smallest determinant an update may produce: below the normal range a
#: product of pivots loses digits and, once 0, never recovers.
_DET_FLOOR = float(np.finfo(float).tiny)


@functools.cache
def _linalg() -> SimpleNamespace:
    """The LAPACK/BLAS routines of the determinant family.

    Imported on first use: ``scipy.linalg`` takes a few hundred ms to import,
    and no other family needs it.
    """
    from scipy.linalg import blas, lapack

    return SimpleNamespace(
        dpotrf=lapack.dpotrf,
        dpotri=lapack.dpotri,
        dsymm=blas.dsymm,
        dsymv=blas.dsymv,
        dsyr=blas.dsyr,
    )


def _cholesky_det(la: SimpleNamespace, restricted: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor (dpotrf) of a C-ordered kernel restriction, and its determinant.

    The factor overwrites ``restricted``.
    """
    # the restriction is symmetric, so its transpose is the same matrix in Fortran order
    chol, info = la.dpotrf(restricted.T, lower=1, overwrite_a=1)
    if info != 0:
        raise InternalInvariantError(
            f"kernel restricted to {len(restricted)} members is not positive definite (dpotrf info={info})"
        )
    return chol, float(np.prod(np.diag(chol)) ** 2)


class _DeterminantCursor(_EpochCursor):
    """Epoch cursor around K_X^{-1} for the members X, ascending.

    The inverse is kept as the lower triangle that LAPACK's dpotrf + dpotri
    leave (the upper triangle is not maintained) and read through BLAS
    dsymm/dsymv. Adding u is the bordered update: w = K_X^{-1} v with
    v = K[X, u], s = k_uu - v.w, det <- det * s. Removing d is the Schur
    complement: the inverse loses row and column d, less a a^T / a_dd with a
    its column d, and det <- det * a_dd. Both cost O(k^2) at k members. An
    update whose pivot is not positive and finite, or whose determinant
    leaves the normal range (where it could never come back from 0), takes
    the refactor instead.

    Once ``gains()`` has been read, the cursor also keeps the Schur vector
    c_j = k_jj - v_j^T K_X^{-1} v_j of every non-member j (the add marginal is
    det * (c_j - 1)), updated with one product over K[X, :], O(nk), per move:
    adding u takes c_j -= (k_ju - v_j^T w)^2 / s; removing d takes
    c_j += ((K_X^{-1} v_j)_d)^2 / a_dd and c_d = 1 / a_dd. The vector is
    rebuilt from the inverse after a refactor and after every isqrt(n)
    updates, which bounds its rounding drift.
    """

    def __init__(self, start: SubsetBits, kernel: np.ndarray, la: SimpleNamespace):
        super().__init__(start)
        self._kernel = kernel
        self._la = la
        self._idx = None
        self._inv = None
        self._det = 1.0
        self._schur = None
        self._schur_updates = 0
        self._schur_budget = max(1, math.isqrt(len(kernel)))

    def _refactor(self) -> None:
        self._schur = None
        idx = np.flatnonzero(self._current.to_bool_array())
        self._idx = idx
        if len(idx) == 0:
            self._inv = np.empty((0, 0), order="F")
            self._det = 1.0
            return
        chol, self._det = _cholesky_det(self._la, self._kernel[np.ix_(idx, idx)])
        self._inv, info = self._la.dpotri(chol, lower=1, overwrite_c=1)
        if info != 0:
            raise InternalInvariantError(f"Cholesky factor is singular (dpotri info={info})")

    def _accept(self, pivot: float) -> bool:
        """Take the new determinant det * pivot, or refactor if it is out of range."""
        det = self._det * pivot
        if not (pivot > 0.0 and _DET_FLOOR <= det < math.inf):
            self._refactor()
            return False
        self._det = det
        return True

    def _count_schur_update(self) -> None:
        self._schur_updates += 1
        if self._schur_updates >= self._schur_budget:
            self._schur = None

    def _insert(self, u: int) -> None:
        idx, inv = self._idx, self._inv
        k = len(idx)
        kuu = float(self._kernel[u - 1, u - 1])
        v = self._kernel[idx, u - 1]
        w = self._la.dsymv(1.0, inv, v, lower=1)
        s = kuu - float(v @ w)
        if not self._accept(s):
            return
        if self._schur is not None:
            e = self._kernel[u - 1] - w @ self._kernel[idx]
            self._schur -= e * e / s
            self._count_schur_update()
        p = int(np.searchsorted(idx, u - 1))
        inv = self._la.dsyr(1.0 / s, w, a=inv, lower=1, overwrite_a=1)
        new = np.empty((k + 1, k + 1), order="F")
        new[:p, :p] = inv[:p, :p]
        new[p + 1 :, :p] = inv[p:, :p]
        new[p + 1 :, p + 1 :] = inv[p:, p:]
        new[p, :p] = w[:p] / -s
        new[p + 1 :, p] = w[p:] / -s
        new[p, p] = 1.0 / s
        self._idx = np.insert(idx, p, u - 1)
        self._inv = new

    def _delete(self, d: int) -> None:
        idx, inv = self._idx, self._inv
        k = len(idx)
        p = int(np.searchsorted(idx, d - 1))
        a_pp = float(inv[p, p])
        if not self._accept(a_pp):
            return
        if self._schur is not None:
            t = np.concatenate((inv[p, :p], inv[p:, p])) @ self._kernel[idx]
            self._schur += t * t / a_pp
            self._schur[d - 1] = 1.0 / a_pp
            self._count_schur_update()
        a = np.concatenate((inv[p, :p], inv[p + 1 :, p]))
        new = np.empty((k - 1, k - 1), order="F")
        new[:p, :p] = inv[:p, :p]
        new[p:, :p] = inv[p + 1 :, :p]
        new[p:, p:] = inv[p + 1 :, p + 1 :]
        self._inv = self._la.dsyr(-1.0 / a_pp, a, a=new, lower=1, overwrite_a=1)
        self._idx = np.delete(idx, p)

    def _schur_of(self, ids: np.ndarray) -> np.ndarray:
        """k_jj - v_j^T K_X^{-1} v_j for each non-member id j, from the inverse."""
        kuu = self._kernel[ids - 1, ids - 1]
        if len(self._idx) == 0 or len(ids) == 0:
            return kuu
        v = self._kernel[np.ix_(self._idx, ids - 1)]
        w = self._la.dsymm(1.0, self._inv, v, lower=1)
        return kuu - np.einsum("ij,ij->j", v, w)

    def add_marginal(self, u: int) -> float:
        return float(self.add_marginals(np.array([u]))[0])

    def drop_marginal(self, d: int) -> float:
        return float(self.drop_marginals(np.array([d]))[0])

    def add_marginals(self, ids: np.ndarray) -> np.ndarray:
        self._sync()
        return self._det * (self._schur_of(ids) - 1.0)

    def drop_marginals(self, ids: np.ndarray) -> np.ndarray:
        self._sync()
        pos = np.searchsorted(self._idx, ids - 1)
        # det(K_{X-d}) = det(K_X) * (K_X^{-1})_{dd}
        return self._det * (1.0 - np.diagonal(self._inv)[pos])

    def gains(self) -> np.ndarray:
        self._sync()
        outside = np.flatnonzero(~self._current.to_bool_array())
        if self._schur is None:
            self._schur = np.zeros(len(self._kernel))
            self._schur[outside] = self._schur_of(outside + 1)
            self._schur_updates = 0
        out = np.empty(len(self._kernel))
        out[self._idx] = -(self._det * (1.0 - np.diagonal(self._inv)))
        out[outside] = self._det * (self._schur[outside] - 1.0)
        return out


#: Rows of the kernel built per block in ``_determinant_kernel``.
_KERNEL_BLOCK = 64


def _kernel_points(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The n clustered points of the kernel, one per row, and their qualities."""
    p = _KERNEL_PARAMS
    rng = seeded_stream(seed, 0)
    qrng = seeded_stream(seed, 1)
    dim = p["dim"]
    ell = float(p["length_scale"])
    points = np.zeros((n, dim))
    quality = np.zeros(n)

    def offset(center: np.ndarray, rho: float) -> np.ndarray:
        delta = math.sqrt(-2.0 * math.log(rho)) * ell
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        return center + delta * direction

    placed = 0
    while placed < n:
        draw = rng.random()
        left = n - placed
        if draw < p["p_anchor"] and left >= 3:
            center = rng.uniform(0.0, 1.0, dim)
            points[placed] = center
            quality[placed] = qrng.uniform(1.02, 1.2)
            points[placed + 1] = offset(center, rng.uniform(0.88, 0.97))
            quality[placed + 1] = qrng.uniform(1.02, 1.2)
            points[placed + 2] = offset(center, rng.uniform(0.45, 0.65))
            quality[placed + 2] = qrng.uniform(1.3, 1.5)
            placed += 3
            continue
        if draw < p["p_anchor"] + (1.0 - p["p_anchor"] - p["p_pair"] - p["p_triple"]):
            size = 1
        elif draw < 1.0 - p["p_triple"]:
            size = 2
        else:
            size = 3
        size = int(min(size, left))
        center = rng.uniform(0.0, 1.0, dim)
        points[placed] = center
        quality[placed] = qrng.uniform(p["q_lo"], p["q_hi"])
        for j in range(1, size):
            points[placed + j] = offset(center, rng.uniform(p["rho_lo"], p["rho_hi"]))
            quality[placed + j] = qrng.uniform(p["q_lo"], p["q_hi"])
        placed += size
    return points, quality


def _determinant_kernel(n: int, seed: int) -> np.ndarray:
    points, quality = _kernel_points(n, seed)
    ell = float(_KERNEL_PARAMS["length_scale"])
    # Each row block is built in place in the one n x n output, so the only
    # temporaries are one _KERNEL_BLOCK x n x dim difference buffer and a
    # block's quality products: q_i q_j exp(-|x_i - x_j|^2 / (2 l^2)), in IEEE
    # steps that give the bits of the one-shot formula. The kernel is exactly
    # symmetric with no (K + K^T) / 2: (x_i - x_j)^2 and (x_j - x_i)^2 are the
    # same number, and so are q_i q_j and q_j q_i. The jitter goes on the
    # diagonal alone.
    kernel = np.empty((n, n))
    buffer = np.empty((min(n, _KERNEL_BLOCK), n, points.shape[1]))
    for s in range(0, n, _KERNEL_BLOCK):
        block = kernel[s : s + _KERNEL_BLOCK]
        diff = buffer[: len(block)]
        np.subtract(points[s : s + _KERNEL_BLOCK, None, :], points, out=diff)
        np.square(diff, out=diff)
        np.sum(diff, axis=-1, out=block)
        block /= -(2.0 * ell * ell)
        np.exp(block, out=block)
        block *= np.outer(quality[s : s + _KERNEL_BLOCK], quality)
    kernel.flat[:: n + 1] += float(_KERNEL_PARAMS["jitter"])
    return kernel


#: Kernel entries gathered per stack in ``principal_determinant``: 512 KiB,
#: or a single restriction when one is larger.
_STACK_CELLS = 1 << 16


@_row_formula
def principal_determinant(kernel: np.ndarray, members: np.ndarray) -> np.ndarray:
    """det of the kernel restricted to the members per row; the empty restriction gives 1.

    The rows of one cardinality c gather their restrictions as (count, c, c)
    stacks of at most ``_STACK_CELLS`` entries and factor each by one dpotrf.
    """
    la = _linalg()
    sizes = members.sum(axis=-1)
    out = np.ones(len(members))
    for c in sorted(set(sizes.tolist()) - {0}):
        group = np.flatnonzero(sizes == c)
        step = max(1, _STACK_CELLS // (c * c))
        for s in range(0, len(group), step):
            block = group[s : s + step]
            idx = np.flatnonzero(members[block]).reshape(len(block), c) % members.shape[1]
            stack = kernel[idx[:, :, None], idx[:, None, :]]
            out[block] = [_cholesky_det(la, restricted)[1] for restricted in stack]
    return out


def make_determinant(n: int, seed: int) -> SetFunctionOracle:
    """det of the principal submatrix of a clustered quality-diversity kernel."""
    kernel = _determinant_kernel(n, seed)
    la = _linalg()
    return _family_oracle(
        n,
        functools.partial(principal_determinant, kernel),
        lambda start: _DeterminantCursor(start, kernel, la),
        {"kernel": kernel},
        f"determinant(n={n}, seed={seed})",
    )


# ---------------------------------------------------------------------------
# Cobb-Douglas production over the members: F(X) = prod_{i in X} w(i)**alpha_i,
# evaluated through the maintained log-sum so n in the thousands stays stable.


class _CobbCursor(_FamilyCursor):
    def __init__(self, start: SubsetBits, delta: np.ndarray):
        super().__init__(start)
        self._delta = delta
        self._logsum = float(delta @ start.to_bool_array())

    def _scale(self) -> float:
        """F(X), the factor of every marginal."""
        return _cobb_exp(self._logsum, self._current.cardinality)

    def add_marginals(self, ids: np.ndarray) -> np.ndarray:
        return self._scale() * np.expm1(self._delta[ids - 1])

    def drop_marginals(self, ids: np.ndarray) -> np.ndarray:
        return -self._scale() * np.expm1(-self._delta[ids - 1])

    def _moved(self, e: int, added: bool) -> None:
        if added:
            self._logsum += self._delta[e - 1]
        else:
            self._logsum -= self._delta[e - 1]

    def _moved_batch(self, added: np.ndarray, removed: np.ndarray) -> None:
        self._logsum = _running_sum(self._logsum, self._delta, added, removed)


def cobb_log_factors(w: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Per-element log factors alpha * ln(w); w == 0 with positive alpha gives -inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = alpha * np.log(w)
    # 0 * log(0) is the w**0 == 1 convention, not a real indeterminate
    return np.where((w == 0.0) & (alpha == 0.0), 0.0, delta)


def _cobb_exp(log_value: float, count) -> float:
    """F = exp(log F); an overflow is an invariant error naming ``count()``, the set size."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise InternalInvariantError(
            f"cobb_douglas value overflows a double on a set of {int(count())} members "
            f"(log F = {log_value!r})"
        ) from None


@_row_formula
def cobb_value(delta: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Product over members of w(i)**alpha_i per row: exp of the ``cobb_log_factors`` sum.

    The exp is ``math.exp``, one row at a time, as in ``_cobb_exp``; numpy's
    vector exp differs from it in the last bit on some inputs.
    """
    logs = np.vecdot(members, delta).tolist()
    try:
        return np.fromiter(map(math.exp, logs), dtype=float, count=len(logs))
    except OverflowError:
        for row, log_value in enumerate(logs):  # _cobb_exp raises at the first overflow
            _cobb_exp(log_value, members[row].sum)
        raise


def make_cobb_douglas(n: int, seed: int) -> SetFunctionOracle:
    """Product over members of w(i)**alpha_i with w in [0.5,2], alpha in [0,1]."""
    w = seeded_stream(seed, 0).uniform(0.5, 2.0, n)
    alpha = seeded_stream(seed, 1).uniform(0.0, 1.0, n)
    delta = cobb_log_factors(w, alpha)
    return _family_oracle(
        n,
        functools.partial(cobb_value, delta),
        lambda start: _CobbCursor(start, delta),
        {"w": w, "alpha": alpha, "product_over": "members"},
        f"cobb_douglas(n={n}, seed={seed})",
    )


# ---------------------------------------------------------------------------
# Tabular functions (n <= 20): explicit value for every subset bitmask.


class _TabularCursor(_FamilyCursor):
    def __init__(self, start: SubsetBits, values: np.ndarray):
        super().__init__(start)
        self._values = values

    def add_marginals(self, ids: np.ndarray) -> np.ndarray:
        mask = self._current.mask
        return self._values[mask | (1 << (ids - 1))] - self._values[mask]

    def drop_marginals(self, ids: np.ndarray) -> np.ndarray:
        mask = self._current.mask
        return self._values[mask] - self._values[mask & ~(1 << (ids - 1))]


def _table_value(values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The table entry of each row, looked up by the row's mask (bit i-1 for element i)."""
    return values[np.vecdot(members, 1 << np.arange(members.shape[-1]))]


def make_tabular(values) -> SetFunctionOracle:
    """Oracle backed by an explicit table indexed by subset bitmask."""
    arr = np.asarray(values, dtype=float)
    size = len(arr)
    n = size.bit_length() - 1
    if size < 2 or (1 << n) != size:
        raise ValueError(f"table length {size} is not a power of two >= 2")
    if n > TABLE_MAX_N:
        raise ValueError(f"tabular capped at n <= {TABLE_MAX_N}, got {n}")
    return SetFunctionOracle(
        GroundSet(n),
        value_rows=functools.partial(_table_value, arr),
        cursor_factory=lambda o, s: _TabularCursor(s, arr),
        params={"values": arr},
        name=f"tabular(n={n})",
    )


def tabular_spec(values, seed: int = 0) -> FunctionSpec:
    arr = [float(v) for v in values]
    n = len(arr).bit_length() - 1
    return FunctionSpec("tabular", n, seed, {"values": arr})


# ---------------------------------------------------------------------------
# Random quasi-submodular test instances: a random submodular base composed
# with a random strictly increasing cubic. The reordering-free transform keeps
# every ordinal property of the base, so the result stays quasi-submodular;
# satisfies_ssbc double-checks each instance before it is released (the
# exhaustive check is skipped above its cap, SSBC_MAX_N).


def _random_submodular_table(n: int, rng: np.random.Generator) -> np.ndarray:
    # row m of sel is the membership indicator of the set with mask m
    sel = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    kind = rng.integers(0, 2)
    # each entry takes one dot per row: a matrix product sums in another
    # order and would change the tables in their last bits
    if kind == 0:
        # concave over modular plus a signed modular part
        w1 = rng.uniform(0.1, 1.0, n)
        w2 = rng.uniform(0.0, 1.0, n)
        m = rng.uniform(-0.5, 0.5, n)
        beta = rng.uniform(0.5, 2.0)
        table = np.array(
            [beta * math.sqrt(float(w1 @ row)) + float(w2 @ ~row) + float(m @ row) for row in sel]
        )
    else:
        # weighted coverage minus a modular cost
        m_items = 2 * n
        covers = rng.random((n, m_items)) < 0.3
        v = rng.uniform(0.0, 1.0, m_items)
        cost = rng.uniform(0.0, 0.6, n)
        covered = (sel.view(np.uint8) @ covers.view(np.uint8)) > 0  # counts up to n: exact
        table = np.array([float(v @ c) - float(cost @ row) for c, row in zip(covered, sel)])
    # tiny modular jitter keeps subset values generically distinct
    jitter = rng.uniform(0.0, 1.0, n) * 1e-4
    return table + np.array([float(jitter @ row) for row in sel])


def _increasing_transform(table: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    lo, hi = float(table.min()), float(table.max())
    mid = (lo + hi) / 2.0
    scale = (hi - lo) / 2.0 or 1.0
    y = (table - mid) / scale
    a = rng.uniform(0.5, 2.0)
    b = rng.uniform(0.5, 2.0)
    shift = rng.uniform(-1.0, 1.0)
    return a * y**3 + b * y + shift


def make_random_qsb(n: int, seed: int) -> SetFunctionOracle:
    """Seeded random quasi-submodular tabular instance (n <= 20)."""
    if n > TABLE_MAX_N:
        raise ValueError(f"random tabular instances capped at n <= {TABLE_MAX_N}")
    rng = seeded_stream(seed, 0)
    table = _increasing_transform(_random_submodular_table(n, rng), rng)
    oracle = make_tabular(table)
    if n <= SSBC_MAX_N:
        verdict = satisfies_ssbc(oracle, n)
        if not verdict.holds:
            raise InternalInvariantError(
                f"random instance (n={n}, seed={seed}) failed verification"
            )
    return oracle
