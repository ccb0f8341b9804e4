"""Vectorized pair-scoring kernel over an interned token vocabulary.

The scalar reference implementation, :func:`repro.entity.similarity
.pair_features`, re-does all of its expensive work once **per candidate
pair**: it re-tokenizes both records' text blobs, rebuilds ``Counter``
objects for the cosine, re-normalizes every attribute value through the full
:class:`~repro.text.normalize.TextNormalizer` pipeline, and runs pure-Python
Jaro-Winkler / Levenshtein per shared attribute.  Blocking puts each record
in many candidate pairs, so the same strings are processed over and over —
the constant factor, not the asymptotics, is what limits throughput.

This module makes the pipeline columnar:

* :class:`TokenVocabulary` interns tokens (and normalized attribute values)
  to dense integer ids, so token multisets become sorted ``int64`` arrays
  and value equality becomes integer comparison;
* :class:`ScoringKernel` gives every interned record a dense **row**: per-
  record columns (distinct and total token counts, norm, text-blob length,
  attribute-signature id) and per-attribute columns (normalized-value id,
  normalized length, numeric value and its presence) are filled once, at
  intern time.  A batch of pairs is two ``int64`` row arrays, and all eight
  features are computed for the whole batch with gathers and elementwise
  ops — a single sort over the concatenated per-pair token streams finds
  every token intersection, and the string-edit similarity is memoized per
  unique *value* pair instead of per record pair;
* :class:`CandidateFilter` prunes candidate pairs that **provably** cannot
  reach the classifier's match threshold, using PPJoin-style length/prefix
  filters on the token sets plus a sound per-pair upper bound on the linear
  decision score, so the expensive string-edit features are never computed
  for hopeless pairs.

Equivalence guarantee
---------------------

``ScoringKernel.features_for_pairs`` is **bit-for-bit identical** to calling
:func:`pair_features` per pair.  The load-bearing details:

* every division/sqrt happens on exactly the same operands: integer counts
  and lengths stay ``int64`` up to the one true division the scalar path
  does on Python ints (both are correctly rounded), and ``np.sqrt`` and
  ``math.sqrt`` are both correctly rounded;
* the per-attribute similarity lists are built in the scalar loop's order,
  the iteration order of ``attrs_a & attrs_b``.  CPython builds that set by
  walking the smaller operand (the right one on a tie) and inserting into a
  fresh set, so the order is a function of the two sets' own iteration
  orders.  A record's *signature* is its populated-attribute set's
  iteration order, and the order is taken once per ordered signature pair,
  from a real intersection of two sets rebuilt exactly like the first
  records of those signatures built theirs;
* ``np.mean`` of a k-element list is reproduced by ``np.add.reduce`` along
  axis 1 of a C-contiguous ``(m, k)`` matrix holding the m rows with
  exactly k entries, divided by k — the same pairwise summation the 1-d
  mean runs.  Accumulating column by column is *not* the same sum from
  k = 8 up;
* Python's ``max(a, b)`` is ``b if b > a else a``, which treats NaN
  differently from ``np.maximum``; it is written as exactly that
  ``np.where`` (numeric values such as ``"nan"`` or ``"1e999"`` reach it);
* memoized string-edit scores are the exact floats
  ``max(levenshtein_ratio(a, b), jaro_winkler(a, b))`` returns (equal
  values short-circuit to the same ``1.0`` both functions produce).

``CandidateFilter`` never prunes a pair the classifier would label a match
at its configured threshold: the linear score of a pruned pair is bounded
above by a provable margin below the decision boundary (the cheap features
are computed exactly; only the two string-edit features are replaced by
sound length-derived upper/lower bounds).
"""

from __future__ import annotations

import math
import threading
from collections import Counter, deque
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..schema.matchers import jaro_winkler, levenshtein_ratio
from ..text.tokenizer import tokenize
from .record import Record
from .similarity import FEATURE_NAMES, _to_float
from .stredit import batch_string_sim

Pair = Tuple[str, str]

#: Safety margin (in log-odds) under the decision boundary required before a
#: pair is pruned.  Covers the few-ulp difference between the kernel's
#: feature-by-feature bound accumulation and the classifier's fixed-order
#: linear score (:func:`repro.ml.linear.linear_scores`); many orders of
#: magnitude larger than any float64 rounding slop.
_PRUNE_MARGIN = 1e-9

#: Bound on the string-sim memo before it is dropped and restarted (keeps a
#: long-lived streaming kernel from growing without limit).
_MEMO_LIMIT = 1 << 20

#: Two 32-bit ids packed into one int64 key: ``(high << 32) | low``.
_LOW32 = (1 << 32) - 1

_NO_TOKENS = np.zeros(0, dtype=np.int64)

#: Per-record row columns, and per-(record, attribute) columns.
_ROW_COLUMNS = (
    "_n_distinct",
    "_n_tokens",
    "_norm",
    "_blob_len",
    "_n_attrs",
    "_signature",
)
_ATTRIBUTE_COLUMNS = ("_value_id", "_value_len", "_numeric", "_has_numeric")


class TokenVocabulary:
    """Interning table mapping strings to dense integer ids.

    Used for both tokens and normalized attribute values.  Ids are assigned
    in first-seen order and never change; every similarity in the kernel is
    id-order independent, so batch and streaming kernels agree even though
    they intern in different orders.
    """

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._strings: List[str] = []
        self._lex_ranks: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._strings)

    def __contains__(self, text: str) -> bool:
        return text in self._ids

    def intern(self, text: str) -> int:
        """Return the id for ``text``, assigning a fresh one if unseen."""
        interned = self._ids.get(text)
        if interned is None:
            interned = len(self._strings)
            self._ids[text] = interned
            self._strings.append(text)
            self._lex_ranks = None
        return interned

    def string(self, interned: int) -> str:
        """The string behind an id."""
        return self._strings[interned]

    def lex_ranks(self) -> np.ndarray:
        """Rank of every id under lexicographic string order.

        The *relation* between two strings is intrinsic, so prefix-filter
        decisions made against this order agree between kernels that
        interned the same strings in different orders (and between calls as
        the vocabulary grows).
        """
        if self._lex_ranks is None or len(self._lex_ranks) != len(self._strings):
            order = sorted(range(len(self._strings)), key=self._strings.__getitem__)
            ranks = np.empty(len(order), dtype=np.int64)
            ranks[np.asarray(order, dtype=np.int64)] = np.arange(
                len(order), dtype=np.int64
            )
            self._lex_ranks = ranks
        return self._lex_ranks


# -- array helpers --------------------------------------------------------------


def _ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """``numerator / denominator`` per element, ``0.0`` where it is 0.

    The scalar path's ``len(x) / len(y) if y else 0.0`` on Python ints: the
    int64 operands convert exactly and the one division is correctly
    rounded, as Python's int true division is.
    """
    out = np.zeros(numerator.shape[0], dtype=np.float64)
    nonzero = denominator != 0
    out[nonzero] = numerator[nonzero] / denominator[nonzero]
    return out


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices of the segments ``[start, start + length)``, in order."""
    ends = np.cumsum(lengths)
    return np.arange(int(ends[-1]) if ends.shape[0] else 0, dtype=np.int64) + (
        np.repeat(starts - (ends - lengths), lengths)
    )


def _pair_streams(
    local: np.ndarray, sizes: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(gather, pair_index)``: indices into a :meth:`ScoringKernel
    ._batch_tokens` run of the first ``lengths[k]`` ids of every pair's two
    records (all pairs' first sides, then all second sides), and the pair
    each gathered id belongs to."""
    n_pairs = local.shape[0] // 2
    taken = lengths[local]
    gather = _ragged((np.cumsum(sizes) - sizes)[local], taken)
    pair_index = np.repeat(np.tile(np.arange(n_pairs, dtype=np.int64), 2), taken)
    return gather, pair_index


def _row_means(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``float(np.mean(row[row_mask]))`` per row, ``0.0`` when none is selected.

    Bit-identical to the 1-d mean of each row's selected entries in their
    left-to-right order: rows are grouped by selection size k and each group
    is reduced as one C-contiguous ``(m, k)`` matrix along axis 1, then
    divided by k.  The loop runs once per distinct k — at most once per
    attribute, never per pair.
    """
    counts = mask.sum(axis=1)
    out = np.zeros(values.shape[0], dtype=np.float64)
    selected = values[mask]
    starts = np.cumsum(counts) - counts
    for size in np.unique(counts).tolist():
        if size == 0:
            continue
        members = np.flatnonzero(counts == size)
        block = selected[starts[members][:, None] + np.arange(size)]
        out[members] = np.add.reduce(block, axis=1) / size
    return out


class _SharedSlots:
    """The shared attributes of a pair batch as ``(pairs, K)`` matrices.

    Slot ``j`` of a pair holds both records' cells for the ``j``-th
    attribute of ``attrs_a & attrs_b`` in the scalar loop's iteration order.
    Slots past a pair's own shared count point at the kernel's
    never-populated column 0 (length 0, no numeric value), so the masks
    below exclude them without a separate validity test.
    """

    __slots__ = (
        "n_shared",
        "union",
        "vid_a",
        "vid_b",
        "len_a",
        "len_b",
        "num_a",
        "num_b",
        "numeric",
        "both",
        "equal",
        "lookup",
    )

    def cheap_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The exact ``(shared_attr_ratio, exact_match_fraction,
        numeric_closeness)`` columns."""
        shared_ratio = _ratio(self.n_shared, self.union)
        # equal non-empty values (equal ids imply equal lengths)
        exact_fraction = _ratio(self.equal.sum(axis=1), self.n_shared)
        abs_a, abs_b = np.abs(self.num_a), np.abs(self.num_b)
        denom = np.where(abs_b > abs_a, abs_b, abs_a)
        with np.errstate(all="ignore"):
            closeness = 1.0 - np.abs(self.num_a - self.num_b) / denom
        closeness = np.where(closeness > 0.0, closeness, 0.0)
        closeness = np.where(denom == 0, 1.0, closeness)
        return shared_ratio, exact_fraction, _row_means(closeness, self.numeric)

    def string_bounds(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(mean_lb, mean_ub, max_lb, max_ub)`` of the string-edit features.

        Equal value ids pin a similarity to exactly 1.0; unequal values
        admit ``levenshtein_ratio <= 1 - max(1, |la-lb|)/max`` (edit
        distance is at least the length difference, and at least 1 for
        distinct strings) and ``jaro_winkler <= 0.4 + 0.6*(2 + min/max)/3``
        (matches are bounded by the shorter string, the Winkler prefix boost
        is capped at 4 characters).  Both bounds are monotone consequences
        of the implementations in :mod:`repro.schema.matchers`;
        correctly-rounded float division keeps the monotonicity, and the
        filter adds a margin before pruning.
        """
        longest = np.where(self.len_a >= self.len_b, self.len_a, self.len_b)
        shortest = self.len_a + self.len_b - longest
        with np.errstate(all="ignore"):
            lev_ub = 1.0 - np.maximum(longest - shortest, 1) / longest
            jw_ub = 0.4 + 0.6 * (2.0 + shortest / longest) / 3.0
        upper = np.where(lev_ub >= jw_ub, lev_ub, jw_ub)
        upper = np.where(upper <= 1.0, upper, 1.0)
        bounds = np.where(self.equal, 1.0, np.where(self.both, upper, 0.0))
        n_equal = self.equal.sum(axis=1)
        return (
            _ratio(n_equal, self.both.sum(axis=1)),
            _row_means(bounds, self.both),
            np.where(n_equal > 0, 1.0, 0.0),
            np.max(bounds, axis=1, initial=0.0),
        )


class ScoringKernel:
    """Columnar pair featurization over interned per-record rows.

    One kernel instance owns a :class:`TokenVocabulary` (tokens), a value
    interning table (normalized attribute values), the per-record row
    tables, the shared-attribute order table and the string-edit memo.  It
    is cheap to build and grows lazily: records are interned on first use
    and re-interned automatically when a record id reappears with different
    content (streaming updates).

    A discarded or re-interned record's row is *retired* and reused only by
    an :meth:`intern` in a later batch, so no batch ever sees one of its rows
    rewritten and the tables stay bounded by the live records plus one
    batch's churn.  Row tables are written only by :meth:`intern` (and
    :meth:`intern_all`, :meth:`discard`): batch calls over records already
    interned only read them.
    """

    def __init__(
        self,
        compare_attributes: Optional[Sequence[str]] = None,
        tokenizer: Callable[[str], List[str]] = tokenize,
        use_stredit: bool = True,
    ):
        self._compare_attributes = (
            list(compare_attributes) if compare_attributes is not None else None
        )
        self._tokenizer = tokenizer
        self._use_stredit = bool(use_stredit)
        self.vocabulary = TokenVocabulary()
        self._values = TokenVocabulary()
        # -- per-record rows
        self._row_of: Dict[str, int] = {}
        self._records: List[Optional[Record]] = []
        self._uids: List[np.ndarray] = []
        self._counts: List[np.ndarray] = []
        self._free_rows: List[int] = []
        #: (batch epoch of retirement, row), oldest first
        self._retired: Deque[Tuple[int, int]] = deque()
        self._epoch = 0
        self._n_distinct = np.zeros(0, dtype=np.int64)
        self._n_tokens = np.zeros(0, dtype=np.int64)
        self._norm = np.zeros(0, dtype=np.float64)
        self._blob_len = np.zeros(0, dtype=np.int64)
        self._n_attrs = np.zeros(0, dtype=np.int64)
        self._signature = np.zeros(0, dtype=np.int64)
        # -- per-(row, attribute column) cells; column 0 is never populated
        self._attr_column: Dict[str, int] = {}
        self._value_id = np.zeros((0, 1), dtype=np.int64)
        self._value_len = np.zeros((0, 1), dtype=np.int64)
        self._numeric = np.zeros((0, 1), dtype=np.float64)
        self._has_numeric = np.zeros((0, 1), dtype=bool)
        # -- attribute signatures and the shared-attribute order table
        self._signature_of: Dict[Tuple[str, ...], int] = {}
        #: signature -> populated keys of its first record, in dict order
        self._signature_keys: List[List[str]] = []
        #: ordered signature pair key -> entry of ``_order``/``_order_len``
        self._order_entry: Dict[int, int] = {}
        self._order = np.zeros((0, 0), dtype=np.int64)
        self._order_len = np.zeros(0, dtype=np.int64)
        self._order_lock = threading.Lock()
        #: Two-generation string-sim memo: lookups hit the new generation
        #: first, then the old one (promoting on hit).  When the new
        #: generation reaches ``_memo_limit`` it *becomes* the old one
        #: instead of being cleared, so hot value pairs survive eviction —
        #: a flat ``clear()`` caused a recompute storm on the next batch.
        self._memo_limit = _MEMO_LIMIT
        self._string_sim_new: Dict[int, float] = {}
        self._string_sim_old: Dict[int, float] = {}
        self._memo_hits = 0
        self._memo_misses = 0

    @property
    def compare_attributes(self) -> Optional[List[str]]:
        """The attribute restriction every featurization applies."""
        return (
            list(self._compare_attributes)
            if self._compare_attributes is not None
            else None
        )

    @property
    def cached_records(self) -> int:
        """Number of records currently interned."""
        return len(self._row_of)

    @property
    def table_rows(self) -> int:
        """Rows allocated in the per-record tables (live or awaiting reuse)."""
        return len(self._records)

    @property
    def memo_size(self) -> int:
        """Number of memoized unique string-edit value pairs."""
        return len(self._string_sim_new) + len(self._string_sim_old)

    @property
    def memo_hits(self) -> int:
        """String-sim lookups answered by the memo (either generation)."""
        return self._memo_hits

    @property
    def memo_misses(self) -> int:
        """String-sim lookups that had to compute the similarity.

        Every (pair, shared attribute) lookup of two unequal non-empty
        values counts once: ``memo_hits + memo_misses`` is the number of
        lookups, and a value pair first met in a batch is one miss however
        many pairs of that batch look it up.
        """
        return self._memo_misses

    @property
    def uses_stredit(self) -> bool:
        """Whether memo misses are batch-computed by the stredit engine."""
        return self._use_stredit

    # -- interning -----------------------------------------------------------

    def intern(self, record: Record) -> int:
        """The row holding ``record``'s interned data, built on first use.

        Rows are keyed by record id and validated against the record's
        content, so streaming updates (same id, new fields) re-intern
        transparently; the stale row is retired, not overwritten.
        """
        row = self._row_of.get(record.record_id)
        if row is not None:
            cached = self._records[row]
            if cached is record or cached == record:
                return row
            self._retire(row)
        row = self._allocate_row()
        self._fill(row, record)
        self._row_of[record.record_id] = row
        return row

    def discard(self, record_id: str) -> None:
        """Drop a record's interned data (streaming deletes)."""
        row = self._row_of.pop(record_id, None)
        if row is not None:
            self._retire(row)

    def intern_all(self, records: Iterable[Record]) -> None:
        """Intern many records up front, in one batch epoch.

        Afterwards, featurizing pairs over these records only *reads* the
        row tables.
        """
        self._epoch += 1
        for record in records:
            self.intern(record)

    def unique_tokens_for(self, record: Record) -> List[str]:
        """The record's distinct blob tokens, decoded from the vocabulary.

        Lets blockers reuse the interned tokenization instead of running the
        tokenizer again.  Only meaningful when the kernel has no
        ``compare_attributes`` restriction (the blob is the whole record,
        exactly what ``TokenBlocker`` tokenizes).
        """
        string = self.vocabulary.string
        return [string(uid) for uid in self._uids[self.intern(record)].tolist()]

    def _retire(self, row: int) -> None:
        self._records[row] = None
        self._retired.append((self._epoch, row))

    def _allocate_row(self) -> int:
        """A free row: one retired before the current batch began, else new."""
        retired = self._retired
        while retired and retired[0][0] < self._epoch:
            self._free_rows.append(retired.popleft()[1])
        if self._free_rows:
            return self._free_rows.pop()
        row = len(self._records)
        self._records.append(None)
        self._uids.append(_NO_TOKENS)
        self._counts.append(_NO_TOKENS)
        if row >= self._n_distinct.shape[0]:
            self._grow(row + 1, self._value_id.shape[1])
        return row

    def _grow(self, rows: int, columns: int) -> None:
        """Reallocate the row tables to at least ``rows`` x ``columns``."""
        old_rows, old_columns = self._value_id.shape
        if rows > old_rows:
            rows = max(rows, 2 * old_rows, 16)
        if columns > old_columns:
            columns = max(columns, 2 * old_columns)
        rows, columns = max(rows, old_rows), max(columns, old_columns)
        for name in _ROW_COLUMNS:
            old = getattr(self, name)
            new = np.zeros(rows, dtype=old.dtype)
            new[:old_rows] = old
            setattr(self, name, new)
        for name in _ATTRIBUTE_COLUMNS:
            old = getattr(self, name)
            new = np.zeros((rows, columns), dtype=old.dtype)
            new[:old_rows, :old_columns] = old
            setattr(self, name, new)

    def _fill(self, row: int, record: Record) -> None:
        """Write ``record``'s per-record and per-attribute cells into ``row``."""
        dict_r = record.as_dict()
        blob = record.text_blob(self._compare_attributes)
        tokens = self._tokenizer(blob)
        counter = Counter(tokens)
        n_distinct = len(counter)
        uids = np.empty(n_distinct, dtype=np.int64)
        raw_counts = np.empty(n_distinct, dtype=np.int64)
        for slot, (token, count) in enumerate(counter.items()):
            uids[slot] = self.vocabulary.intern(token)
            raw_counts[slot] = count
        order = np.argsort(uids)
        counts = raw_counts[order]

        populated = [k for k, v in dict_r.items() if v not in (None, "")]
        attrs = self._attribute_set(populated)
        columns = [self._column_for(attr) for attr in attrs]
        if columns and max(columns) >= self._value_id.shape[1]:
            self._grow(self._n_distinct.shape[0], max(columns) + 1)

        self._records[row] = record
        self._uids[row] = uids[order]
        self._counts[row] = counts
        self._n_distinct[row] = n_distinct
        self._n_tokens[row] = len(tokens)
        # bit-identical to the scalar path's math.sqrt over the same int
        self._norm[row] = math.sqrt(int(np.dot(counts, counts)) if n_distinct else 0)
        self._blob_len[row] = len(blob)
        self._n_attrs[row] = len(attrs)
        self._signature[row] = self._signature_for(attrs, populated)
        # a reused row still holds its previous tenant's attribute cells
        self._value_id[row] = 0
        self._value_len[row] = 0
        self._numeric[row] = 0.0
        self._has_numeric[row] = False
        for attr, column in zip(attrs, columns):
            normalized = record.normalized(attr)
            self._value_id[row, column] = self._values.intern(normalized)
            self._value_len[row, column] = len(normalized)
            numeric = _to_float(dict_r.get(attr))
            if numeric is not None:
                self._numeric[row, column] = numeric
                self._has_numeric[row, column] = True

    def _column_for(self, attr: str) -> int:
        column = self._attr_column.get(attr)
        if column is None:
            column = len(self._attr_column) + 1
            self._attr_column[attr] = column
        return column

    def _attribute_set(self, populated: Iterable[str]) -> Set[str]:
        """The populated-attribute set, built exactly like the scalar path
        builds it (same insertion sequence, hence the same table layout and
        iteration order)."""
        attrs = {k for k in populated}
        if self._compare_attributes is not None:
            attrs &= set(self._compare_attributes)
        return attrs

    def _signature_for(self, attrs: Set[str], populated: List[str]) -> int:
        """The id of ``attrs``'s iteration order.

        The first record's populated keys are kept to rebuild the set: an
        intersection must run on two distinct set objects, because CPython
        answers ``s & s`` with a copy of ``s`` — an order two records that
        merely share a signature do not get.
        """
        key = tuple(attrs)
        signature = self._signature_of.get(key)
        if signature is None:
            signature = len(self._signature_keys)
            self._signature_of[key] = signature
            self._signature_keys.append(populated)
        return signature

    # -- pair batches ----------------------------------------------------------

    def _rows_for(
        self, records_by_id: Dict[str, Record], pairs: Sequence[Pair]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(row_a, row_b)`` arrays for a batch of record-id pairs.

        Starts a batch (rows retired before it become reusable) and interns
        each distinct record once; an already-interned record costs a
        dictionary hit and an identity check, not a call.
        """
        self._epoch += 1
        ids_a = [a for a, _ in pairs]
        ids_b = [b for _, b in pairs]
        row_of = dict.fromkeys(ids_a)
        row_of.update(dict.fromkeys(ids_b))
        interned, records = self._row_of, self._records
        for record_id in row_of:
            record = records_by_id[record_id]
            row = interned.get(record_id)
            if row is None or records[row] is not record:
                row = self.intern(record)
            row_of[record_id] = row
        n_pairs = len(ids_a)
        return (
            np.fromiter(map(row_of.__getitem__, ids_a), dtype=np.int64, count=n_pairs),
            np.fromiter(map(row_of.__getitem__, ids_b), dtype=np.int64, count=n_pairs),
        )

    def _shared_order(
        self, rows_a: np.ndarray, rows_b: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(columns, n_shared)``: per pair, the attribute columns of
        ``attrs_a & attrs_b`` in iteration order (0-padded) and their count.
        """
        keys = (self._signature[rows_a] << 32) | self._signature[rows_b]
        unique, inverse = np.unique(keys, return_inverse=True)
        entries = []
        for key in unique.tolist():
            entry = self._order_entry.get(key)
            if entry is None:
                entry = self._add_order_entry(key)
            entries.append(entry)
        # read after every entry above was published
        order, order_len = self._order, self._order_len
        picked = np.asarray(entries, dtype=np.int64)[inverse]
        n_shared = order_len[picked]
        return order[picked, : int(n_shared.max())], n_shared

    def _add_order_entry(self, key: int) -> int:
        """Take the shared-attribute order of one ordered signature pair
        from a real intersection of its two signatures' rebuilt sets.

        Threads sharing one kernel may meet a new signature pair at the same
        time, hence the lock; a grown table replaces the old one, and an
        entry's row is written before its id is published.
        """
        with self._order_lock:
            entry = self._order_entry.get(key)
            if entry is not None:
                return entry
            keys = self._signature_keys
            shared = self._attribute_set(keys[key >> 32]) & self._attribute_set(
                keys[key & _LOW32]
            )
            columns = [self._attr_column[attr] for attr in shared]
            entry = len(self._order_entry)
            rows, width = self._order.shape
            if entry >= rows or len(columns) > width:
                order = np.zeros(
                    (max(2 * rows, 16), max(width, len(columns))), dtype=np.int64
                )
                order[:rows, :width] = self._order
                order_len = np.zeros(order.shape[0], dtype=np.int64)
                order_len[:rows] = self._order_len
                self._order, self._order_len = order, order_len
            self._order[entry, : len(columns)] = columns
            self._order_len[entry] = len(columns)
            self._order_entry[key] = entry
            return entry

    def _shared_slots(self, rows_a: np.ndarray, rows_b: np.ndarray) -> _SharedSlots:
        columns, n_shared = self._shared_order(rows_a, rows_b)
        a, b = rows_a[:, None], rows_b[:, None]
        slots = _SharedSlots()
        slots.n_shared = n_shared
        slots.union = self._n_attrs[rows_a] + self._n_attrs[rows_b] - n_shared
        slots.vid_a = self._value_id[a, columns]
        slots.vid_b = self._value_id[b, columns]
        slots.len_a = self._value_len[a, columns]
        slots.len_b = self._value_len[b, columns]
        slots.num_a = self._numeric[a, columns]
        slots.num_b = self._numeric[b, columns]
        slots.numeric = self._has_numeric[a, columns] & self._has_numeric[b, columns]
        # both values non-empty: the slots behind the string-edit features
        slots.both = (slots.len_a > 0) & (slots.len_b > 0)
        slots.equal = slots.both & (slots.vid_a == slots.vid_b)
        slots.lookup = slots.both & ~slots.equal
        return slots

    # -- string-edit memo ----------------------------------------------------

    def _memo_insert(self, key: int, value: float) -> None:
        """Insert into the new generation, rotating generations at the limit."""
        if len(self._string_sim_new) >= self._memo_limit:
            self._string_sim_old = self._string_sim_new
            self._string_sim_new = {}
        self._string_sim_new[key] = value

    def _string_sims(self, vid_a: np.ndarray, vid_b: np.ndarray) -> np.ndarray:
        """``max(levenshtein_ratio, jaro_winkler)`` per unequal value-id pair.

        Each distinct pair is looked up once, in the new generation, then
        the old one (promoting on hit); the misses are computed together —
        through the stredit engine, whose floats are bit-identical to the
        scalar oracle, unless it is disabled — and memoized.
        """
        n_lookups = vid_a.shape[0]
        if n_lookups == 0:
            return np.zeros(0, dtype=np.float64)
        unique, inverse = np.unique((vid_a << 32) | vid_b, return_inverse=True)
        values: List[float] = []
        missing: List[int] = []
        promoted: List[int] = []
        fresh, old = self._string_sim_new, self._string_sim_old
        for key in unique.tolist():
            value = fresh.get(key)
            if value is None:
                value = old.pop(key, None)
                if value is None:
                    missing.append(len(values))
                    value = 0.0
                else:
                    promoted.append(len(values))
            values.append(value)
        keys = unique.tolist()
        for slot in promoted:
            self._memo_insert(keys[slot], values[slot])
        if missing:
            string = self._values.string
            strings = [
                (string(keys[slot] >> 32), string(keys[slot] & _LOW32))
                for slot in missing
            ]
            if self._use_stredit:
                computed = batch_string_sim(strings)
            else:
                computed = [
                    max(levenshtein_ratio(a, b), jaro_winkler(a, b))
                    for a, b in strings
                ]
            for slot, value in zip(missing, computed):
                values[slot] = value
                self._memo_insert(keys[slot], value)
        self._memo_misses += len(missing)
        self._memo_hits += n_lookups - len(missing)
        return np.asarray(values, dtype=np.float64)[inverse]

    def value_pairs(
        self, records_by_id: Dict[str, Record], pairs: Sequence[Pair]
    ) -> List[Tuple[str, str]]:
        """The distinct unequal value pairs featurizing ``pairs`` looks up
        in the string-sim memo, in first-lookup order (the stredit engine's
        workload on a cold memo)."""
        rows_a, rows_b = self._rows_for(records_by_id, pairs)
        if rows_a.shape[0] == 0:
            return []
        slots = self._shared_slots(rows_a, rows_b)
        keys = (slots.vid_a[slots.lookup] << 32) | slots.vid_b[slots.lookup]
        _, first = np.unique(keys, return_index=True)
        string = self._values.string
        return [
            (string(key >> 32), string(key & _LOW32))
            for key in keys[np.sort(first)].tolist()
        ]

    # -- columnar features ---------------------------------------------------

    def _batch_tokens(
        self, rows_a: np.ndarray, rows_b: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The token ids and counts of a batch's distinct records, concatenated.

        Returns ``(local, uids, counts, sizes)``: record ``k``'s run of
        ``sizes[k]`` ids, and pair ``i``'s two records are ``local[i]`` and
        ``local[n_pairs + i]``.
        """
        unique, local = np.unique(np.concatenate([rows_a, rows_b]), return_inverse=True)
        members = unique.tolist()
        return (
            local,
            np.concatenate([self._uids[row] for row in members]),
            np.concatenate([self._counts[row] for row in members]),
            self._n_distinct[unique],
        )

    def _token_columns(
        self, rows_a: np.ndarray, rows_b: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(jaccard, cosine)`` per pair.

        One sort over the concatenated per-pair token streams finds every
        intersection: within one pair each side's ids are unique, so a
        token shared by both sides appears exactly twice, adjacently, in the
        sorted stream.  All intersection counts and count-products are small
        integers — exact in float64 — so the final divisions see exactly the
        operands the scalar path divides.
        """
        n_pairs = rows_a.shape[0]
        local, uids, counts, sizes = self._batch_tokens(rows_a, rows_b)
        gather, pair_index = _pair_streams(local, sizes, sizes)
        keys = pair_index * np.int64(len(self.vocabulary)) + uids[gather]
        order = np.argsort(keys)
        sorted_keys = keys[order]
        sorted_counts = counts[gather][order]
        duplicate = sorted_keys[1:] == sorted_keys[:-1]
        dup_pairs = pair_index[order][1:][duplicate]
        intersection = np.bincount(dup_pairs, minlength=n_pairs)
        products = (sorted_counts[1:] * sorted_counts[:-1])[duplicate]
        dot = np.bincount(
            dup_pairs, weights=products.astype(np.float64), minlength=n_pairs
        )

        distinct_a, distinct_b = self._n_distinct[rows_a], self._n_distinct[rows_b]
        union = distinct_a + distinct_b - intersection
        # jaccard_similarity's empty-set convention: both empty -> 1.0
        jaccard = np.where(union > 0, _ratio(intersection, union), 1.0)

        cosine = np.zeros(n_pairs, dtype=np.float64)
        populated = (self._n_tokens[rows_a] > 0) & (self._n_tokens[rows_b] > 0)
        # same op order as the scalar path: dot / (norm_a * norm_b)
        cosine[populated] = dot[populated] / (
            self._norm[rows_a][populated] * self._norm[rows_b][populated]
        )
        return jaccard, cosine

    def _length_ratio_column(
        self, rows_a: np.ndarray, rows_b: np.ndarray
    ) -> np.ndarray:
        len_a, len_b = self._blob_len[rows_a], self._blob_len[rows_b]
        low = np.minimum(len_a, len_b)
        high = np.maximum(len_a, len_b)
        # both empty -> 1.0, one empty -> 0.0, else min/max
        ratio = _ratio(low, high)
        ratio[high == 0] = 1.0
        return ratio

    def _string_columns(self, slots: _SharedSlots) -> Tuple[np.ndarray, np.ndarray]:
        """``(mean_string_similarity, max_string_similarity)`` per pair."""
        sims = np.where(slots.equal, 1.0, 0.0)
        sims[slots.lookup] = self._string_sims(
            slots.vid_a[slots.lookup], slots.vid_b[slots.lookup]
        )
        return _row_means(sims, slots.both), np.max(sims, axis=1, initial=0.0)

    # -- public featurization --------------------------------------------------

    def features_for_record_pairs(
        self, pairs: Sequence[Tuple[Record, Record]]
    ) -> np.ndarray:
        """Feature matrix for record-object pairs (one row per pair).

        Each distinct record object is interned once; two objects sharing an
        id but not content get separate rows for the whole batch.
        """
        self._epoch += 1
        row_of: Dict[int, int] = {}
        for pair in pairs:
            for record in pair:
                if id(record) not in row_of:
                    row_of[id(record)] = self.intern(record)
        rows_a = np.array([row_of[id(a)] for a, _ in pairs], dtype=np.int64)
        rows_b = np.array([row_of[id(b)] for _, b in pairs], dtype=np.int64)
        return self._assemble(rows_a, rows_b)

    def features_for_pairs(
        self,
        records_by_id: Dict[str, Record],
        pairs: Sequence[Pair],
    ) -> np.ndarray:
        """Feature matrix for record-id pairs (one row per pair, in order)."""
        return self._assemble(*self._rows_for(records_by_id, pairs))

    def _assemble(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        out = np.zeros((rows_a.shape[0], len(FEATURE_NAMES)), dtype=float)
        if rows_a.shape[0] == 0:
            return out
        out[:, 0], out[:, 1] = self._token_columns(rows_a, rows_b)
        slots = self._shared_slots(rows_a, rows_b)
        out[:, 2], out[:, 3], out[:, 6] = slots.cheap_columns()
        out[:, 4], out[:, 5] = self._string_columns(slots)
        out[:, 7] = self._length_ratio_column(rows_a, rows_b)
        return out

    def _prefixes_overlap(
        self, rows_a: np.ndarray, rows_b: np.ndarray, threshold: float
    ) -> np.ndarray:
        """Whether each pair's token prefixes share a token.

        A record's prefix is its first ``d - ceil(threshold * d) + 1``
        distinct tokens in lexicographic order (``d`` >= 1 distinct tokens).
        """
        ranks = self.vocabulary.lex_ranks()
        local, uids, _, sizes = self._batch_tokens(rows_a, rows_b)
        owner = np.repeat(np.arange(sizes.shape[0]), sizes)
        uids = uids[np.lexsort((ranks[uids], owner))]
        keep = sizes - np.ceil(threshold * sizes).astype(np.int64) + 1
        gather, pair_index = _pair_streams(local, sizes, keep)
        vocab_size = np.int64(len(self.vocabulary))
        keys = np.sort(pair_index * vocab_size + uids[gather])
        overlap = np.zeros(rows_a.shape[0], dtype=bool)
        overlap[keys[1:][keys[1:] == keys[:-1]] // vocab_size] = True
        return overlap


# -- candidate filtering ------------------------------------------------------


class FilterStats:
    """Bookkeeping from one :meth:`CandidateFilter.split` call."""

    __slots__ = ("examined", "pruned_by_prefix", "pruned_by_bound")

    def __init__(self) -> None:
        self.examined = 0
        self.pruned_by_prefix = 0
        self.pruned_by_bound = 0

    @property
    def pruned(self) -> int:
        """Total pairs pruned."""
        return self.pruned_by_prefix + self.pruned_by_bound

    def as_dict(self) -> dict:
        """The stats as a plain dictionary (for benchmarks/reports)."""
        return {
            "examined": self.examined,
            "pruned_by_prefix": self.pruned_by_prefix,
            "pruned_by_bound": self.pruned_by_bound,
            "pruned": self.pruned,
        }


class CandidateFilter:
    """Prune candidate pairs that provably cannot match.

    Built from a *linear* pairwise classifier (weights ``w``, bias ``b``)
    and its probability threshold ``tau``: a pair is a match iff its linear
    score ``z = w.x + b`` reaches ``z_req = logit(tau)``.  Two sound filters
    are applied, cheapest first:

    1. **Length + prefix filters (PPJoin-style).**  When the weights imply a
       minimum ``token_jaccard`` ``t*`` below which no pair can match (every
       other feature at its maximum), a pair whose distinct-token counts
       satisfy ``min/max < t*`` is pruned outright, and surviving pairs must
       share a token within their lexicographic-order prefixes of length
       ``d - ceil(t*.d) + 1``.
    2. **Linear score bound.**  ``z`` is bounded above using the *exact*
       values of the six cheap features (token, attribute-overlap, numeric
       and length features) and sound interval bounds for the two
       string-edit features; pairs whose bound stays below ``z_req`` by
       :data:`_PRUNE_MARGIN` are pruned.

    Both run as array operations over the whole batch.  Pruned pairs are
    exactly pairs the classifier would score below its threshold, so the
    matched-pair set — and everything downstream (clusters, entities,
    end-to-end recall) — is bit-identical with the filter on or off.
    """

    def __init__(
        self,
        weights: Sequence[float],
        bias: float,
        z_required: float,
    ):
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(FEATURE_NAMES),):
            raise ValueError(
                f"expected {len(FEATURE_NAMES)} feature weights, got {weights.shape}"
            )
        self._weights = weights
        self._bias = float(bias)
        self._z_required = float(z_required)
        index = {name: i for i, name in enumerate(FEATURE_NAMES)}
        self._i_jac = index["token_jaccard"]
        self._i_cos = index["token_cosine"]
        self._i_shared = index["shared_attr_ratio"]
        self._i_exact = index["exact_match_fraction"]
        self._i_mean = index["mean_string_similarity"]
        self._i_max = index["max_string_similarity"]
        self._i_num = index["numeric_closeness"]
        self._i_len = index["length_ratio"]
        self._min_jaccard = self._derive_min_jaccard()

    @classmethod
    def from_model(cls, model) -> Optional["CandidateFilter"]:
        """Build a filter from a fitted model, or ``None`` if unsupported.

        The model must expose ``linear_decision()`` returning
        ``(weights, bias, z_required)`` (``None`` for non-linear
        classifiers such as naive Bayes, where no sound cheap bound on the
        decision score exists).
        """
        linear_decision = getattr(model, "linear_decision", None)
        if linear_decision is None:
            return None
        decision = linear_decision()
        if decision is None:
            return None
        weights, bias, z_required = decision
        if not math.isfinite(z_required):
            # threshold 0 (everything matches) or 1 (float rounding can
            # still produce probability 1.0): no sound pruning exists
            return None
        return cls(weights, bias, z_required)

    @property
    def min_token_jaccard(self) -> float:
        """The derived necessary ``token_jaccard`` (``<= 0`` disables the
        length/prefix filters)."""
        return self._min_jaccard

    def _derive_min_jaccard(self) -> float:
        """Smallest ``token_jaccard`` compatible with reaching the threshold
        when every other feature sits at its most favourable value."""
        w_jac = self._weights[self._i_jac]
        if w_jac <= 0:
            return float("-inf")
        slack = self._z_required - _PRUNE_MARGIN - self._bias
        for i, w in enumerate(self._weights):
            if i == self._i_jac:
                continue
            if w > 0:
                slack -= w  # feature at its maximum, 1.0
        return slack / w_jac

    def _prefix_survivors(
        self, kernel: ScoringKernel, rows_a: np.ndarray, rows_b: np.ndarray
    ) -> np.ndarray:
        """Mask of the pairs the length/prefix filters keep."""
        threshold = self._min_jaccard
        if threshold <= 0.0:
            return np.ones(rows_a.shape[0], dtype=bool)
        distinct_a, distinct_b = kernel._n_distinct[rows_a], kernel._n_distinct[rows_b]
        low = np.minimum(distinct_a, distinct_b)
        high = np.maximum(distinct_a, distinct_b)
        empty = high == 0
        # both token sets empty: jaccard is exactly 1.0 by convention
        keep = np.where(empty, threshold <= 1.0, ~(_ratio(low, high) < threshold))
        check = np.flatnonzero(keep & ~empty)
        if check.shape[0]:
            keep[check] = kernel._prefixes_overlap(
                rows_a[check], rows_b[check], threshold
            )
        return keep

    def _bound_scores(
        self, kernel: ScoringKernel, rows_a: np.ndarray, rows_b: np.ndarray
    ) -> np.ndarray:
        """Upper bound on the linear score ``z`` of each pair."""
        if rows_a.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        jaccard, cosine = kernel._token_columns(rows_a, rows_b)
        slots = kernel._shared_slots(rows_a, rows_b)
        shared, exact, numeric = slots.cheap_columns()
        mean_lb, mean_ub, max_lb, max_ub = slots.string_bounds()
        w = self._weights
        # the feature-by-feature accumulation order of the scalar bound
        z = self._bias + w[self._i_jac] * jaccard
        z = z + w[self._i_cos] * cosine
        z = z + w[self._i_shared] * shared
        z = z + w[self._i_exact] * exact
        z = z + w[self._i_mean] * (mean_ub if w[self._i_mean] > 0 else mean_lb)
        z = z + w[self._i_max] * (max_ub if w[self._i_max] > 0 else max_lb)
        z = z + w[self._i_num] * numeric
        return z + w[self._i_len] * kernel._length_ratio_column(rows_a, rows_b)

    def split(
        self,
        kernel: ScoringKernel,
        records_by_id: Dict[str, Record],
        pairs: Sequence[Pair],
    ) -> Tuple[List[Pair], Set[Pair], FilterStats]:
        """Partition ``pairs`` into (survivors, pruned, stats).

        Survivors keep their input order.  Every pruned pair provably scores
        below the classifier threshold.
        """
        pairs = list(pairs)
        stats = FilterStats()
        stats.examined = len(pairs)
        if not pairs:
            return [], set(), stats
        rows_a, rows_b = kernel._rows_for(records_by_id, pairs)
        candidates = np.flatnonzero(self._prefix_survivors(kernel, rows_a, rows_b))
        stats.pruned_by_prefix = len(pairs) - candidates.shape[0]
        z = self._bound_scores(kernel, rows_a[candidates], rows_b[candidates])
        below = z < self._z_required - _PRUNE_MARGIN
        stats.pruned_by_bound = int(below.sum())
        survive = np.zeros(len(pairs), dtype=bool)
        survive[candidates[~below]] = True
        survivors = [pairs[i] for i in np.flatnonzero(survive).tolist()]
        pruned = {pairs[i] for i in np.flatnonzero(~survive).tolist()}
        return survivors, pruned, stats

    def as_pair_filter(
        self, kernel: ScoringKernel, records_by_id: Dict[str, Record]
    ) -> Callable[[Set[Pair]], Tuple[Set[Pair], int]]:
        """A ``pairs -> (survivor_set, pruned_count)`` callable for blockers."""

        def pair_filter(pairs: Set[Pair]) -> Tuple[Set[Pair], int]:
            survivors, pruned, _ = self.split(kernel, records_by_id, sorted(pairs))
            return set(survivors), len(pruned)

        return pair_filter
