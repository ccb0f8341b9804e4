"""Blocking: pruning the candidate-pair space before pairwise scoring.

Comparing every record to every other record is quadratic; with the paper's
173 million entities that is out of the question, and even at laptop scale
blocking is what makes consolidation tractable.  Three strategies are
provided (all used in the blocking ablation benchmark):

* :class:`TokenBlocker` — records sharing any (non-rare) token of a key
  attribute land in the same block;
* :class:`NGramBlocker` — same idea over character n-grams, tolerant of
  misspellings;
* :class:`SortedNeighborhoodBlocker` — records sorted by a key, pairs formed
  within a sliding window.

Every blocker returns a :class:`BlockingResult` with the candidate pairs plus
the reduction-ratio bookkeeping the benchmarks report.  Blocking always runs
in the caller, on every executor: only pair scoring is worth shipping to the
process pool.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import EntityResolutionError
from ..text.tokenizer import ngrams, tokenize
from .record import Record

Pair = Tuple[str, str]


def _ordered(a: str, b: str) -> Pair:
    """Canonical ordering so (a, b) and (b, a) are the same pair."""
    return (a, b) if a <= b else (b, a)


def full_pair_count(n_records: int) -> int:
    """``n*(n-1)/2`` — the exhaustive pair count, without materializing it."""
    return n_records * (n_records - 1) // 2


def apply_pair_filter(result: "BlockingResult", pair_filter) -> "BlockingResult":
    """Apply a ``pairs -> (survivors, pruned_count)`` filter to a result.

    Used to run the provable candidate filter (:class:`repro.entity.kernel
    .CandidateFilter`) as part of blocking, so hopeless pairs never reach
    feature extraction.  ``None`` is a no-op.
    """
    if pair_filter is None or not result.pairs:
        return result
    survivors, pruned_count = pair_filter(result.pairs)
    result.pairs = survivors
    result.pruned_pairs += pruned_count
    return result


def full_pairs(records: Sequence[Record]) -> Set[Pair]:
    """Every unordered pair of distinct records (the no-blocking baseline)."""
    pairs: Set[Pair] = set()
    ids = [r.record_id for r in records]
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            pairs.add(_ordered(ids[i], ids[j]))
    return pairs


@dataclass
class BlockingResult:
    """Candidate pairs plus the bookkeeping needed to evaluate a blocker.

    ``pruned_pairs`` counts candidates dropped by an optional post-blocking
    ``pair_filter`` (see :class:`repro.entity.kernel.CandidateFilter`);
    ``emitted_count`` is the pre-filter candidate count.  Counts against the
    exhaustive baseline are computed arithmetically — ``full_pairs()`` is
    never materialized just to be counted.
    """

    pairs: Set[Pair] = field(default_factory=set)
    blocks: Dict[str, List[str]] = field(default_factory=dict)
    total_records: int = 0
    pruned_pairs: int = 0

    @property
    def candidate_count(self) -> int:
        """Number of candidate pairs produced (after any filtering)."""
        return len(self.pairs)

    @property
    def emitted_count(self) -> int:
        """Candidate pairs the blocker emitted before filtering."""
        return len(self.pairs) + self.pruned_pairs

    @property
    def full_pair_count(self) -> int:
        """Number of pairs an exhaustive comparison would score."""
        return full_pair_count(self.total_records)

    @property
    def reduction_ratio(self) -> float:
        """1 - emitted/full: how much work *blocking alone* saved.

        Uses the pre-filter ``emitted_count`` so the ratio measures the
        blocker, not the candidate filter — filter savings are reported
        separately as ``pruned_pairs``.
        """
        full = self.full_pair_count
        if full == 0:
            return 0.0
        return 1.0 - self.emitted_count / full

    def pair_completeness(self, true_pairs: Iterable[Pair]) -> float:
        """Fraction of known duplicate pairs that survive blocking (recall)."""
        true_set = {_ordered(a, b) for a, b in true_pairs}
        if not true_set:
            return 1.0
        found = sum(1 for pair in true_set if pair in self.pairs)
        return found / len(true_set)


class _BaseBlocker:
    """Shared machinery: build blocks, emit within-block pairs."""

    def __init__(self, max_block_size: int = 200):
        if max_block_size <= 1:
            raise EntityResolutionError("max_block_size must be > 1")
        self.max_block_size = max_block_size

    def keys_for(self, record: Record) -> Iterable[str]:
        """Return the blocking keys for one record (subclasses implement)."""
        raise NotImplementedError

    def block(self, records: Sequence[Record], pair_filter=None) -> BlockingResult:
        """Group records by key and emit all within-block pairs.

        Blocks larger than ``max_block_size`` are dropped: giant blocks come
        from uninformative keys (stop-word tokens, common n-grams) and would
        reintroduce the quadratic blow-up blocking exists to avoid.
        ``pair_filter`` (a ``pairs -> (survivors, pruned_count)`` callable)
        prunes emitted pairs after block assembly.
        """
        blocks: Dict[str, List[str]] = defaultdict(list)
        for record in records:
            for key in set(self.keys_for(record)):
                blocks[key].append(record.record_id)
        result = BlockingResult(total_records=len(records))
        kept_blocks: Dict[str, List[str]] = {}
        for key, members in blocks.items():
            if len(members) < 2 or len(members) > self.max_block_size:
                continue
            kept_blocks[key] = members
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    result.pairs.add(_ordered(members[i], members[j]))
        result.blocks = kept_blocks
        return apply_pair_filter(result, pair_filter)


class TokenBlocker(_BaseBlocker):
    """Block on the tokens of a key attribute (or of the whole record).

    ``token_source`` (set by the consolidator and the streaming curator)
    lets whole-record blocking reuse the scoring kernel's interned
    per-record tokenization instead of running the tokenizer a second
    time.  It is deliberately *not* honoured when a ``key_attribute``
    restricts the blocking key — the kernel interns the full comparison
    blob, not single attributes.
    """

    def __init__(
        self,
        key_attribute: Optional[str] = None,
        max_block_size: int = 200,
        min_token_length: int = 2,
    ):
        super().__init__(max_block_size=max_block_size)
        self.key_attribute = key_attribute
        self.min_token_length = min_token_length
        self.token_source = None

    def keys_for(self, record: Record) -> Iterable[str]:
        if self.key_attribute is not None:
            text = str(record.get(self.key_attribute, "") or "")
            tokens = tokenize(text)
        elif self.token_source is not None:
            # distinct tokens from the shared vocabulary: `block` applies
            # set() to the keys anyway, so this is equivalent to tokenize()
            tokens = self.token_source(record)
        else:
            tokens = tokenize(record.text_blob())
        return [
            token for token in tokens if len(token) >= self.min_token_length
        ]


class NGramBlocker(_BaseBlocker):
    """Block on character n-grams of a key attribute."""

    def __init__(
        self,
        key_attribute: Optional[str] = None,
        n: int = 4,
        max_block_size: int = 200,
    ):
        super().__init__(max_block_size=max_block_size)
        if n < 2:
            raise EntityResolutionError("n must be >= 2")
        self.key_attribute = key_attribute
        self.n = n

    def keys_for(self, record: Record) -> Iterable[str]:
        if self.key_attribute is not None:
            text = str(record.get(self.key_attribute, "") or "")
        else:
            text = record.text_blob()
        return ngrams(text, self.n)


class SortedNeighborhoodBlocker:
    """Sorted-neighborhood blocking: sort by key, pair within a window."""

    def __init__(
        self, key_attribute: Optional[str] = None, window: int = 5
    ):
        if window < 2:
            raise EntityResolutionError("window must be >= 2")
        self.key_attribute = key_attribute
        self.window = window

    def _sort_key(self, record: Record) -> str:
        if self.key_attribute is not None:
            return record.normalized(self.key_attribute)
        return record.text_blob()

    def block(self, records: Sequence[Record], pair_filter=None) -> BlockingResult:
        """Sort records and emit pairs within the sliding window.

        ``pair_filter`` prunes emitted pairs exactly as in
        :meth:`_BaseBlocker.block`.
        """
        ordered = sorted(records, key=self._sort_key)
        result = BlockingResult(total_records=len(records))
        for i in range(len(ordered)):
            for j in range(i + 1, min(i + self.window, len(ordered))):
                result.pairs.add(
                    _ordered(ordered[i].record_id, ordered[j].record_id)
                )
        result.blocks = {
            "sorted_neighborhood": [r.record_id for r in ordered]
        }
        return apply_pair_filter(result, pair_filter)


class BlockIndex:
    """Incrementally-maintained blocking state for the streaming engine.

    Mirrors exactly the candidate-pair set :meth:`_BaseBlocker.block`
    produces over the current record population: each blocking key owns a
    member set, a key contributes its within-block pairs only while its
    block size is in ``[2, max_block_size]``, and a per-pair support count
    tracks how many valid blocks contribute each pair.  Applying a delta
    touches only the keys of the changed records, so the cost of an update
    is bounded by the affected block sizes rather than the corpus size.

    ``apply`` returns the exact ``(added, removed)`` candidate-pair diff, so
    downstream scoring and clustering can stay incremental too.
    """

    @staticmethod
    def supports(blocker) -> bool:
        """Whether a blocker can be maintained incrementally.

        True for the block-based strategies (token, n-gram); the
        sorted-neighborhood window and the no-blocking baseline depend on
        global order and are re-derived per refresh instead.
        """
        return isinstance(blocker, _BaseBlocker)

    def __init__(self, blocker: _BaseBlocker):
        if not isinstance(blocker, _BaseBlocker):
            raise EntityResolutionError(
                "BlockIndex requires a block-based blocker (token or ngram)"
            )
        self._blocker = blocker
        self._keys_of: Dict[str, Tuple[str, ...]] = {}
        self._members: Dict[str, Set[str]] = {}
        self._support: Dict[Pair, int] = {}

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._keys_of

    def __len__(self) -> int:
        return len(self._keys_of)

    @property
    def candidate_pairs(self) -> Set[Pair]:
        """The current candidate-pair set (a fresh set)."""
        return set(self._support)

    @property
    def block_count(self) -> int:
        """Number of live blocking keys (of any size)."""
        return len(self._members)

    def _extract_keys(self, records: Sequence[Record]) -> List[Tuple[str, ...]]:
        """Distinct blocking keys per record, sorted."""
        return [
            tuple(sorted(set(self._blocker.keys_for(record))))
            for record in records
        ]

    def _valid(self, size: int) -> bool:
        """Whether a block of ``size`` members contributes its pairs."""
        return 2 <= size <= self._blocker.max_block_size

    def partners(self, record_id: str) -> Set[str]:
        """The records ``record_id`` currently forms a candidate pair with
        (those sharing a valid block with it); empty for unknown ids."""
        partners: Set[str] = set()
        for key in self._keys_of.get(record_id, ()):
            members = self._members[key]
            if self._valid(len(members)):
                partners |= members
        partners.discard(record_id)
        return partners

    def apply(
        self, upserts: Sequence[Record], deletes: Sequence[str]
    ) -> Tuple[Set[Pair], Set[Pair]]:
        """Apply a record delta; returns ``(added_pairs, removed_pairs)``.

        ``upserts`` may contain records already present (their old keys are
        retired first); ``deletes`` may name unknown ids (ignored).  The
        candidate-pair set after the call is exactly what a from-scratch
        ``blocker.block()`` over the new population would produce.

        A key whose block stays inside ``[2, max_block_size]`` changes only
        the pairs of the members that left or joined it — O(block × delta).
        Only a key crossing that validity boundary gains or loses its whole
        within-block pair set.
        """
        new_keys = self._extract_keys(list(upserts))
        # per key: the ids leaving it and joining it (an upserted record
        # that keeps a key does neither)
        leaving: Dict[str, Set[str]] = defaultdict(set)
        joining: Dict[str, Set[str]] = defaultdict(set)
        for record_id in deletes:
            for key in self._keys_of.pop(record_id, ()):
                leaving[key].add(record_id)
        for record, keys in zip(upserts, new_keys):
            record_id = record.record_id
            for key in self._keys_of.get(record_id, ()):
                leaving[key].add(record_id)
            self._keys_of[record_id] = keys
            for key in keys:
                if record_id in leaving[key]:
                    leaving[key].discard(record_id)
                else:
                    joining[key].add(record_id)

        support = self._support
        #: net support change per pair over the whole delta
        change: Dict[Pair, int] = defaultdict(int)
        for key in leaving.keys() | joining.keys():
            gone, come = leaving[key], joining[key]
            if not gone and not come:
                continue
            members = self._members.setdefault(key, set())
            was_valid = self._valid(len(members))
            stayers = members - gone
            now_valid = self._valid(len(stayers) + len(come))
            if was_valid and now_valid:
                for changed, step in ((gone, -1), (come, 1)):
                    for a in changed:
                        for b in stayers:
                            change[(a, b) if a <= b else (b, a)] += step
                    for pair in combinations(sorted(changed), 2):
                        change[pair] += step
            elif was_valid:
                for pair in combinations(sorted(members), 2):
                    change[pair] -= 1
            elif now_valid:
                for pair in combinations(sorted(stayers | come), 2):
                    change[pair] += 1
            members -= gone
            members |= come
            if not members:
                del self._members[key]

        added: Set[Pair] = set()
        removed: Set[Pair] = set()
        for pair, step in change.items():
            if not step:
                continue
            before = support.get(pair, 0)
            after = before + step
            if after > 0:
                support[pair] = after
                if not before:
                    added.add(pair)
            else:
                del support[pair]
                removed.add(pair)
        return added, removed


def make_blocker(
    strategy: str, key_attribute: Optional[str] = None, max_block_size: int = 200
):
    """Factory used by the consolidator to honour ``EntityConfig.blocking_strategy``."""
    if strategy == "token":
        return TokenBlocker(key_attribute=key_attribute, max_block_size=max_block_size)
    if strategy == "ngram":
        return NGramBlocker(key_attribute=key_attribute, max_block_size=max_block_size)
    if strategy == "sorted":
        return SortedNeighborhoodBlocker(key_attribute=key_attribute)
    if strategy == "none":
        return None
    raise EntityResolutionError(f"unknown blocking strategy: {strategy!r}")
