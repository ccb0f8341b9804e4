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
the reduction-ratio bookkeeping the benchmarks report.

Each blocker's ``block`` method accepts an optional
:class:`~repro.exec.executor.ShardedExecutor`; when given, the expensive
per-record key extraction (tokenization, n-gramming, sort-key normalization)
fans out over deterministic record shards, while block assembly and pair
emission — which depend on global order — stay centralized.  Records carry
their original input index through the fan-out, so the merged result is
bit-identical to the sequential one.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import EntityResolutionError
from ..text.tokenizer import ngrams, tokenize
from .record import Record

Pair = Tuple[str, str]


def _shard_record_keys(blocker, part):
    """Key extraction over ``(index, record)`` items for block-based blockers."""
    return [
        (index, record.record_id, list(blocker.keys_for(record)))
        for index, record in part
    ]


def _shard_sort_keys(blocker, part):
    """Sort-key extraction over ``(index, record)`` items (sorted-neighborhood)."""
    return [(index, blocker._sort_key(record)) for index, record in part]


#: Versioned warm-context key carrying the ordered record-id scope of one
#: blocking run to the persistent pool workers.
_BLOCK_SCOPE_CONTEXT = "blocking:scope"


def _fan_out_warm(executor, blocker, kind, records):
    """Warm-pool key extraction: fan-outs ship shard ids, not records.

    The persistent workers already mirror the record corpus through the
    warm-state delta protocol, so instead of pickling ``(index, record)``
    partitions into every dispatch, this path syncs the record *deltas*
    once, broadcasts the ordered id scope as a versioned context, and sends
    each worker nothing but its shard index.  Workers re-derive their
    partition with the same ``ShardRouter`` hash
    :meth:`~repro.exec.executor.ShardedExecutor.partition` uses, so the
    merged result is exactly what inline extraction produces.

    Returns ``None`` when the scope contains duplicate record ids — the
    workers' record store is keyed by id, so aliased records are keyed
    inline instead.
    """
    from ..exec.pool import warm_block_keys
    from ..storage.sharding import _stable_hash

    ids = tuple(record.record_id for record in records)
    by_id = {record.record_id: record for record in records}
    if len(by_id) != len(ids):
        return None
    pool = executor.ensure_pool()
    pool.sync_records(by_id)
    executor.sync_warm_context(_BLOCK_SCOPE_CONTEXT, _stable_hash(ids), ids)
    num_shards = max(1, executor.parallelism)
    worker = partial(
        warm_block_keys, blocker, kind, _BLOCK_SCOPE_CONTEXT, num_shards
    )
    shard_results = executor.map_shards(
        worker, list(range(num_shards)), always_fan_out=True
    )
    merged = [entry for result in shard_results for entry in result]
    merged.sort(key=lambda entry: entry[0])
    return merged


def _fan_out_indexed(executor, blocker, kind, records):
    """Fan key extraction out over shards, in original input order.

    ``kind`` is ``"keys"`` (blocking keys per record) or ``"sort"``
    (sorted-neighborhood sort keys).  Key extraction runs on the warm pool
    (:func:`_fan_out_warm`); a scope of one record, or one with duplicate
    ids, is keyed inline.  Returns the per-record results in original
    input order, so downstream block assembly sees exactly the sequential
    iteration order.
    """
    if len(records) > 1:
        merged = _fan_out_warm(executor, blocker, kind, records)
        if merged is not None:
            return merged
    extract = _shard_record_keys if kind == "keys" else _shard_sort_keys
    return extract(blocker, list(enumerate(records)))


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

    def block(
        self, records: Sequence[Record], executor=None, pair_filter=None
    ) -> BlockingResult:
        """Group records by key and emit all within-block pairs.

        Blocks larger than ``max_block_size`` are dropped: giant blocks come
        from uninformative keys (stop-word tokens, common n-grams) and would
        reintroduce the quadratic blow-up blocking exists to avoid.

        With a parallel ``executor``, key extraction fans out over record
        shards; the keyed records are merged back into input order before
        blocks are assembled, so the result matches the sequential path
        exactly.  ``pair_filter`` (a ``pairs -> (survivors, pruned_count)``
        callable) prunes emitted pairs centrally, after block assembly.
        """
        if executor is not None and executor.fans_out:
            keyed = _fan_out_indexed(executor, self, "keys", records)
        else:
            # stream one record at a time: no point holding every key list
            # in memory on the sequential path
            keyed = (
                (index, record.record_id, self.keys_for(record))
                for index, record in enumerate(records)
            )
        blocks: Dict[str, List[str]] = defaultdict(list)
        for _, record_id, keys in keyed:
            for key in set(keys):
                blocks[key].append(record_id)
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

    ``token_source`` (set transiently by the consolidator / streaming
    curator on sequential paths) lets whole-record blocking reuse the
    scoring kernel's interned per-record tokenization instead of running
    the tokenizer a second time.  It is deliberately *not* honoured when a
    ``key_attribute`` restricts the blocking key — the kernel interns the
    full comparison blob, not single attributes — and it must not be set
    when the blocker is pickled into process workers.
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

    def __getstate__(self):
        # never ship the kernel-backed token source to process workers: it
        # drags the whole interned corpus through pickle, and workers
        # re-tokenize identically anyway
        state = dict(self.__dict__)
        state["token_source"] = None
        return state


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

    def block(
        self, records: Sequence[Record], executor=None, pair_filter=None
    ) -> BlockingResult:
        """Sort records and emit pairs within the sliding window.

        With a parallel ``executor``, sort keys are computed per shard; the
        final sort happens centrally on ``(key, input index)``, which is
        exactly the stable ordering of the sequential path.  ``pair_filter``
        prunes emitted pairs centrally, exactly as in
        :meth:`_BaseBlocker.block`.
        """
        if executor is not None and executor.fans_out:
            keyed = _fan_out_indexed(executor, self, "sort", records)
            order = sorted(keyed, key=lambda entry: (entry[1], entry[0]))
            ordered = [records[index] for index, _ in order]
        else:
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

    def __init__(self, blocker: _BaseBlocker, executor=None):
        if not isinstance(blocker, _BaseBlocker):
            raise EntityResolutionError(
                "BlockIndex requires a block-based blocker (token or ngram)"
            )
        self._blocker = blocker
        self._executor = executor
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
        """Blocking keys per record, fanned out over shards when parallel."""
        if (
            self._executor is not None
            and self._executor.fans_out
            and len(records) > 1
        ):
            keyed = _fan_out_indexed(self._executor, self._blocker, "keys", records)
            return [tuple(sorted(set(keys))) for _, _, keys in keyed]
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
