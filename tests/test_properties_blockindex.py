"""Property test: ``BlockIndex.apply`` is an exact incremental ``block()``.

A random upsert/delete sequence is pushed through a :class:`BlockIndex` one
delta at a time; after every step the index's candidate-pair set must equal
a from-scratch ``blocker.block()`` over the live records, and the returned
``(added, removed)`` must be exactly the difference to the previous step.
The key alphabet is tiny and ``max_block_size`` is 3, so blocks keep
crossing both validity boundaries (size 1 <-> 2 and 3 <-> 4) — the only
places where a whole block's pairs appear or vanish at once.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entity.blocking import BlockIndex, NGramBlocker, TokenBlocker
from repro.entity.record import Record

_IDS = [f"r{index}" for index in range(9)]
_TOKENS = ["aa", "bb", "cc", "dd"]
_MAX_BLOCK = 3

_record_ids = st.sampled_from(_IDS)
_keys = st.lists(st.sampled_from(_TOKENS), min_size=0, max_size=3)
_upserts = st.dictionaries(_record_ids, _keys, max_size=4)
_deletes = st.lists(_record_ids, max_size=3, unique=True)
_deltas = st.lists(st.tuples(_upserts, _deletes), min_size=1, max_size=12)


def _record(record_id, tokens):
    return Record.from_dict(record_id, "src", {"k": " ".join(tokens)})


def _check_sequence(blocker, deltas):
    index = BlockIndex(blocker)
    live = {}
    previous = set()
    for upserts, deletes in deltas:
        # the curator hands over coalesced events: one per record id
        deletes = [record_id for record_id in deletes if record_id not in upserts]
        for record_id in deletes:
            live.pop(record_id, None)
        for record_id, tokens in upserts.items():
            live[record_id] = _record(record_id, tokens)
        added, removed = index.apply(
            [live[record_id] for record_id in upserts], deletes
        )
        expected = blocker.block(list(live.values())).pairs
        assert index.candidate_pairs == expected
        assert added == expected - previous
        assert removed == previous - expected
        assert len(index) == len(live)
        for record_id in _IDS:
            assert index.partners(record_id) == {
                other for pair in expected if record_id in pair for other in pair
            } - {record_id}
        previous = expected


@given(_deltas)
@settings(max_examples=300, deadline=None)
def test_token_block_index_matches_from_scratch_blocking(deltas):
    _check_sequence(TokenBlocker(key_attribute="k", max_block_size=_MAX_BLOCK), deltas)


@given(_deltas)
@settings(max_examples=100, deadline=None)
def test_ngram_block_index_matches_from_scratch_blocking(deltas):
    _check_sequence(
        NGramBlocker(key_attribute="k", n=2, max_block_size=_MAX_BLOCK), deltas
    )


def test_blocks_crossing_both_validity_boundaries():
    blocker = TokenBlocker(key_attribute="k", max_block_size=_MAX_BLOCK)
    index = BlockIndex(blocker)

    def upsert(record_id):
        return index.apply([_record(record_id, ["aa"])], [])

    assert upsert("r0") == (set(), set())  # size 1: no pairs
    assert upsert("r1") == ({("r0", "r1")}, set())  # 1 -> 2: block turns valid
    added, removed = upsert("r2")  # 2 -> 3: only the joiner's pairs
    assert (added, removed) == ({("r0", "r2"), ("r1", "r2")}, set())
    added, removed = upsert("r3")  # 3 -> 4: the whole block drops out
    assert added == set() and len(removed) == 3
    assert index.candidate_pairs == set()
    added, removed = index.apply([], ["r0"])  # 4 -> 3: the whole block is back
    assert removed == set()
    assert added == {("r1", "r2"), ("r1", "r3"), ("r2", "r3")}
    added, removed = index.apply([], ["r1", "r2"])  # 3 -> 1
    assert added == set() and len(removed) == 3
    # an upsert that keeps its key changes nothing
    assert upsert("r3") == (set(), set())
