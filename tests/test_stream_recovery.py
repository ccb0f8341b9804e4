"""Changelog persistence and crash recovery.

The streaming engine can mirror its change-data-capture log to an
append-only JSONL file (``StreamConfig.changelog_path``).  These tests
cover the format round-trip (snapshot + live events, truncated trailing
lines, position semantics of delete + re-insert) and the headline
guarantee: a process killed mid-session is recovered by replaying the
file into a fresh collection, and re-bootstrapping a stream over it lands
on the **bit-identical** pre-crash entity *and* schema state.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import DataTamer, StreamConfig, TamerConfig
from repro.config import EntityConfig
from repro.storage.persistence import (
    ChangelogWriter,
    read_changelog,
    recover_collection,
)
from repro.stream import tail_collection
from repro.workloads import DedupCorpusGenerator

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _build_tamer(changelog_path=None, **stream_kwargs) -> DataTamer:
    config = TamerConfig.small()
    config.entity = EntityConfig(blocking_strategy="token")
    options = dict(
        max_batch_size=7,
        rebuild_threshold=0,
        schema_integration=True,
        changelog_path=str(changelog_path) if changelog_path else None,
    )
    options.update(stream_kwargs)
    config.stream = StreamConfig(**options)
    tamer = DataTamer(config.validate())
    corpus = DedupCorpusGenerator(seed=13).generate(
        n_entities=50, variants_per_entity=2
    )
    tamer.train_dedup_model(corpus.pairs)
    return tamer


def _drive_writes(tamer: DataTamer, rng: random.Random, steps: int) -> None:
    """A deterministic insert/update/delete/reinsert workload."""
    corpus = DedupCorpusGenerator(seed=29).generate(
        n_entities=40, variants_per_entity=2
    )
    pool = [dict(r.as_dict()) for r in corpus.records]
    collection = tamer.curated_collection
    for step in range(steps):
        live = [doc["_id"] for doc in collection.scan()]
        op = rng.random()
        if op < 0.5 or len(live) < 8:
            doc = dict(pool[step % len(pool)])
            doc["_source"] = rng.choice(("alpha", "beta", "gamma"))
            collection.insert(doc)
        elif op < 0.7:
            doc_id = rng.choice(live)
            changes = {"name": f"renamed {step}", "price": rng.randint(1, 99)}
            collection.update(doc_id, changes)
        elif op < 0.85:
            # delete + re-insert under the SAME id: position moves to the end
            victim = rng.choice(live)
            doc = collection.get(victim)
            collection.delete(victim)
            collection.insert(doc)
        else:
            collection.delete(rng.choice(live))


def _entity_dicts(entities) -> list:
    return [
        {
            "entity_id": e.entity_id,
            "members": e.member_record_ids,
            "sources": e.source_ids,
            "attributes": e.attributes,
            "provenance": e.provenance,
        }
        for e in entities
    ]


def _state(stream) -> dict:
    return {
        "entities": _entity_dicts(stream.refresh()),
        "schema": stream.integrator.snapshot(),
    }


def _canonical(state: dict) -> str:
    return json.dumps(state, default=str, sort_keys=True)


def _child_main(workdir: str) -> None:
    """Run inside the to-be-killed subprocess: stream, snapshot, die."""
    workdir = Path(workdir)
    tamer = _build_tamer(changelog_path=workdir / "changelog.jsonl")
    rng = random.Random(5)
    # pre-stream population: covered by the writer's bootstrap snapshot
    _drive_writes(tamer, rng, steps=15)
    stream = tamer.start_stream()
    # live writes: mirrored event by event
    _drive_writes(tamer, rng, steps=25)
    (workdir / "expected.json").write_text(_canonical(_state(stream)))
    os._exit(9)  # crash: no close(), no writer shutdown


# -- format round-trip ------------------------------------------------------


def test_writer_snapshot_and_events_round_trip(document_store, tmp_path):
    collection = document_store.create_collection("log")
    collection.insert({"_id": "a", "v": 1})
    path = tmp_path / "log.jsonl"
    writer = ChangelogWriter(path)
    writer.write_snapshot(collection.scan())
    from repro.stream.changelog import Changelog

    tail_collection(collection, changelog=Changelog(sink=writer.append))
    collection.insert({"_id": "b", "v": 2})
    collection.update("a", {"v": 3})
    collection.delete("b")
    entries = read_changelog(path)
    assert [(e["op"], e["doc_id"]) for e in entries] == [
        ("insert", "a"),  # snapshot
        ("insert", "b"),
        ("update", "a"),
        ("delete", "b"),
    ]
    assert entries[0]["seq"] == 0 and entries[1]["seq"] == 1
    assert entries[2]["document"]["v"] == 3


def test_recover_collection_replays_positions(document_store, tmp_path):
    source = document_store.create_collection("src")
    path = tmp_path / "log.jsonl"
    writer = ChangelogWriter(path)
    from repro.stream.changelog import Changelog

    tail_collection(source, changelog=Changelog(sink=writer.append))
    source.insert({"_id": "x", "v": 1})
    source.insert({"_id": "y", "v": 2})
    source.insert({"_id": "z", "v": 3})
    # delete + re-insert moves x to the end; update keeps y in place
    doc = source.get("x")
    source.delete("x")
    source.insert(doc)
    source.update("y", {"v": 20})

    target = document_store.create_collection("dst")
    applied = recover_collection(target, path)
    assert applied == 6
    assert [d["_id"] for d in target.scan()] == [d["_id"] for d in source.scan()]
    assert list(target.scan()) == list(source.scan())


def test_read_changelog_tolerates_truncated_tail(tmp_path):
    path = tmp_path / "log.jsonl"
    good = json.dumps({"seq": 1, "op": "insert", "doc_id": "a", "document": {}})
    path.write_text(good + "\n" + '{"seq": 2, "op": "ins')  # crash mid-write
    entries = read_changelog(path)
    assert len(entries) == 1 and entries[0]["doc_id"] == "a"


def test_read_changelog_rejects_mid_file_corruption(tmp_path):
    from repro.errors import StorageError

    path = tmp_path / "log.jsonl"
    good = json.dumps({"seq": 3, "op": "delete", "doc_id": "a", "document": None})
    path.write_text("CORRUPT\n" + good + "\n" + good + "\n")
    with pytest.raises(StorageError):
        read_changelog(path)


def test_stream_without_changelog_path_writes_nothing(tmp_path):
    tamer = _build_tamer(changelog_path=None)
    tamer.curated_collection.insert({"name": "x", "_source": "s"})
    stream = tamer.start_stream()
    assert stream.changelog_writer is None
    assert list(tmp_path.iterdir()) == []


# -- kill and recover -------------------------------------------------------


def test_kill_and_recover_reproduces_state_bit_identically(tmp_path):
    """SIGKILL-grade crash (os._exit: no atexit, no flush-on-close), then
    replay: the recovered stream's entities AND schema state are
    bit-identical to the pre-crash snapshot."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 9, result.stderr
    expected = (tmp_path / "expected.json").read_text()

    recovered = _build_tamer(changelog_path=None)
    applied = recover_collection(
        recovered.curated_collection, tmp_path / "changelog.jsonl"
    )
    assert applied > 15
    stream = recovered.start_stream()
    assert _canonical(_state(stream)) == expected
    # and the recovered stream keeps curating incrementally
    recovered.curated_collection.insert({"name": "post recovery", "_source": "s"})
    assert stream.refresh() == stream.batch_reference()
    assert stream.integrator.snapshot() == stream.integrator.batch_reference()


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        _child_main(sys.argv[2])
    else:  # pragma: no cover - manual invocation guard
        raise SystemExit("usage: test_stream_recovery.py --child <workdir>")


def test_recovery_preserves_document_key_order(document_store, tmp_path):
    """Document *key order* is semantic (it drives first-seen column order
    in schema integration), so the changelog must never sort keys — a
    regression here silently breaks bit-identical schema recovery."""
    source = document_store.create_collection("src")
    path = tmp_path / "log.jsonl"
    writer = ChangelogWriter(path)
    from repro.stream.changelog import Changelog

    tail_collection(source, changelog=Changelog(sink=writer.append))
    source.insert(
        {"_id": "k", "zeta_field": "z", "alpha_field": "a", "_source": "s1"}
    )
    writer2 = ChangelogWriter(tmp_path / "snap.jsonl")
    writer2.write_snapshot(source.scan())

    expected_keys = list(source.get("k"))
    assert expected_keys.index("zeta_field") < expected_keys.index("alpha_field")
    for log_path in (path, tmp_path / "snap.jsonl"):
        target = document_store.create_collection(f"dst_{log_path.stem}")
        recover_collection(target, log_path)
        assert list(target.get("k")) == expected_keys


# -- changelog compaction ---------------------------------------------------


def test_rebuild_compacts_changelog_and_recovery_stays_exact(tmp_path):
    """A full rebuild snapshots + truncates the log: recovery cost is then
    bounded by collection size, and replaying the compacted log (plus any
    events appended after it) still reproduces the state bit-identically."""
    path = tmp_path / "cdc.jsonl"
    tamer = _build_tamer(changelog_path=path, rebuild_threshold=10)
    rng = random.Random(3)
    _drive_writes(tamer, rng, steps=12)
    stream = tamer.start_stream()
    _drive_writes(tamer, rng, steps=30)
    stream.refresh()  # drains, crosses the threshold, rebuilds, compacts
    assert stream.compaction_count >= 1
    live = {doc["_id"] for doc in tamer.curated_collection.scan()}
    entries = read_changelog(path)
    # the log is now one bootstrap snapshot of the live documents — the
    # 40+ events of replayed history are gone
    assert len(entries) == len(live)
    assert all(e["seq"] == 0 and e["op"] == "insert" for e in entries)

    # events appended after compaction replay on top of the snapshot
    _drive_writes(tamer, rng, steps=4)
    expected = _canonical(_state(stream))
    assert len(read_changelog(path)) > len(live)

    recovered = _build_tamer(changelog_path=None)
    recover_collection(recovered.curated_collection, path)
    stream2 = recovered.start_stream()
    assert _canonical(_state(stream2)) == expected


def test_explicit_compaction_is_crash_atomic(document_store, tmp_path):
    """``rewrite_snapshot`` swaps via a temp file + rename; afterwards the
    log replays to the same collection and keeps accepting appends."""
    source = document_store.create_collection("src")
    path = tmp_path / "log.jsonl"
    writer = ChangelogWriter(path)
    from repro.stream.changelog import Changelog

    tail_collection(source, changelog=Changelog(sink=writer.append))
    for i in range(6):
        source.insert({"_id": f"r{i}", "v": i})
    source.delete("r3")
    source.update("r1", {"v": 10})
    assert len(read_changelog(path)) == 8

    count = writer.rewrite_snapshot(source.scan())
    assert count == 5
    assert writer.snapshot_rewrites == 1
    assert not path.with_name(path.name + ".compact").exists()
    assert len(read_changelog(path)) == 5

    source.insert({"_id": "after", "v": 99})  # appends continue post-swap
    target = document_store.create_collection("dst")
    recover_collection(target, path)
    assert list(target.scan()) == list(source.scan())


def test_kill_and_recover_with_non_alphabetical_keys(tmp_path):
    """End to end: streamed documents whose keys are not alphabetical
    recover to the bit-identical schema snapshot."""
    tamer = _build_tamer(changelog_path=tmp_path / "cdc.jsonl")
    tamer.curated_collection.insert(
        {"zeta_field": "one", "alpha_field": "x", "_source": "s1"}
    )
    stream = tamer.start_stream()
    tamer.curated_collection.insert(
        {"zeta_field": "two", "middle": 5, "_source": "s1"}
    )
    expected = _canonical(_state(stream))
    assert [a[0] for a in stream.integrator.snapshot()["attributes"]] == [
        "zeta_field",
        "alpha_field",
        "middle",
    ]
    tamer.stop_stream()

    recovered = _build_tamer(changelog_path=None)
    recover_collection(recovered.curated_collection, tmp_path / "cdc.jsonl")
    stream2 = recovered.start_stream()
    assert _canonical(_state(stream2)) == expected
