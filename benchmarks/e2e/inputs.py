"""Seeded input generators shared by the workloads.

Everything a workload feeds the product comes from here or from
``repro.workloads`` and is a function of the seed alone.  Sizes are pinned
exactly (record, row and document counts never vary with the seed) so that a
different seed changes *what* is processed, not *how much*: run-to-run spread
then measures the machine, and a re-check on an unseen seed measures the same
workload.  The stream and serve workloads go one step further and keep their
deployed corpus fixed (``CORPUS_SEED``); the seed draws their traffic.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro import DataTamer, TamerConfig
from repro.entity.dedup import DedupModel
from repro.text import DomainParser
from repro.text.gazetteer import broadway_gazetteer
from repro.workloads import (
    DedupCorpusGenerator,
    FTablesGenerator,
    WebInstanceGenerator,
)

#: Entities behind the dedup classifier's training pairs (as the bench_* use).
TRAIN_ENTITIES = 150
#: Seed of the record corpus the stream and serve workloads are deployed over.
#: Those workloads take their *traffic* (feed order and ops, request sequences)
#: from ``--seed`` but keep the curated base pinned: the cost of one streaming
#: refresh swings by half with the size of the corpus's largest duplicate
#: component, which differs from corpus to corpus, and that swing would drown
#: the machine-level differences the metrics exist to show.
CORPUS_SEED = 20140331


def build_tamer(config: TamerConfig = None) -> DataTamer:
    """A ``TamerConfig.default()`` system with the Broadway parser registered."""
    tamer = DataTamer(config or TamerConfig.default())
    tamer.register_text_parser(DomainParser(broadway_gazetteer()))
    return tamer


def pinned_corpus(n_records: int):
    """(training pairs, ``n_records`` records) of the pinned deployment."""
    pairs = training_pairs(CORPUS_SEED + 1)
    return pairs, dedup_records(CORPUS_SEED + 2, -(-n_records // 4))[:n_records]


def training_pairs(seed: int):
    """Labeled pairs the dedup model is trained on in set-up."""
    return DedupCorpusGenerator(seed=seed).generate(n_entities=TRAIN_ENTITIES).pairs


def train_model(pairs) -> DedupModel:
    return DedupModel(seed=0).fit(pairs)


def dedup_records(seed: int, n_entities: int, variants: int = 3) -> List[dict]:
    """``n_entities * (variants + 1)`` duplicate-rich records as plain dicts."""
    corpus = DedupCorpusGenerator(seed=seed).generate(
        n_entities=n_entities, variants_per_entity=variants
    )
    return [record.as_dict() for record in corpus.records]


def web_documents(seed: int, n_documents: int) -> List[Tuple[str, str]]:
    return [
        doc.as_pair() for doc in WebInstanceGenerator(seed=seed).generate(n_documents)
    ]


def fixed_size_sources(
    seed: int, n_sources: int, rows_per_source: int
) -> List[Tuple[str, List[Dict[str, object]]]]:
    """``n_sources`` FTABLES sources of exactly ``rows_per_source`` rows each.

    ``FTablesGenerator`` draws 10-100 rows per source; rows of one archetype
    share one attribute dialect, so they are pooled per archetype (generation
    order kept, so each archetype's first source still opens with the Matilda
    demo row) and dealt back out in equal hands.
    """
    generated = FTablesGenerator(seed=seed, n_sources=2 * n_sources + 6).generate()
    archetypes: List[str] = []
    pools: Dict[str, List[Dict[str, object]]] = {}
    for source in generated:
        if source.archetype not in pools:
            archetypes.append(source.archetype)
        pools.setdefault(source.archetype, []).extend(source.records())
    sources = []
    for index in range(n_sources):
        archetype = archetypes[index % len(archetypes)]
        hand = pools[archetype][:rows_per_source]
        if len(hand) < rows_per_source:
            raise ValueError(f"FTABLES pool for {archetype!r} ran dry")
        del pools[archetype][:rows_per_source]
        sources.append((f"ftable:{index:02d}:{archetype}", hand))
    return sources


def distinct_names(records: Sequence[dict], attribute: str = "name") -> List[str]:
    """Distinct values of ``attribute`` in first-seen order."""
    seen = {}
    for record in records:
        value = record.get(attribute)
        if value:
            seen.setdefault(str(value), None)
    return list(seen)


def zipf_sample(rng: random.Random, n_keys: int, exponent: float, count: int):
    """``count`` key indices drawn Zipf(``exponent``) over ``n_keys`` ranks."""
    weights = [1.0 / (rank**exponent) for rank in range(1, n_keys + 1)]
    return rng.choices(range(n_keys), weights=weights, k=count)
