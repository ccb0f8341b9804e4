"""Attribute matchers.

The heuristic matching scores shown in the paper's Figures 2 and 3 come from
an ensemble of per-signal matchers.  Four signal families are implemented:

* **name similarity** — Levenshtein ratio, Jaro-Winkler and character n-gram
  Jaccard over normalized attribute names, combined by taking the max (an
  attribute pair is a name match if *any* of the string measures says so);
* **value overlap** — Jaccard similarity of the token sets observed in the
  two attributes' values;
* **type compatibility** — whether the inferred value types agree;
* **numeric profile** — closeness of numeric mean/std for numeric attributes,
  and of mean string length otherwise.

:class:`CompositeMatcher` combines the signals with configurable weights (the
``matcher_weights`` knob in :class:`repro.config.SchemaConfig`).

The scalar string measures here — :func:`levenshtein_distance` /
:func:`levenshtein_ratio` and :func:`jaro_winkler` — double as the
*bit-identity oracle* for the batch string-edit engine in
:mod:`repro.entity.stredit`: every float the engine produces must equal, bit
for bit, ``max(levenshtein_ratio(a, b), jaro_winkler(a, b))`` as computed by
these reference implementations.  Keep any change to their arithmetic (order
of operations, normalization, tie-breaking) in lockstep with that module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Set

from ..text.normalize import TextNormalizer
from ..text.tokenizer import ngrams
from .attribute import AttributeProfile

_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_name_normalizer = TextNormalizer(abbreviations={})
#: Bound of the two attribute-name memos (normalized names, and similarity
#: per normalized pair).  Names are few and short: a schema holds dozens.
_NAME_CACHE_SIZE = 1 << 14


def normalize_attribute_name(name: str) -> str:
    """Normalize an attribute name for comparison.

    Handles camelCase, snake_case, dashes and stray punctuation so that
    ``SHOW_NAME``, ``showName`` and ``show-name`` all normalize to
    ``show name``.
    """
    if name is None:
        return ""
    return _normalized_name(str(name))


@lru_cache(maxsize=_NAME_CACHE_SIZE)
def _normalized_name(name: str) -> str:
    spaced = _CAMEL_RE.sub(" ", name)
    spaced = spaced.replace("_", " ").replace("-", " ").replace(".", " ")
    return _name_normalizer.normalize(spaced)


def canonical_attribute_name(name: str) -> str:
    """Canonical snake_case form of an attribute name.

    ``SHOW_NAME``, ``showName`` and ``Show Name`` all canonicalize to
    ``show_name``; the global schema stores attributes under these canonical
    names so the integrated schema is naming-convention-neutral.
    """
    normalized = normalize_attribute_name(name)
    if not normalized:
        return str(name)
    return normalized.replace(" ", "_")


def levenshtein_distance(a: str, b: str) -> int:
    """Classic edit distance between two strings."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            insert_cost = current[j - 1] + 1
            delete_cost = previous[j] + 1
            replace_cost = previous[j - 1] + (0 if ca == cb else 1)
            current.append(min(insert_cost, delete_cost, replace_cost))
        previous = current
    return previous[-1]


def levenshtein_ratio(a: str, b: str) -> float:
    """Edit distance normalized to a similarity in [0, 1]."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / longest


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity between two strings."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    match_window = max(len(a), len(b)) // 2 - 1
    match_window = max(match_window, 0)
    a_matches = [False] * len(a)
    b_matches = [False] * len(b)
    matches = 0
    for i, ca in enumerate(a):
        start = max(0, i - match_window)
        end = min(len(b), i + match_window + 1)
        for j in range(start, end):
            if b_matches[j] or b[j] != ca:
                continue
            a_matches[i] = True
            b_matches[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, matched in enumerate(a_matches):
        if not matched:
            continue
        while not b_matches[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len(a) + matches / len(b) + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler similarity: Jaro boosted for common prefixes."""
    jaro = jaro_similarity(a, b)
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix == 4:
            break
        prefix += 1
    return jaro + prefix * prefix_scale * (1.0 - jaro)


def ngram_similarity(a: str, b: str, n: int = 3) -> float:
    """Jaccard similarity of character n-gram sets."""
    grams_a = set(ngrams(a, n))
    grams_b = set(ngrams(b, n))
    return jaccard_similarity(grams_a, grams_b)


def jaccard_similarity(a: Set, b: Set) -> float:
    """|A ∩ B| / |A ∪ B| with the empty-sets-are-identical convention."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def name_similarity(name_a: str, name_b: str) -> float:
    """Best-of string similarity between two attribute names.

    A schema holds a few dozen distinct attribute names that are compared
    again for every arriving source, so the score of each normalized pair
    is remembered (bounded LRU).
    """
    return _normalized_name_similarity(
        normalize_attribute_name(name_a), normalize_attribute_name(name_b)
    )


@lru_cache(maxsize=_NAME_CACHE_SIZE)
def _normalized_name_similarity(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    token_score = jaccard_similarity(set(a.split()), set(b.split()))
    return max(
        levenshtein_ratio(a, b),
        jaro_winkler(a, b),
        ngram_similarity(a, b),
        token_score,
    )


def value_overlap_similarity(
    profile_a: AttributeProfile, profile_b: AttributeProfile
) -> float:
    """Jaccard similarity of the token sets seen in the two attributes' values."""
    if not profile_a.token_set and not profile_b.token_set:
        return 0.0
    return jaccard_similarity(set(profile_a.token_set), set(profile_b.token_set))


def type_compatibility(
    profile_a: AttributeProfile, profile_b: AttributeProfile
) -> float:
    """1.0 for identical inferred types, partial credit for numeric kinship."""
    ta, tb = profile_a.inferred_type, profile_b.inferred_type
    if ta == "unknown" or tb == "unknown":
        return 0.5
    if ta == tb:
        return 1.0
    numeric = {"integer", "float", "money"}
    if ta in numeric and tb in numeric:
        return 0.7
    return 0.0


def numeric_profile_similarity(
    profile_a: AttributeProfile, profile_b: AttributeProfile
) -> float:
    """Closeness of numeric summaries (or of mean string length as a fallback)."""
    if profile_a.numeric_mean is not None and profile_b.numeric_mean is not None:
        return _relative_closeness(profile_a.numeric_mean, profile_b.numeric_mean)
    return _relative_closeness(profile_a.mean_length, profile_b.mean_length)


def _relative_closeness(a: float, b: float) -> float:
    if a == b:
        return 1.0
    denom = max(abs(a), abs(b))
    if denom == 0:
        return 1.0
    return max(0.0, 1.0 - abs(a - b) / denom)


@dataclass(frozen=True)
class MatcherScore:
    """Per-signal scores plus the weighted composite for one attribute pair."""

    name: float
    value: float
    type: float
    stats: float
    composite: float

    def as_dict(self) -> Dict[str, float]:
        """Return the scores as a dictionary."""
        return {
            "name": self.name,
            "value": self.value,
            "type": self.type,
            "stats": self.stats,
            "composite": self.composite,
        }


class CompositeMatcher:
    """Weighted combination of the four matcher signals."""

    def __init__(self, weights: Optional[Dict[str, float]] = None):
        self._weights = dict(
            weights or {"name": 0.45, "value": 0.35, "type": 0.10, "stats": 0.10}
        )
        total = sum(self._weights.values())
        if total <= 0:
            raise ValueError("matcher weights must sum to a positive value")
        self._weights = {k: v / total for k, v in self._weights.items()}

    @property
    def weights(self) -> Dict[str, float]:
        """Normalized signal weights."""
        return dict(self._weights)

    def score(
        self,
        name_a: str,
        profile_a: AttributeProfile,
        name_b: str,
        profile_b: AttributeProfile,
    ) -> MatcherScore:
        """Score one (source attribute, global attribute) pair."""
        name_score = name_similarity(name_a, name_b)
        value_score = value_overlap_similarity(profile_a, profile_b)
        type_score = type_compatibility(profile_a, profile_b)
        stats_score = numeric_profile_similarity(profile_a, profile_b)
        composite = (
            self._weights.get("name", 0.0) * name_score
            + self._weights.get("value", 0.0) * value_score
            + self._weights.get("type", 0.0) * type_score
            + self._weights.get("stats", 0.0) * stats_score
        )
        return MatcherScore(
            name=name_score,
            value=value_score,
            type=type_score,
            stats=stats_score,
            composite=composite,
        )
