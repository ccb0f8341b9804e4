"""Property tests: the columnar kernel and filter against their per-pair oracles.

``ScoringKernel`` computes every feature of a pair batch with array
operations, and each of the following is a place where an array formulation
silently differs from the scalar :func:`repro.entity.similarity.pair_features`
it must reproduce bit for bit:

* the order of ``attrs_a & attrs_b`` (CPython iterates the smaller set, or
  the right one on a tie, and a set intersected with itself is a copy) —
  records of different sizes in both orders, records sharing one signature,
  and ``compare_attributes`` restrictions;
* the summation order of ``np.mean`` — records sharing 7, 8, 9 and 16
  attributes, where a column-by-column sum stops matching from 8 terms on;
* numeric values that parse to NaN or infinity (``"nan"``, ``"inf"``,
  ``"1e999"``), where Python's ``max(0.0, nan)`` is 0.0 but ``np.maximum``
  is NaN;
* populated values that normalize to ``""``, which make the per-pair list
  lengths vary inside one signature pair;
* integer counts and lengths, which must reach the same true division.

The candidate filter is checked against a per-pair reference of its bound
kept here: the linear-score bound must be equal, and the pruned set and
``FilterStats`` identical.
"""

import math
import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entity.kernel import _PRUNE_MARGIN, CandidateFilter, ScoringKernel
from repro.entity.record import Record
from repro.entity.similarity import FEATURE_NAMES, pair_features
from repro.text.tokenizer import tokenize

_NAMES = [f"attr{index}" for index in range(20)]

#: values that parse to NaN/infinity/zero, or normalize to ""
_TRAPS = ["nan", "NaN", "-nan", "inf", "-inf", "1e999", "-1e999", "0", "0.0"]
_TRAPS += ["-0.0", "$1,000", "...", "$$$", " ", "&", "-"]

_values = st.one_of(
    st.text(alphabet=string.ascii_letters + string.digits + " .,&$-", max_size=18),
    st.sampled_from(_TRAPS),
    st.integers(min_value=-1000, max_value=1000),
    st.floats(width=32),
    st.booleans(),
    st.none(),
)

_records = st.lists(
    st.dictionaries(st.sampled_from(_NAMES), _values, max_size=12),
    min_size=2,
    max_size=7,
)


def _build(field_dicts):
    records = [
        Record.from_dict(f"r{index}", "s", values)
        for index, values in enumerate(field_dicts)
    ]
    return {record.record_id: record for record in records}


def _all_pairs(by_id):
    ids = list(by_id)
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    # both orientations: the smaller set sits on either side
    return pairs + [(b, a) for a, b in pairs]


def _scalar_matrix(by_id, pairs, compare=None):
    return np.vstack([pair_features(by_id[a], by_id[b], compare) for a, b in pairs])


def _attrs(record, compare):
    """The populated-attribute set, built as ``pair_features`` builds it."""
    attrs = {k for k, v in record.as_dict().items() if v not in (None, "")}
    if compare is not None:
        attrs &= set(compare)
    return attrs


def _assert_exact(by_id, pairs, compare=None):
    kernel = ScoringKernel(compare_attributes=compare)
    got = kernel.features_for_pairs(by_id, pairs)
    assert np.array_equal(got, _scalar_matrix(by_id, pairs, compare))
    # white-box: the kernel's slot order is the real intersection's order
    rows_a, rows_b = kernel._rows_for(by_id, pairs)
    columns, n_shared = kernel._shared_order(rows_a, rows_b)
    name_of = {column: name for name, column in kernel._attr_column.items()}
    for index, (a, b) in enumerate(pairs):
        expected = list(_attrs(by_id[a], compare) & _attrs(by_id[b], compare))
        found = [name_of[column] for column in columns[index, : n_shared[index]]]
        assert found == expected


@given(_records)
@settings(max_examples=120, deadline=None)
def test_messy_records_exact(field_dicts):
    by_id = _build(field_dicts)
    _assert_exact(by_id, _all_pairs(by_id))


@given(_records, st.lists(st.sampled_from(_NAMES + ["absent"]), max_size=8))
@settings(max_examples=80, deadline=None)
def test_compare_attributes_restriction_exact(field_dicts, compare):
    by_id = _build(field_dicts)
    _assert_exact(by_id, _all_pairs(by_id), compare)


_words = st.text(alphabet="abcdefghij XYZ", min_size=1, max_size=12)


@given(
    st.sampled_from([7, 8, 9, 16]),
    st.lists(
        st.tuples(
            st.lists(
                st.one_of(_words, st.sampled_from(_TRAPS)), min_size=16, max_size=16
            ),
            st.lists(st.sampled_from(_NAMES[16:]), max_size=3),
        ),
        min_size=2,
        max_size=5,
    ),
)
@settings(max_examples=80, deadline=None)
def test_wide_shared_attribute_lists_exact(width, rows):
    """Records sharing ``width`` attributes, plus a few extras on some, so
    the similarity lists hold 7, 8, 9 or 16 terms (fewer where a value
    normalizes to ``""``) and set sizes differ in both directions."""
    field_dicts = []
    for values, extras in rows:
        fields = dict(zip(_NAMES[:width], values))
        fields.update((name, "extra " + name) for name in extras)
        field_dicts.append(fields)
    by_id = _build(field_dicts)
    _assert_exact(by_id, _all_pairs(by_id))


@given(
    st.lists(
        st.lists(
            st.sampled_from(_TRAPS + ["1", "-1", "2.5", "1e308", "-1e308"]),
            min_size=8,
            max_size=8,
        ),
        min_size=2,
        max_size=5,
    )
)
@settings(max_examples=100, deadline=None)
def test_nan_and_infinite_numerics_exact(rows):
    by_id = _build([dict(zip(_NAMES[:8], values)) for values in rows])
    _assert_exact(by_id, _all_pairs(by_id))


def test_same_id_different_content_in_one_record_batch():
    """``features_for_record_pairs`` (model training) may see one id with
    two contents; each object keeps its own row for the whole batch."""
    first = Record.from_dict("x", "s", {"name": "Matilda", "price": "27"})
    second = Record.from_dict("x", "s", {"name": "Wicked", "city": "NYC"})
    other = Record.from_dict("y", "s", {"name": "matilda", "price": 27})
    pairs = [(first, other), (second, other), (other, first), (first, second)]
    kernel = ScoringKernel()
    got = kernel.features_for_record_pairs(pairs)
    expected = np.vstack([pair_features(a, b) for a, b in pairs])
    assert np.array_equal(got, expected)
    reverse = kernel.features_for_record_pairs(pairs[::-1])
    assert np.array_equal(reverse, expected[::-1])


# -- the candidate filter against a per-pair reference --------------------------


def _reference_bound(record_a, record_b, weights, bias, compare):
    """The linear-score upper bound, one pair at a time, as the filter
    bounded it before it went columnar."""
    features = pair_features(record_a, record_b, compare).tolist()
    jaccard, cosine, shared_ratio, exact, _, _, numeric, length_ratio = features
    bounds = []
    n_equal = 0
    for attr in _attrs(record_a, compare) & _attrs(record_b, compare):
        norm_a, norm_b = record_a.normalized(attr), record_b.normalized(attr)
        len_a, len_b = len(norm_a), len(norm_b)
        if not (len_a and len_b):
            continue
        if norm_a == norm_b:
            n_equal += 1
            bounds.append(1.0)
            continue
        longest = len_a if len_a >= len_b else len_b
        shortest = len_a + len_b - longest
        lev_ub = 1.0 - max(1, longest - shortest) / longest
        jw_ub = 0.4 + 0.6 * (2.0 + shortest / longest) / 3.0
        ub = lev_ub if lev_ub >= jw_ub else jw_ub
        bounds.append(ub if ub <= 1.0 else 1.0)
    if bounds:
        mean_ub, mean_lb = float(np.mean(bounds)), n_equal / len(bounds)
        max_ub, max_lb = max(bounds), (1.0 if n_equal else 0.0)
    else:
        mean_ub = mean_lb = max_ub = max_lb = 0.0
    w = weights
    return (
        bias
        + w[0] * jaccard
        + w[1] * cosine
        + w[2] * shared_ratio
        + w[3] * exact
        + w[4] * (mean_ub if w[4] > 0 else mean_lb)
        + w[5] * (max_ub if w[5] > 0 else max_lb)
        + w[6] * numeric
        + w[7] * length_ratio
    )


def _bounds(candidate_filter, kernel, by_id, pairs):
    """The filter's columnar bound for every pair (prefix filters aside)."""
    return candidate_filter._bound_scores(kernel, *kernel._rows_for(by_id, pairs))


def _reference_prefix_keep(record_a, record_b, threshold, compare):
    """The length + prefix filters, one pair at a time."""
    if threshold <= 0.0:
        return True
    tokens_a = sorted(set(tokenize(record_a.text_blob(compare))))
    tokens_b = sorted(set(tokenize(record_b.text_blob(compare))))
    low, high = sorted((len(tokens_a), len(tokens_b)))
    if high == 0:
        return not threshold > 1.0
    if low / high < threshold:
        return False

    def prefix(tokens):
        return set(tokens[: len(tokens) - math.ceil(threshold * len(tokens)) + 1])

    return bool(prefix(tokens_a) & prefix(tokens_b))


def _reference_split(candidate_filter, by_id, pairs, weights, bias, z_required):
    survivors, pruned, by_prefix, by_bound = [], set(), 0, 0
    threshold = candidate_filter.min_token_jaccard
    for a, b in pairs:
        if not _reference_prefix_keep(by_id[a], by_id[b], threshold, None):
            by_prefix += 1
            pruned.add((a, b))
        elif _reference_bound(by_id[a], by_id[b], weights, bias, None) < (
            z_required - _PRUNE_MARGIN
        ):
            by_bound += 1
            pruned.add((a, b))
        else:
            survivors.append((a, b))
    return survivors, pruned, {
        "examined": len(pairs),
        "pruned_by_prefix": by_prefix,
        "pruned_by_bound": by_bound,
        "pruned": by_prefix + by_bound,
    }


_weights = st.lists(
    st.floats(min_value=-6.0, max_value=6.0).filter(lambda w: w == 0 or abs(w) > 1e-6),
    min_size=len(FEATURE_NAMES),
    max_size=len(FEATURE_NAMES),
)


@given(
    _records,
    _weights,
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=150, deadline=None)
def test_filter_matches_per_pair_reference(field_dicts, weights, bias, z_required):
    by_id = _build(field_dicts)
    pairs = _all_pairs(by_id)
    weights = np.asarray(weights, dtype=float)
    candidate_filter = CandidateFilter(weights, bias, z_required)
    kernel = ScoringKernel()
    bounds = _bounds(candidate_filter, kernel, by_id, pairs)
    expected = [
        _reference_bound(by_id[a], by_id[b], weights, float(bias), None)
        for a, b in pairs
    ]
    assert bounds.tolist() == expected
    survivors, pruned, stats = candidate_filter.split(kernel, by_id, pairs)
    assert (survivors, pruned, stats.as_dict()) == _reference_split(
        candidate_filter, by_id, pairs, weights, float(bias), z_required
    )


def test_bound_over_every_length_pair_exact():
    """Value lengths reach the bound's divisions as exact integers: every
    (shorter, longer) length pair up to 40, where e.g. (5, 6) rounds
    differently if ``shortest / longest`` becomes a product with a
    reciprocal."""
    values = ["x" * length for length in range(1, 41)]
    by_id = _build([{"attr0": value, "attr1": value[::-1] + "y"} for value in values])
    pairs = _all_pairs(by_id)
    weights = np.array([0.5, -0.25, 1.0, 2.0, 3.0, 1.5, 0.75, -1.0])
    candidate_filter = CandidateFilter(weights, -2.0, 0.0)
    bounds = _bounds(candidate_filter, ScoringKernel(), by_id, pairs)
    expected = [
        _reference_bound(by_id[a], by_id[b], weights, -2.0, None) for a, b in pairs
    ]
    assert bounds.tolist() == expected


@given(_records, st.floats(min_value=0.05, max_value=1.2))
@settings(max_examples=100, deadline=None)
def test_prefix_filter_matches_per_pair_reference(field_dicts, min_jaccard):
    """Token-dominated weights switch the length + prefix filters on."""
    by_id = _build(field_dicts)
    pairs = _all_pairs(by_id)
    weights = np.zeros(len(FEATURE_NAMES))
    weights[0] = 8.0
    # z >= z_required needs jaccard >= min_jaccard (+ the prune margin)
    z_required = 8.0 * min_jaccard - 4.0
    candidate_filter = CandidateFilter(weights, -4.0, z_required)
    survivors, pruned, stats = candidate_filter.split(ScoringKernel(), by_id, pairs)
    assert (survivors, pruned, stats.as_dict()) == _reference_split(
        candidate_filter, by_id, pairs, weights, -4.0, z_required
    )
