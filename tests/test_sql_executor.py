"""Tests for repro.sql planning and execution (catalog, planner, executor)."""

import pytest

from repro.entity.consolidation import ConsolidatedEntity
from repro.errors import SqlError
from repro.obs import TelemetryHub
from repro.query.snapshot import EntitySnapshot
from repro.sql import SqlContext, SqlMetadata, run_sql
from repro.sql.ordering import group_key, sort_key


def _entity(entity_id, members, sources, **attributes):
    return ConsolidatedEntity(
        entity_id=entity_id,
        member_record_ids=[f"{entity_id}-r{i}" for i in range(members)],
        source_ids=list(sources),
        attributes=attributes,
    )


SHOWS = (
    _entity("e1", 2, ["s1", "s2"],
            show_name="Matilda", year=1996, rating=6.9, genre="family"),
    _entity("e2", 1, ["s1"],
            show_name="Inception", year=2010, rating=8.8, genre="scifi"),
    _entity("e3", 1, ["s2"],
            show_name="Arrival", year=2016, rating=7.9, genre="scifi"),
    _entity("e4", 1, ["s1"],
            show_name="Heat", year=1995, rating=8.3, genre=None),
    _entity("e5", 2, ["s2", "s3"],
            show_name="Solaris", year=None, rating=None, genre="scifi"),
)

METADATA = SqlMetadata(
    sources=(
        {"source_id": "s1", "kind": "structured", "description": "feed one",
         "collection": "c1", "records_loaded": 10, "attribute_count": 3,
         "sequence": 1},
        {"source_id": "s2", "kind": "structured", "description": "feed two",
         "collection": "c2", "records_loaded": 4, "attribute_count": 2,
         "sequence": 2},
    ),
    aliases=(("title", "show_name"),),
)


@pytest.fixture()
def context():
    snapshot = EntitySnapshot(
        entities=SHOWS, watermark=3, schema_watermark=None, version=7
    )
    return SqlContext(snapshot, metadata=METADATA)


class TestScansAndPushdown:
    def test_equality_pushdown(self, context):
        result = run_sql(
            context, "SELECT show_name FROM entities WHERE year = 2010"
        )
        assert result.rows == (("Inception",),)
        assert result.stats.pushdowns == 1
        assert result.stats.rows_scanned == 1
        assert result.stats.rows_pruned == 4

    def test_range_pushdown(self, context):
        result = run_sql(
            context,
            "SELECT show_name FROM entities WHERE year >= 2010 "
            "ORDER BY show_name",
        )
        assert result.rows == (("Arrival",), ("Inception",))
        assert result.stats.pushdowns == 1
        assert result.stats.rows_pruned == 3

    def test_flipped_range_literal_first(self, context):
        result = run_sql(
            context, "SELECT show_name FROM entities WHERE 2010 <= year"
        )
        assert {row[0] for row in result.rows} == {"Arrival", "Inception"}
        assert result.stats.pushdowns == 1

    def test_conjunct_intersection(self, context):
        result = run_sql(
            context,
            "SELECT show_name FROM entities "
            "WHERE genre = 'scifi' AND year > 2000",
        )
        assert {row[0] for row in result.rows} == {"Arrival", "Inception"}
        assert result.stats.pushdowns == 2

    def test_residual_predicate_scans_everything(self, context):
        result = run_sql(
            context, "SELECT show_name FROM entities WHERE show_name != 'Heat'"
        )
        assert len(result.rows) == 4
        assert result.stats.pushdowns == 0
        assert result.stats.rows_scanned == 5
        assert result.stats.rows_pruned == 0

    def test_equals_null_matches_nothing(self, context):
        result = run_sql(
            context, "SELECT show_name FROM entities WHERE year = NULL"
        )
        assert result.rows == ()
        assert result.stats.rows_pruned == 5

    def test_is_null_is_the_null_test(self, context):
        result = run_sql(
            context, "SELECT show_name FROM entities WHERE year IS NULL"
        )
        assert result.rows == (("Solaris",),)
        result = run_sql(
            context,
            "SELECT COUNT(*) FROM entities WHERE rating IS NOT NULL",
        )
        assert result.rows == ((4,),)

    def test_cross_class_range_never_matches(self, context):
        # show_name holds strings; a numeric range probe must match nothing
        result = run_sql(
            context, "SELECT show_name FROM entities WHERE show_name > 1"
        )
        assert result.rows == ()

    def test_indexed_path_matches_scan_path(self, context):
        pushed = run_sql(
            context,
            "SELECT show_name FROM entities WHERE year >= 1996 "
            "ORDER BY show_name",
        )
        # OR-wrapping defeats conjunct classification, forcing the same
        # comparison through the residual (full scan) evaluator
        scanned = run_sql(
            context,
            "SELECT show_name FROM entities WHERE year >= 1996 OR FALSE "
            "ORDER BY show_name",
        )
        assert pushed.stats.pushdowns == 1
        assert scanned.stats.pushdowns == 0
        assert pushed.rows == scanned.rows

    def test_not_comparison_is_not_range_complement(self, context):
        # two-valued logic: year IS NULL fails `year < 1996`, so NOT
        # re-admits it — unlike `year >= 1996`
        negated = run_sql(
            context, "SELECT show_name FROM entities WHERE NOT year < 1996"
        )
        assert {row[0] for row in negated.rows} == {
            "Matilda", "Inception", "Arrival", "Solaris"
        }

    def test_in_list_predicate(self, context):
        result = run_sql(
            context,
            "SELECT show_name FROM entities WHERE year IN (1995, 2016) "
            "ORDER BY show_name",
        )
        assert result.rows == (("Arrival",), ("Heat",))

    def test_boolean_connectives(self, context):
        result = run_sql(
            context,
            "SELECT show_name FROM entities "
            "WHERE year = 1995 OR (genre = 'scifi' AND rating > 8.0) "
            "ORDER BY show_name",
        )
        assert result.rows == (("Heat",), ("Inception",))


class TestJoins:
    def test_join_explodes_cluster_members(self, context):
        result = run_sql(
            context,
            "SELECT e.show_name, c.record_id FROM entities e "
            "JOIN clusters c ON e.entity_id = c.entity_id "
            "WHERE e.show_name = 'Matilda' ORDER BY record_id",
        )
        assert result.columns == ("show_name", "record_id")
        assert result.rows == (("Matilda", "e1-r0"), ("Matilda", "e1-r1"))

    def test_join_pushdown_on_joined_table(self, context):
        result = run_sql(
            context,
            "SELECT e.show_name FROM entities e "
            "JOIN clusters c ON e.entity_id = c.entity_id "
            "WHERE c.cluster_size = 2 AND c.member_index = 0 "
            "ORDER BY show_name",
        )
        assert result.rows == (("Matilda",), ("Solaris",))
        assert result.stats.pushdowns == 2

    def test_rows_joined_counts_post_join_rows(self, context):
        result = run_sql(
            context,
            "SELECT e.entity_id FROM entities e "
            "JOIN clusters c ON e.entity_id = c.entity_id",
        )
        # 2 + 1 + 1 + 1 + 2 member records
        assert result.stats.rows_joined == 7

    def test_duplicate_output_names_get_qualified(self, context):
        result = run_sql(
            context,
            "SELECT e.entity_id, c.entity_id FROM entities e "
            "JOIN clusters c ON e.entity_id = c.entity_id LIMIT 1",
        )
        assert result.columns == ("e.entity_id", "c.entity_id")


class TestAggregates:
    def test_group_by_with_count(self, context):
        result = run_sql(
            context,
            "SELECT genre, COUNT(*) AS n FROM entities "
            "GROUP BY genre ORDER BY n DESC, genre",
        )
        assert result.columns == ("genre", "n")
        assert result.rows == (("scifi", 3), ("family", 1), (None, 1))

    def test_global_aggregates(self, context):
        result = run_sql(
            context,
            "SELECT COUNT(*) AS c, COUNT(year) AS cy, SUM(year) AS s, "
            "AVG(rating) AS a, MIN(rating) AS lo, MAX(show_name) AS hi "
            "FROM entities",
        )
        (row,) = result.rows
        assert row[:3] == (5, 4, 8017)
        assert row[3] == pytest.approx(7.975)
        assert row[4:] == (6.9, "Solaris")

    def test_count_distinct(self, context):
        result = run_sql(
            context, "SELECT COUNT(DISTINCT genre) FROM entities"
        )
        assert result.rows == ((2,),)

    def test_empty_input_global_aggregate_yields_one_row(self, context):
        result = run_sql(
            context,
            "SELECT COUNT(*) AS n, MIN(year) AS lo FROM entities "
            "WHERE year = 1811",
        )
        assert result.rows == ((0, None),)

    def test_sum_over_strings_raises(self, context):
        with pytest.raises(SqlError, match="numeric"):
            run_sql(context, "SELECT SUM(show_name) FROM entities")

    def test_ungrouped_column_rejected(self, context):
        with pytest.raises(SqlError, match="GROUP BY"):
            run_sql(
                context,
                "SELECT show_name, COUNT(*) FROM entities GROUP BY genre",
            )


class TestDistinctOrderLimit:
    def test_distinct_output_rows(self, context):
        result = run_sql(
            context, "SELECT DISTINCT genre FROM entities ORDER BY genre"
        )
        assert result.rows == (("family",), ("scifi",), (None,))

    def test_order_by_input_column_not_in_output(self, context):
        # NULLs sort last ascending, hence first descending
        result = run_sql(
            context,
            "SELECT show_name FROM entities ORDER BY year DESC LIMIT 3",
        )
        assert result.rows == (("Solaris",), ("Arrival",), ("Inception",))

    def test_multi_key_order_nulls_last_ascending(self, context):
        result = run_sql(
            context,
            "SELECT genre, show_name FROM entities "
            "ORDER BY genre, show_name DESC",
        )
        assert result.rows == (
            ("family", "Matilda"),
            ("scifi", "Solaris"),
            ("scifi", "Inception"),
            ("scifi", "Arrival"),
            (None, "Heat"),
        )

    def test_limit_zero(self, context):
        result = run_sql(context, "SELECT show_name FROM entities LIMIT 0")
        assert result.rows == ()

    def test_distinct_with_input_order_rejected(self, context):
        with pytest.raises(SqlError, match="output column"):
            run_sql(
                context,
                "SELECT DISTINCT genre FROM entities ORDER BY show_name",
            )


class TestAliasResolution:
    def test_mapped_attribute_resolves_to_global_column(self, context):
        result = run_sql(
            context, "SELECT title FROM entities WHERE title = 'Heat'"
        )
        # the output keeps the requested spelling; values come from the
        # curated column the integrator mapped it onto
        assert result.columns == ("title",)
        assert result.rows == (("Heat",),)

    def test_alias_pushdown_probes_physical_index(self, context):
        result = run_sql(
            context, "SELECT show_name FROM entities WHERE title = 'Matilda'"
        )
        assert result.rows == (("Matilda",),)
        assert result.stats.pushdowns == 1


class TestVirtualTables:
    def test_curation_status_pins_snapshot_identity(self, context):
        result = run_sql(
            context,
            "SELECT version, watermark, entity_count, source_count "
            "FROM curation_status",
        )
        assert result.rows == ((7, 3, 5, 2),)

    def test_sources_table_from_metadata(self, context):
        result = run_sql(
            context,
            "SELECT source_id FROM sources WHERE records_loaded >= 10",
        )
        assert result.rows == (("s1",),)

    def test_select_star_column_order(self, context):
        result = run_sql(context, "SELECT * FROM entities LIMIT 1")
        assert result.columns == (
            "entity_id", "size", "source_count", "sources",
            "genre", "rating", "show_name", "year",
        )


class TestEmptyTables:
    """An engine built from raw entities has empty metadata tables."""

    @pytest.fixture()
    def bare_context(self):
        return SqlContext(EntitySnapshot(entities=SHOWS, version=1))

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT e.entity_id FROM entities e "
            "JOIN instances i ON e.entity_id = i.entity",
            "SELECT i.instance_id FROM instances i "
            "JOIN entities e ON i.entity = e.entity_id",
            "SELECT e.entity_id, s.kind FROM entities e "
            "JOIN sources s ON e.sources = s.source_id ORDER BY kind",
            "SELECT source_id FROM mappings WHERE decision = 'accept'",
            "SELECT source_id FROM mappings WHERE score > 0.5 ORDER BY score",
            "SELECT DISTINCT kind FROM sources ORDER BY kind DESC LIMIT 3",
            "SELECT kind, COUNT(*) FROM sources GROUP BY kind",
        ],
    )
    def test_empty_table_yields_no_rows(self, bare_context, query):
        assert run_sql(bare_context, query).rows == ()

    def test_join_onto_empty_snapshot(self):
        empty = SqlContext(EntitySnapshot(entities=(), version=1), metadata=METADATA)
        result = run_sql(
            empty,
            "SELECT s.source_id FROM sources s "
            "JOIN entities e ON s.source_id = e.sources",
        )
        assert result.rows == ()
        assert result.stats.rows_scanned == 2

    def test_global_aggregate_over_empty_table(self, bare_context):
        result = run_sql(
            bare_context,
            "SELECT COUNT(*), COUNT(DISTINCT kind), MIN(sequence), "
            "SUM(records_loaded) FROM sources",
        )
        assert result.rows == ((0, 0, None, None),)


class TestExplain:
    def test_explain_is_stable_text(self, context):
        result = run_sql(
            context,
            "EXPLAIN SELECT show_name FROM entities WHERE year = 2010 "
            "ORDER BY show_name LIMIT 3",
        )
        assert result.columns == ("plan",)
        assert result.explain == (
            "Limit[3]",
            "  Sort[show_name ASC]",
            "    Project[show_name]",
            "      Scan[entities; eq: year = 2010]",
        )
        assert result.canonical.startswith("EXPLAIN SELECT")

    def test_explain_join_plan(self, context):
        result = run_sql(
            context,
            "EXPLAIN SELECT e.show_name FROM entities e "
            "JOIN clusters c ON e.entity_id = c.entity_id "
            "WHERE c.cluster_size > 1",
        )
        assert result.explain == (
            "Project[show_name]",
            "  Join[e.entity_id = c.entity_id]",
            "    Scan[clusters AS c; range: cluster_size > 1]",
            "    Scan[entities AS e]",
        )

    def test_explain_does_not_execute(self, context):
        result = run_sql(
            context, "EXPLAIN SELECT * FROM entities WHERE year = 2010"
        )
        assert result.stats.rows_scanned == 0
        assert result.stats.pushdowns == 0


class TestErrorsAndBinding:
    def test_unknown_table(self, context):
        with pytest.raises(SqlError, match="unknown table"):
            run_sql(context, "SELECT * FROM nope")

    def test_unknown_column(self, context):
        with pytest.raises(SqlError, match="unknown column"):
            run_sql(context, "SELECT nope FROM entities")

    def test_ambiguous_unqualified_column(self, context):
        with pytest.raises(SqlError, match="ambiguous"):
            run_sql(
                context,
                "SELECT entity_id FROM entities e "
                "JOIN clusters c ON e.entity_id = c.entity_id",
            )

    def test_order_by_aggregate_must_be_selected(self, context):
        with pytest.raises(SqlError, match="must appear in SELECT"):
            run_sql(
                context,
                "SELECT genre FROM entities GROUP BY genre ORDER BY COUNT(*)",
            )

    def test_join_must_relate_to_earlier_table(self, context):
        with pytest.raises(SqlError, match="earlier"):
            run_sql(
                context,
                "SELECT * FROM entities e "
                "JOIN clusters c ON c.entity_id = c.record_id",
            )


class TestObservability:
    def test_counters_recorded_on_the_hub(self, context):
        hub = TelemetryHub(tracing=False)
        run_sql(
            context, "SELECT show_name FROM entities WHERE year = 2010",
            hub=hub,
        )
        run_sql(context, "SELECT COUNT(*) FROM entities", hub=hub)
        registry = hub.registry
        assert registry.counter("sql_queries_total").value == 2
        assert registry.counter("sql_pushdown_conjuncts_total").value == 1
        assert registry.counter("sql_rows_scanned_total").value == 6
        assert registry.counter("sql_rows_pruned_total").value == 4

    def test_result_payload_shape(self, context):
        payload = run_sql(
            context,
            "SELECT show_name FROM entities WHERE year = 2010",
            hub=TelemetryHub(tracing=False),
        ).as_payload()
        assert payload == {
            "columns": ["show_name"],
            "rows": [["Inception"]],
            "stats": {
                "pushdowns": 1,
                "rows_scanned": 1,
                "rows_pruned": 4,
                "rows_joined": 1,
            },
            "explain": None,
            "canonical": "SELECT show_name FROM entities WHERE year = 2010",
        }


class TestOrderingPrimitives:
    def test_sort_key_total_order(self):
        values = ["b", None, 2, "a", 1.5, True]
        values.sort(key=sort_key)
        assert values == [True, 1.5, 2, "a", "b", None]

    def test_group_key_handles_unhashables(self):
        assert group_key([1, 2]) == group_key([1, 2])
        assert group_key([1, 2]) != group_key([2, 1])
        assert group_key(1) == 1


class TestNanPlacement:
    """NaN sorts after every other number, on every ordered path."""

    @pytest.fixture()
    def nan_context(self):
        import random

        rng = random.Random(3)
        pool = (float("nan"), 1.0, 2.5, 7.0, 9.0, None, 4, 3.5)
        entities = tuple(
            _entity(f"n{i:03d}", 1, ["s1"], x=rng.choice(pool))
            for i in range(200)
        )
        return SqlContext(EntitySnapshot(entities=entities, version=1))

    @pytest.mark.parametrize("predicate", ["x > 3", "x <= 4", "x >= 9", "x < 1.0"])
    def test_pushdown_matches_scan_twin(self, nan_context, predicate):
        query = "SELECT entity_id FROM entities WHERE {} ORDER BY entity_id"
        pushed = run_sql(nan_context, query.format(predicate))
        scanned = run_sql(nan_context, query.format(f"({predicate}) OR FALSE"))
        assert pushed.stats.pushdowns == 1
        assert scanned.stats.pushdowns == 0
        assert pushed.rows == scanned.rows

    def test_nan_is_greater_than_every_number(self, nan_context):
        greater = run_sql(
            nan_context, "SELECT COUNT(*) FROM entities WHERE x > 3"
        ).rows[0][0]
        finite = run_sql(
            nan_context,
            "SELECT COUNT(*) FROM entities WHERE x IN (7.0, 9.0, 4, 3.5)",
        ).rows[0][0]
        nans = sum(
            1
            for entity in nan_context.snapshot.entities
            if entity.attributes["x"] != entity.attributes["x"]
        )
        assert nans > 0
        assert greater == finite + nans

    def test_order_by_places_nan_after_numbers_before_null(self, nan_context):
        rows = run_sql(
            nan_context, "SELECT x, entity_id FROM entities ORDER BY x"
        ).rows
        values = [row[0] for row in rows]
        kinds = [
            "null" if v is None else "nan" if v != v else "number" for v in values
        ]
        assert kinds == sorted(kinds, key=("number", "nan", "null").index)
        numbers = [v for v in values if v is not None and v == v]
        assert numbers == sorted(numbers)
        # ties keep input order: NaN rows come out in entity order
        nan_ids = [row[1] for row in rows if row[0] is not None and row[0] != row[0]]
        assert nan_ids == sorted(nan_ids)
        again = run_sql(
            nan_context, "SELECT x, entity_id FROM entities ORDER BY x"
        ).rows
        assert [row[1] for row in again] == [row[1] for row in rows]

    def test_min_max_follow_the_nan_place(self, nan_context):
        (row,) = run_sql(
            nan_context, "SELECT MIN(x), MAX(x) FROM entities"
        ).rows
        assert row[0] == 1.0
        assert row[1] != row[1]  # NaN is the maximum

    def test_sort_key_places_nan(self):
        values = [float("nan"), float("inf"), None, "a", 2, -float("inf")]
        values.sort(key=sort_key)
        assert values[:2] == [-float("inf"), 2]
        assert values[2] == float("inf")
        assert values[3] != values[3]
        assert values[4:] == ["a", None]
