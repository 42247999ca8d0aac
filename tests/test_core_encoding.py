"""Tests for predicate encoding, query canonicalisation, the one interval
translation behind keys, labels and zero-out intervals, and Algorithm 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DuetConfig, QueryCodec, VirtualTableSampler, binary_width
from repro.core.encoding import ColumnPredicateEncoder, resolve_value_strategy
from repro.data import Table, make_census
from repro.serving import QueryKeyEncoder
from repro.workload import Operator, Predicate, Query, cardinality, true_cardinalities
from translation_oracle import canonicalize


@pytest.fixture(scope="module")
def toy_table():
    return Table.from_dict("toy", {
        "a": [0, 1, 2, 3, 4, 5, 6, 7] * 4,
        "b": ["p", "q", "r", "p", "q", "r", "p", "q"] * 4,
        "c": list(range(16)) * 2,
    })


class TestBinaryWidth:
    @pytest.mark.parametrize("ndv,width", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3),
                                           (256, 8), (257, 9), (2774, 12)])
    def test_widths(self, ndv, width):
        assert binary_width(ndv) == width


class TestStrategyResolution:
    def test_small_domain_keeps_configured_strategy(self):
        config = DuetConfig(value_encoding="onehot", embedding_threshold=100)
        assert resolve_value_strategy(50, config) == "onehot"

    def test_large_domain_falls_back_to_embedding(self):
        config = DuetConfig(value_encoding="binary", embedding_threshold=100)
        assert resolve_value_strategy(101, config) == "embedding"

    def test_explicit_embedding(self):
        config = DuetConfig(value_encoding="embedding")
        assert resolve_value_strategy(5, config) == "embedding"

    def test_invalid_encoding_rejected(self):
        with pytest.raises(ValueError):
            DuetConfig(value_encoding="hex")


class TestColumnPredicateEncoder:
    def test_binary_encoding_bits(self):
        encoder = ColumnPredicateEncoder(0, 8, DuetConfig(value_encoding="binary"))
        assert encoder.value_width == 3
        features = encoder.encode_value_features(np.array([5]))
        np.testing.assert_array_equal(features, [[1, 0, 1]])  # 5 = 0b101, LSB first

    def test_onehot_encoding(self):
        encoder = ColumnPredicateEncoder(0, 4, DuetConfig(value_encoding="onehot"))
        features = encoder.encode_value_features(np.array([2]))
        np.testing.assert_array_equal(features, [[0, 0, 1, 0]])

    def test_wildcard_encodes_to_zeros(self):
        encoder = ColumnPredicateEncoder(0, 8, DuetConfig())
        encoded = encoder.encode(np.array([-1]), np.array([-1]))
        np.testing.assert_array_equal(encoded, np.zeros((1, encoder.predicate_width)))

    def test_presence_bit_disambiguates_code_zero(self):
        """Code 0 with a predicate must differ from the wildcard encoding."""
        encoder = ColumnPredicateEncoder(0, 8, DuetConfig())
        with_predicate = encoder.encode(np.array([0]), np.array([Operator.EQ.index]))
        wildcard = encoder.encode(np.array([-1]), np.array([-1]))
        assert not np.array_equal(with_predicate, wildcard)

    def test_operator_one_hot(self):
        encoder = ColumnPredicateEncoder(0, 8, DuetConfig())
        features = encoder.encode_operator_features(np.array([Operator.GE.index]))
        assert features[0, 0] == 1  # presence
        assert features[0, 1 + Operator.GE.index] == 1
        assert features.sum() == 2

    def test_embedding_column_rejects_static_value_encoding(self):
        encoder = ColumnPredicateEncoder(0, 10_000, DuetConfig(embedding_threshold=100))
        assert encoder.needs_embedding
        with pytest.raises(RuntimeError):
            encoder.encode_value_features(np.array([3]))

    def test_predicate_width(self):
        config = DuetConfig(value_encoding="binary")
        encoder = ColumnPredicateEncoder(0, 8, config)
        assert encoder.predicate_width == 6 + 3


class TestQueryCodec:
    def test_arrays_shape(self, toy_table):
        codec = QueryCodec(toy_table, DuetConfig())
        queries = [Query.from_triples([("a", ">=", 3)]),
                   Query.from_triples([("b", "=", "q"), ("c", "<", 5)])]
        values, ops = codec.queries_to_code_arrays(queries)
        assert values.shape == (2, 3, 1)
        assert ops.shape == (2, 3, 1)

    def test_unconstrained_columns_are_wildcards(self, toy_table):
        codec = QueryCodec(toy_table, DuetConfig())
        values, ops = codec.queries_to_code_arrays([Query.from_triples([("a", ">=", 3)])])
        assert ops[0, 1, 0] == -1 and ops[0, 2, 0] == -1
        assert values[0, 1, 0] == -1

    def test_canonical_equality(self, toy_table):
        codec = QueryCodec(toy_table, DuetConfig())
        canonical = canonicalize(codec, Query.from_triples([("a", "=", 3)]).predicates[0])
        assert canonical.op_index == Operator.EQ.index
        assert canonical.code == 3

    def test_canonical_range_with_absent_literal(self):
        table = Table.from_dict("t", {"a": [10, 20, 40, 50]})
        codec = QueryCodec(table, DuetConfig())
        canonical = canonicalize(codec, Query.from_triples([("a", ">", 30)]).predicates[0])
        # "> 30" selects codes {2, 3}; canonical form is ">= code 2".
        assert canonical.op_index == Operator.GE.index
        assert canonical.code == 2

    def test_non_selective_predicate_becomes_wildcard(self, toy_table):
        codec = QueryCodec(toy_table, DuetConfig())
        canonical = canonicalize(codec, Query.from_triples([("a", ">=", 0)]).predicates[0])
        assert canonical is None

    def test_unsatisfiable_predicate_kept_with_empty_mask(self, toy_table):
        codec = QueryCodec(toy_table, DuetConfig())
        query = Query.from_triples([("b", "=", "zzz")])
        canonical = canonicalize(codec, query.predicates[0])
        assert canonical is not None
        _, _, (low, high) = codec.translate_batch([query])
        assert low[0, 1] > high[0, 1]

    def test_zero_out_masks_match_executor_semantics(self, toy_table):
        """A query's interval on a column selects exactly the codes its
        predicates there admit: the intersection of two predicates, an open
        range, one value, an unsatisfiable literal."""
        codec = QueryCodec(toy_table, DuetConfig(multi_predicate=True))
        queries = [Query.from_triples([("a", ">=", 2), ("a", "<=", 5)]),
                   Query.from_triples([("a", ">", 2), ("a", "<", 5)]),
                   Query.from_triples([("a", "=", 5)]),
                   Query.from_triples([("a", "<", 0)])]
        _, _, (low, high) = codec.translate_batch(queries)
        column = toy_table.column("a")
        codes = np.arange(column.num_distinct)
        selected = (codes >= low[:, 0, None]) & (codes <= high[:, 0, None])
        np.testing.assert_array_equal(selected[0], [0, 0, 1, 1, 1, 1, 0, 0])
        counts = column.frequencies() * toy_table.num_rows
        for query, row in zip(queries, selected):
            assert counts[row].sum() == pytest.approx(cardinality(toy_table, query))

    def test_too_many_predicates_rejected_in_single_mode(self, toy_table):
        codec = QueryCodec(toy_table, DuetConfig(multi_predicate=False))
        query = Query.from_triples([("a", ">=", 2), ("a", "<=", 5)])
        with pytest.raises(ValueError):
            codec.queries_to_code_arrays([query])

    def test_multi_predicate_mode_accepts_two_per_column(self, toy_table):
        codec = QueryCodec(toy_table, DuetConfig(multi_predicate=True,
                                                 max_predicates_per_column=2))
        query = Query.from_triples([("a", ">=", 2), ("a", "<=", 5)])
        values, ops = codec.queries_to_code_arrays([query])
        assert values.shape == (1, 3, 2)
        assert (ops[0, 0] >= 0).sum() == 2

    def test_unconstrained_columns_span_full_domain(self, toy_table):
        """A column a query leaves unconstrained keeps the full interval
        [0, NDV - 1] (factor == 1); the constrained one gets its code."""
        codec = QueryCodec(toy_table, DuetConfig())
        _, _, (low, high) = codec.translate_batch([Query.from_triples([("a", "=", 1)])])
        np.testing.assert_array_equal(low, [[1, 0, 0]])
        np.testing.assert_array_equal(high, [[1, 2, 15]])


class TestVirtualTableSampler:
    def _sampler(self, config=None, cards=(8, 3, 16)):
        return VirtualTableSampler(list(cards), config or DuetConfig(), seed=0)

    def test_batch_shapes(self):
        config = DuetConfig(expand_coefficient=4)
        sampler = self._sampler(config)
        tuples = np.random.default_rng(0).integers(0, 3, size=(10, 3))
        tuples[:, 0] = np.random.default_rng(1).integers(0, 8, size=10)
        tuples[:, 2] = np.random.default_rng(2).integers(0, 16, size=10)
        batch = sampler.sample_batch(tuples)
        assert batch.labels.shape == (40, 3)
        assert batch.values.shape == (40, 3, 1)
        assert batch.ops.shape == (40, 3, 1)

    def test_anchor_satisfies_every_sampled_predicate(self):
        """The core invariant of Algorithm 1."""
        sampler = self._sampler()
        rng = np.random.default_rng(3)
        tuples = np.stack([rng.integers(0, 8, 200), rng.integers(0, 3, 200),
                           rng.integers(0, 16, 200)], axis=1)
        batch = sampler.sample_batch(tuples)
        assert sampler.verify_batch(batch)

    def test_wildcards_present_when_configured(self):
        sampler = self._sampler(DuetConfig(wildcard_probability=0.3))
        tuples = np.zeros((100, 3), dtype=np.int64)
        batch = sampler.sample_batch(tuples)
        assert (batch.ops == -1).any()

    def test_no_wildcards_when_probability_zero(self):
        sampler = self._sampler(DuetConfig(wildcard_probability=0.0))
        rng = np.random.default_rng(4)
        tuples = np.stack([rng.integers(1, 7, 100), rng.integers(1, 2, 100),
                           rng.integers(1, 15, 100)], axis=1)
        batch = sampler.sample_batch(tuples)
        # Anchors away from the domain edges make every operator feasible.
        assert (batch.ops[:, 0, 0] >= 0).all()
        assert (batch.ops[:, 2, 0] >= 0).all()

    def test_all_operators_get_sampled(self):
        sampler = self._sampler()
        rng = np.random.default_rng(5)
        tuples = np.stack([rng.integers(0, 8, 500), rng.integers(0, 3, 500),
                           rng.integers(0, 16, 500)], axis=1)
        batch = sampler.sample_batch(tuples)
        seen = set(np.unique(batch.ops))
        assert {0, 1, 2, 3, 4} <= seen

    def test_multi_predicate_slots(self):
        config = DuetConfig(multi_predicate=True, max_predicates_per_column=2)
        sampler = self._sampler(config)
        rng = np.random.default_rng(6)
        tuples = np.stack([rng.integers(0, 8, 100), rng.integers(0, 3, 100),
                           rng.integers(0, 16, 100)], axis=1)
        batch = sampler.sample_batch(tuples)
        assert batch.values.shape[2] == 2
        assert (batch.ops[:, :, 1] >= 0).any()
        assert sampler.verify_batch(batch)

    def test_invalid_tuple_shape(self):
        sampler = self._sampler()
        with pytest.raises(ValueError):
            sampler.sample_batch(np.zeros((5, 2), dtype=np.int64))

    def test_invalid_cardinalities(self):
        with pytest.raises(ValueError):
            VirtualTableSampler([4, 0], DuetConfig())

    @given(st.integers(2, 30), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_sampled_literals_stay_in_domain(self, ndv, mu):
        config = DuetConfig(expand_coefficient=mu)
        sampler = VirtualTableSampler([ndv], config, seed=1)
        rng = np.random.default_rng(0)
        tuples = rng.integers(0, ndv, size=(40, 1))
        batch = sampler.sample_batch(tuples)
        present = batch.values[batch.values >= 0]
        assert present.size == 0 or (present < ndv).all()
        assert sampler.verify_batch(batch)


class TestCodecAgainstExecutor:
    def test_masks_reproduce_true_cardinality_when_applied_to_frequencies(self):
        """Applying zero-out masks to exact per-column frequencies must equal
        the independence-assumption estimate, which for single-column queries
        is the exact answer."""
        table = make_census(scale=0.05, seed=11)
        codec = QueryCodec(table, DuetConfig())
        column = table.column("age")
        value = column.value_of(min(30, column.num_distinct - 1))
        query = Query.from_triples([("age", "<=", value)])
        _, _, (low, high) = codec.translate_batch([query])
        index = table.column_index("age")
        frequencies = column.frequencies()
        estimate = frequencies[low[0, index]:high[0, index] + 1].sum() * table.num_rows
        assert estimate == pytest.approx(cardinality(table, query))


@st.composite
def _census_predicates(draw, table):
    """A predicate on a census column; literals include both values just
    outside the domain."""
    column = table.columns[draw(st.integers(0, table.num_columns - 1))]
    domain = column.distinct_values
    position = draw(st.integers(-1, domain.size))
    value = (domain[0] - 1 if position < 0
             else domain[-1] + 1 if position == domain.size else domain[position])
    return Predicate(column.name, draw(st.sampled_from(list(Operator))), value)


class TestOneIntervalTranslation:
    """Key, labels and masks all come from the same per-predicate intervals,
    so rewrites that select the same codes must agree on all three."""

    @pytest.fixture(scope="class")
    def census(self):
        return make_census(scale=0.05, seed=0)

    @staticmethod
    def _rewrites(table, query, data):
        predicates = list(query.predicates)
        # Permute, keeping each column's predicates in their own order (a
        # multi-predicate model sees them in that order).
        shuffled = data.draw(st.permutations(predicates))
        per_column = {column: iter(query.predicates_on(column))
                      for column in query.columns}
        permuted = Query(next(per_column[predicate.column]) for predicate in shuffled)
        # "> v" selects the same codes as ">= next(v)" (when next(v) exists).
        inclusive = []
        for predicate in predicates:
            domain = table.column(predicate.column).distinct_values
            following = np.searchsorted(domain, predicate.value, side="right")
            if predicate.operator is Operator.GT and following < domain.size:
                predicate = Predicate(predicate.column, Operator.GE, domain[following])
            inclusive.append(predicate)
        # A predicate covering a whole domain constrains nothing.
        column = table.columns[data.draw(st.integers(0, table.num_columns - 1))]
        padded = list(predicates)
        padded.insert(data.draw(st.integers(0, len(padded))),
                      Predicate(column.name, Operator.GE, column.distinct_values[0]))
        return [permuted, Query(inclusive), Query(padded)]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rewrites_share_key_labels_and_masks(self, census, data):
        query = Query(data.draw(st.lists(_census_predicates(census),
                                         min_size=1, max_size=6)))
        batch = [query, *self._rewrites(census, query, data)]
        keys = QueryKeyEncoder(census)
        assert all(keys.key(rewrite) == keys.key(query) for rewrite in batch[1:])

        labels = true_cardinalities(census, batch)
        assert labels.tolist() == [cardinality(census, member) for member in batch]
        assert len(set(labels.tolist())) == 1

        # Slots for every predicate a drawn query (or its padded rewrite) can
        # place on one column.
        codec = QueryCodec(census, DuetConfig(multi_predicate=True,
                                              max_predicates_per_column=7))
        _, _, (low, high) = codec.translate_batch(batch)
        for column_index, column in enumerate(census.columns):
            expected = np.ones((len(batch), column.num_distinct), dtype=bool)
            for row, member in enumerate(batch):
                for predicate in member.predicates_on(column.name):
                    expected[row] &= predicate.valid_value_mask(column)
            codes = np.arange(column.num_distinct)
            np.testing.assert_array_equal(
                (codes >= low[:, column_index, None])
                & (codes <= high[:, column_index, None]), expected)
