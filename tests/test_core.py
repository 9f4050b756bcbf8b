"""Tables, matrices, likelihoods."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from swissfrancs.core import (Convention, ProbMatrix, WeightTable,
                              convert_convention, exact_likelihood,
                              log_likelihood, swiss_counts)

F = Fraction

J4 = ProbMatrix.of([[1] * 4 for _ in range(4)], Convention.SUM_NSQ)

P2_ENTRIES = [[F(6, 5), F(6, 5), F(4, 5), F(4, 5)],
              [F(6, 5), F(6, 5), F(4, 5), F(4, 5)],
              [F(4, 5), F(4, 5), F(6, 5), F(6, 5)],
              [F(4, 5), F(4, 5), F(6, 5), F(6, 5)]]
P2 = ProbMatrix.of(P2_ENTRIES, Convention.SUM_NSQ)

P1_ENTRIES = [[F(16, 15)] * 3 + [F(4, 5)],
              [F(16, 15)] * 3 + [F(4, 5)],
              [F(16, 15)] * 3 + [F(4, 5)],
              [F(4, 5)] * 3 + [F(8, 5)]]
P1 = ProbMatrix.of(P1_ENTRIES, Convention.SUM_NSQ)

SWISS_OPT = ProbMatrix.of(
    [[F(3, 40), F(3, 40), F(1, 20), F(1, 20)],
     [F(3, 40), F(3, 40), F(1, 20), F(1, 20)],
     [F(1, 20), F(1, 20), F(3, 40), F(3, 40)],
     [F(1, 20), F(1, 20), F(3, 40), F(3, 40)]], Convention.SUM_ONE)


def brute_loglik(matrix, weights):
    """Independent oracle: plain double loop over cells."""
    total = 0.0
    for i in range(matrix.n):
        for j in range(matrix.n):
            w = float(weights.w[i][j])
            p = float(matrix.entries[i][j])
            if w == 0:
                continue
            if p == 0:
                return float("-inf")
            total += w * math.log(p)
    return total


class TestLogLikelihood:
    def test_flat_matrix_gives_zero(self):
        assert log_likelihood(J4, WeightTable.symmetric(4, 2, 1)) == 0.0

    def test_block_matrix_multiplicities(self):
        # twelve cells carry total weight on 6/5, eight on 4/5
        expected = 12 * math.log(6 / 5) + 8 * math.log(4 / 5)
        got = log_likelihood(P2, WeightTable.symmetric(4, 2, 1))
        assert got == pytest.approx(expected, abs=1e-14)
        assert got == pytest.approx(brute_loglik(P2, WeightTable.symmetric(4, 2, 1)))

    def test_sum_one_instance(self):
        expected = 24 * math.log(3 / 40) + 16 * math.log(1 / 20)
        got = log_likelihood(SWISS_OPT, WeightTable.symmetric(4, 4, 2))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_zero_entry_with_positive_weight(self):
        rows = [[0.0, 2.0, 1.0, 1.0],
                [2.0, 1.0, 1.0, 0.0],
                [1.0, 1.0, 1.0, 1.0],
                [1.0, 0.0, 1.0, 2.0]]
        matrix = ProbMatrix.of(rows, Convention.SUM_NSQ)
        assert log_likelihood(matrix, WeightTable.symmetric(4, 2, 1)) == float("-inf")

    def test_zero_weight_zero_entry_contributes_nothing(self):
        rows = [[0.0, 2.0, 1.0, 1.0],
                [2.0, 1.0, 1.0, 0.0],
                [1.0, 1.0, 1.0, 1.0],
                [1.0, 0.0, 1.0, 2.0]]
        matrix = ProbMatrix.of(rows, Convention.SUM_NSQ)
        weights = [[0 if matrix.entries[i][j] == 0 else 1 for j in range(4)]
                   for i in range(4)]
        got = log_likelihood(matrix, WeightTable.full(weights))
        assert math.isfinite(got)
        assert got == pytest.approx(brute_loglik(matrix, WeightTable.full(weights)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            log_likelihood(J4, WeightTable.symmetric(3, 2, 1))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        weights = WeightTable.symmetric(4, 3, 1)
        for _ in range(50):
            raw = rng.uniform(0.2, 2.0, size=(4, 4))
            raw *= 16.0 / raw.sum()
            matrix = ProbMatrix.of(raw.tolist(), Convention.SUM_NSQ)
            perm = rng.permutation(4)
            permuted = ProbMatrix.of(raw[np.ix_(perm, perm)].tolist(),
                                     Convention.SUM_NSQ)
            assert log_likelihood(matrix, weights) == pytest.approx(
                log_likelihood(permuted, weights), rel=1e-12)


class TestExactLikelihood:
    def test_flat_matrix(self):
        assert exact_likelihood(J4, WeightTable.symmetric(4, 2, 1)) == 1

    def test_block_matrix(self):
        got = exact_likelihood(P2, WeightTable.symmetric(4, 2, 1))
        assert got == F(6, 5) ** 12 * F(4, 5) ** 8

    def test_three_one_pattern_and_ordering(self):
        value1 = exact_likelihood(P1, WeightTable.symmetric(4, 2, 1))
        assert value1 == F(16, 15) ** 12 * F(8, 5) ** 2 * F(4, 5) ** 6
        value2 = exact_likelihood(P2, WeightTable.symmetric(4, 2, 1))
        assert value1 < value2

    def test_agrees_with_log_likelihood(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            cells = [F(int(x), 100) for x in rng.integers(1, 60, size=16)]
            total = sum(cells)
            cells = [c / total * 16 for c in cells]
            rows = [cells[4 * i:4 * i + 4] for i in range(4)]
            matrix = ProbMatrix.of(rows, Convention.SUM_NSQ)
            weights = WeightTable.symmetric(4, int(rng.integers(1, 5)),
                                            int(rng.integers(1, 5)))
            exact = exact_likelihood(matrix, weights)
            approx = math.log(exact.numerator) - math.log(exact.denominator)
            assert approx == pytest.approx(log_likelihood(matrix, weights),
                                           rel=1e-12, abs=1e-12)

    def test_rejects_real_exponents(self):
        with pytest.raises(ValueError, match="log_likelihood"):
            exact_likelihood(P2, WeightTable.symmetric(4, 2.5, 1))

    def test_rejects_float_entries(self):
        floats = ProbMatrix.of([[1.0] * 4] * 4, Convention.SUM_NSQ)
        with pytest.raises(ValueError, match="rational"):
            exact_likelihood(floats, WeightTable.symmetric(4, 2, 1))


class TestConvertConvention:
    def test_swiss_optimum_scales_to_block_matrix(self):
        scaled = convert_convention(SWISS_OPT, Convention.SUM_NSQ)
        assert scaled.entries == P2.entries

    def test_flat(self):
        j16 = ProbMatrix.of([[F(1, 16)] * 4 for _ in range(4)], Convention.SUM_ONE)
        assert convert_convention(j16, Convention.SUM_NSQ).entries == J4.entries

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        raw = rng.uniform(0.2, 2.0, size=(4, 4))
        raw *= 16.0 / raw.sum()
        matrix = ProbMatrix.of(raw.tolist(), Convention.SUM_NSQ)
        back = convert_convention(convert_convention(matrix, Convention.SUM_ONE),
                                  Convention.SUM_NSQ)
        assert np.allclose(back.as_array(), matrix.as_array(), rtol=0, atol=1e-15)

    def test_round_trip_exact_is_identity(self):
        back = convert_convention(convert_convention(P2, Convention.SUM_ONE),
                                  Convention.SUM_NSQ)
        assert back.entries == P2.entries

    def test_argmax_preserved_across_conventions(self):
        # both sides scale by the same positive constant, so strict
        # inequalities transfer between conventions
        weights = WeightTable.symmetric(4, 2, 1)
        one_p1 = exact_likelihood(convert_convention(P1, Convention.SUM_ONE), weights)
        one_p2 = exact_likelihood(convert_convention(P2, Convention.SUM_ONE), weights)
        nsq_p1 = exact_likelihood(P1, weights)
        nsq_p2 = exact_likelihood(P2, weights)
        assert (one_p1 < one_p2) == (nsq_p1 < nsq_p2)
        scale = F(1, 16) ** 20
        assert one_p2 == nsq_p2 * scale
        assert one_p1 == nsq_p1 * scale


class TestSwissCounts:
    def test_table(self):
        table = swiss_counts()
        assert table.w == tuple(tuple(4 if i == j else 2 for j in range(4))
                                for i in range(4))

    def test_equals_symmetric_expansion(self):
        table = swiss_counts()
        symmetric = WeightTable.symmetric(4, 4, 2)
        for i in range(4):
            for j in range(4):
                assert table.w[i][j] == symmetric.w[i][j]
        assert table.symmetric_pair() == (4, 2)

    def test_total(self):
        assert swiss_counts().total() == 40

    def test_one_table_however_built(self):
        symmetric = WeightTable.symmetric(4, 4, 2)
        full = WeightTable.full([[4 if i == j else 2 for j in range(4)] for i in range(4)])
        for table in (swiss_counts(), full):
            assert table == symmetric
            assert hash(table) == hash(symmetric)
            assert table.to_json_dict() == symmetric.to_json_dict()
            assert log_likelihood(SWISS_OPT, table).hex() \
                == log_likelihood(SWISS_OPT, symmetric).hex()


class TestValidation:
    def test_negative_entry(self):
        with pytest.raises(ValueError, match="negative"):
            ProbMatrix.of([[-1, 2, 1, 2], [2, 1, 1, 0],
                           [1, 1, 1, 1], [2, 0, 1, 2]], Convention.SUM_NSQ)

    def test_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            ProbMatrix.of([[1.0] * 4] * 4, Convention.SUM_ONE)

    @pytest.mark.parametrize("rows, match", [
        ([[math.nan]], "entry nan is not a number"),
        ([[1.0, math.nan], [math.nan, 1.0]], "entry nan is not a number"),
        ([[math.inf]], "sum to inf"),
        ([[0.5, math.inf], [-math.inf, 0.5]], "negative entry -inf")],
        ids=["nan", "nan-pair", "inf", "inf-pair"])
    def test_non_finite_entry(self, rows, match):
        with pytest.raises(ValueError, match=match):
            ProbMatrix.of(rows, Convention.SUM_ONE)

    def test_zero_weight_table(self):
        with pytest.raises(ValueError):
            WeightTable.full([[0, 0], [0, 0]])

    def test_symmetric_needs_positive(self):
        with pytest.raises(ValueError):
            WeightTable.symmetric(4, 0, 1)

    @pytest.mark.parametrize("n", [4.0, 2.5, True])
    def test_non_integer_side_rejected(self, n):
        # the table is refused here, so em_multistart never meets its side
        with pytest.raises(ValueError, match="n must be an integer"):
            WeightTable.symmetric(n, 2, 1)

    def test_non_finite_weights(self):
        with pytest.raises(ValueError, match="weight s"):
            WeightTable.symmetric(4, float("inf"), 1)
        with pytest.raises(ValueError, match="weight t"):
            WeightTable.symmetric(4, 2, float("nan"))
        with pytest.raises(ValueError, match=r"weight w\[1\]\[0\]"):
            WeightTable.full([[1, 2], [float("inf"), 1]])

    @pytest.mark.parametrize("s, t, name", [
        (1, F(1, 10 ** 400), "weight t"), (F(10 ** 400), 1, "weight s"),
        (1e300, 1e-300, "weight ratio s/t"), (1e-300, 1e300, "weight ratio s/t"),
        (1, 5e-324, "weight ratio s/t")])
    def test_symmetric_weights_outside_the_float_range(self, s, t, name):
        with pytest.raises(ValueError, match=f"{name} is outside the float range"):
            WeightTable.symmetric(3, s, t)

    @pytest.mark.parametrize("w, name", [
        ([[10 ** 400, 1], [1, 1]], r"w\[0\]\[0\]"),
        ([[1, 0], [F(1, 10 ** 400), 1]], r"w\[1\]\[0\]")])
    def test_full_weights_outside_the_float_range(self, w, name):
        # a zero weight is in range; a positive one must stay positive
        with pytest.raises(ValueError, match=f"weight {name} is outside the float range"):
            WeightTable.full(w)

    def test_symmetric_weights_at_the_float_range_edge(self):
        s, t = WeightTable.symmetric(3, 1e300, 1e-7).symmetric_pair()
        assert 0 < float(s) / float(t) < math.inf


class TestJson:
    def test_weight_table_round_trip(self):
        for table in (swiss_counts(), WeightTable.symmetric(4, 4, 2),
                      WeightTable.symmetric(4, F(5, 2), 1)):
            data = json.loads(json.dumps(table.to_json_dict()))
            again = WeightTable.from_json_dict(data)
            assert again == table

    def test_matrix_to_json_dict_writes_fractions(self):
        data = json.loads(json.dumps(P2.to_json_dict()))
        assert data["entries"][0][0] == "6/5"
