import logging
import math
import random
from collections import Counter

import numpy as np
import pytest

from oracles import (reference_permutation_pvalue, reference_ranks,
                     reference_spearman)
from punforge.stats import (_PERMUTATION_BLOCK, FilterReport, Rating,
                            RatingsTable, average_ranks, clip_standardize,
                            filter_raters, item_means, permutation_pvalue,
                            spearman, zscore_raters)


def _table(rows):
    return RatingsTable([Rating(i, r, s) for i, r, s in rows])


class TestRatingsTable:
    def test_csv_with_missing_values(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("item_id,rater_id,score\ni1,r1,4.0\ni2,r1,NA\n"
                        "i3,r1,\ni1,r2,3.5\n", encoding="utf-8")
        assert RatingsTable.load_csv(path).records == [
            Rating("i1", "r1", 4.0), Rating("i2", "r1", None),
            Rating("i3", "r1", None), Rating("i1", "r2", 3.5)]

    def test_raters_and_items_preserve_first_seen_order(self):
        table = _table([("b", "y", 1.0), ("a", "x", 2.0), ("b", "x", 3.0)])
        assert list(table.by_rater()) == ["y", "x"]
        assert list(item_means(table)) == ["b", "a"]

    def test_by_rater_skips_missing(self):
        table = _table([("i1", "r1", 4.0), ("i2", "r1", None)])
        assert table.by_rater() == {"r1": {"i1": 4.0}}


class TestZScoreRaters:
    def test_population_standardization_by_hand(self):
        table = _table([("i1", "r1", 1.0), ("i2", "r1", 2.0),
                        ("i3", "r1", 3.0)])
        z = zscore_raters(table)
        expected = math.sqrt(3 / 2)
        got = [r.score for r in z.records]
        assert got == pytest.approx([-expected, 0.0, expected])

    def test_constant_rater_dropped_with_warning(self, caplog):
        table = _table([("i1", "r1", 5.0), ("i2", "r1", 5.0),
                        ("i1", "r2", 1.0), ("i2", "r2", 2.0)])
        with caplog.at_level(logging.WARNING, logger="punforge.stats"):
            z = zscore_raters(table)
        assert list(z.by_rater()) == ["r2"]
        assert any("r1" in rec.message for rec in caplog.records)

    def test_missing_scores_pass_through(self):
        table = _table([("i1", "r1", 1.0), ("i2", "r1", None),
                        ("i3", "r1", 3.0)])
        z = zscore_raters(table)
        assert z.records[1].score is None

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scores", [(1e308, 1e308, -1e308),  # sum
                                        (1e200, -1e200, 0.0)])    # squares
    def test_overflowing_rater_is_refused_by_name(self, scores):
        table = _table([("i1", "r0", 1.0), ("i2", "r0", 2.0)]
                       + [(f"i{k}", "r9", s) for k, s in enumerate(scores)])
        with pytest.raises(ValueError, match="rater 'r9'.*not finite"):
            zscore_raters(table)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [-540, -1000, -1070])
    def test_rater_with_a_tiny_spread_is_kept(self, k):
        """Squared deviations of about 2**(2k) underflow to zero in float64;
        the spread is still a spread.  Down to k = -1000 the z-scores are
        exactly those of the unscaled scores."""
        plain = [1.0, 2.0, 3.0, 7.0]
        table = _table([(f"i{i}", "r1", math.ldexp(s, k))
                        for i, s in enumerate(plain)])
        z = zscore_raters(table)
        assert list(z.by_rater()) == ["r1"]
        if k >= -1000:
            expected = zscore_raters(_table([(f"i{i}", "r1", s)
                                             for i, s in enumerate(plain)]))
            assert z.records == expected.records


class TestFilterRaters:
    def test_disagreeing_rater_dropped(self):
        rows = []
        for item, score in zip("abcde", [1, 2, 3, 4, 5]):
            rows.append((item, "r1", float(score)))
            rows.append((item, "r2", float(score + 0.5)))
            rows.append((item, "r3", float(-score)))
        report = filter_raters(_table(rows))
        assert report.dropped == {"r3"}
        assert report.uncheckable == set()
        assert set(report.table.by_rater()) == {"r1", "r2"}

    def test_low_overlap_rater_kept_and_flagged(self, caplog):
        rows = [(i, "r1", float(s)) for i, s in zip("abcde", range(5))]
        rows += [(i, "r2", float(s)) for i, s in zip("abcde", range(5))]
        rows += [("a", "r9", 1.0), ("b", "r9", 0.0)]  # only two shared items
        with caplog.at_level(logging.WARNING, logger="punforge.stats"):
            report = filter_raters(_table(rows))
        assert report.uncheckable == {"r9"}
        assert "r9" in report.table.by_rater()

    def test_constant_shared_slice_is_not_a_correlation(self):
        # r2 is constant on the shared items, so the pair is skipped and
        # both raters end up uncheckable rather than dropped
        rows = [(i, "r1", float(s)) for i, s in zip("abc", [1, 2, 3])]
        rows += [(i, "r2", 2.0) for i in "abc"]
        report = filter_raters(_table(rows))
        assert report.dropped == set()
        assert report.uncheckable == {"r1", "r2"}

    def test_threshold_is_exclusive(self):
        rows = []
        for item, a, b in [("a", 1, 1), ("b", 2, 3), ("c", 3, 2),
                           ("d", 4, 4), ("e", 5, 5)]:
            rows.append((item, "r1", float(a)))
            rows.append((item, "r2", float(b)))
        rho = spearman([1, 2, 3, 4, 5], [1, 3, 2, 4, 5])
        report = filter_raters(_table(rows), min_corr=rho)
        assert report.dropped == set()
        report = filter_raters(_table(rows), min_corr=rho + 1e-9)
        assert report.dropped == {"r1", "r2"}


class TestItemMeans:
    def test_mean_over_present_scores(self):
        table = _table([("i1", "r1", 2.0), ("i1", "r2", 4.0),
                        ("i2", "r1", 1.0)])
        assert item_means(table) == {"i1": 3.0, "i2": 1.0}

    def test_all_missing_item_scores_zero(self):
        table = _table([("i1", "r1", None), ("i1", "r2", None),
                        ("i2", "r1", 2.0)])
        assert item_means(table) == {"i1": 0.0, "i2": 2.0}


class TestClipStandardize:
    def test_unclipped_values_are_plain_zscores(self):
        values = [1.0, 2.0, 3.0, 4.0]
        arr = np.asarray(values)
        expected = (arr - arr.mean()) / arr.std()
        assert clip_standardize(values, clip=10.0) == pytest.approx(expected)

    def test_outliers_clamp_to_the_limit(self):
        out = clip_standardize([0.0] * 9 + [100.0], clip=2.0)
        assert out.max() == 2.0
        assert out.min() >= -2.0

    def test_constant_vector_rejected(self):
        with pytest.raises(ValueError):
            clip_standardize([3.0, 3.0, 3.0])

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            clip_standardize([])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values", [[1e308, -1e308, 0.0],
                                        [1e308, 1e308, 0.0],
                                        [1.0, math.nan, 2.0]])
    def test_spread_that_is_not_finite_rejected(self, values):
        with pytest.raises(ValueError, match="not finite"):
            clip_standardize(values)

    def test_finite_spreads_give_the_plain_formula_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for scale in (1e-100, 1.0, 1e150):
            arr = rng.standard_normal(200) * scale
            expected = np.clip((arr - arr.mean()) / arr.std(), -2.0, 2.0)
            assert np.array_equal(clip_standardize(arr), expected)

    @pytest.mark.filterwarnings("error")
    def test_tiny_spreads_are_the_unscaled_spread(self):
        """Scaling by a power of two moves no bit while every value stays
        normal, although from k = -540 on the squares underflow."""
        values = np.array([1.0, 2.0, 3.0, 7.0])
        expected = clip_standardize(values)
        for k in range(0, -1001, -1):
            assert np.array_equal(clip_standardize(np.ldexp(values, k)), expected), k


class TestRanksAndSpearman:
    def test_tied_ranks_share_their_average(self):
        assert average_ranks([10.0, 20.0, 20.0, 30.0]).tolist() == \
            [1.0, 2.5, 2.5, 4.0]

    def test_ranks_match_counting_reference(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randrange(2, 12)
            values = [float(rng.randrange(0, 5)) for _ in range(n)]
            assert average_ranks(values).tolist() == reference_ranks(values)
        for n in (0, 1, 500, *(rng.randrange(12, 500) for _ in range(8))):
            values = [float(rng.randrange(0, max(1, n // 4))) for _ in range(n)]
            assert average_ranks(values).tolist() == reference_ranks(values)

    def test_spearman_matches_reference_on_tied_data(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randrange(3, 15)
            x = [float(rng.randrange(0, 6)) for _ in range(n)]
            y = [float(rng.randrange(0, 6)) for _ in range(n)]
            try:
                expected = reference_spearman(x, y)
            except ZeroDivisionError:
                continue
            assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    def test_perfect_agreement_and_reversal(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_invariant_under_monotone_transforms(self):
        x = [0.3, 1.1, 2.7, 3.1, 5.0]
        y = [2.0, 1.0, 4.0, 3.0, 5.0]
        base = spearman(x, y)
        assert spearman([math.exp(v) for v in x], y) == pytest.approx(base)
        assert spearman(x, [v ** 3 for v in y]) == pytest.approx(base)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            spearman([1.0], [1.0])
        with pytest.raises(ValueError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_nan_has_no_rank(self):
        nan = math.nan
        with pytest.raises(ValueError, match="NaN"):
            spearman([1.0, 2.0, 3.0, nan], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="NaN"):
            spearman([1.0, 2.0, 3.0, 4.0], [nan, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="NaN"):
            permutation_pvalue([1.0, 2.0, 3.0], [1.0, nan, 3.0])


class TestPermutationPValue:
    def test_add_one_convention_bounds(self):
        x = list(range(8))
        y = [v + 0.1 for v in x]
        p = permutation_pvalue(x, y, permutations=999, seed=5)
        assert 1 / 1000 <= p < 0.02

    def test_two_sided(self):
        x = list(range(8))
        y = x[::-1]
        p = permutation_pvalue(x, y, permutations=999, seed=5)
        assert p < 0.02

    def test_noise_is_insignificant(self):
        rng = random.Random(4)
        x = [rng.random() for _ in range(30)]
        y = [rng.random() for _ in range(30)]
        p = permutation_pvalue(x, y, permutations=500, seed=6)
        assert p > 0.05

    def test_seeded_and_deterministic(self):
        x = [1.0, 4.0, 2.0, 8.0, 5.0, 7.0]
        y = [1.0, 3.0, 3.0, 6.0, 5.0, 6.0]
        a = permutation_pvalue(x, y, permutations=200, seed=9)
        b = permutation_pvalue(x, y, permutations=200, seed=9)
        assert a == b

    @staticmethod
    def _vectors(rng, n, tied):
        """Two non-constant vectors of length n, drawn from few values if tied."""
        while True:
            if tied:
                x = [float(rng.randrange(0, 4)) for _ in range(n)]
                y = [float(rng.randrange(0, 4)) for _ in range(n)]
            else:
                x = [rng.random() for _ in range(n)]
                y = [rng.random() for _ in range(n)]
            if len(set(x)) > 1 and len(set(y)) > 1:
                return x, y

    def test_equals_rerank_every_draw_oracle(self):
        block = _PERMUTATION_BLOCK
        counts = (1, block - 1, block, block + 1, 2000)
        rng = random.Random(31)
        # The oracle re-ranks 200 items per draw, so that size runs each
        # count once, alternating tied and untied data.
        cases = [(n, k, tied) for n in (2, 3, 17) for k in counts
                 for tied in (False, True)]
        cases += [(200, k, k % 2 == 0) for k in counts]
        for seed, (n, k, tied) in enumerate(cases, start=1):
            x, y = self._vectors(rng, n, tied)
            assert permutation_pvalue(x, y, permutations=k, seed=seed) == \
                reference_permutation_pvalue(x, y, k, seed), (n, k, seed, tied)

    @pytest.mark.parametrize("rows", [1, _PERMUTATION_BLOCK - 1,
                                      _PERMUTATION_BLOCK, _PERMUTATION_BLOCK + 1])
    def test_block_shuffle_is_the_per_draw_permutation_stream(self, rows):
        """``permutation_pvalue`` shuffles a block of copied rows with one
        ``permuted`` call and counts on it drawing what one ``permutation``
        call per row draws.  A NumPy whose streams differ fails here."""
        x = [float(v % 7) for v in range(37)]  # tied ranks
        dy = average_ranks(x) - (len(x) + 1) / 2
        seed = 2 ** 40 + rows
        block_rng = np.random.default_rng(seed)
        block = np.empty((rows, dy.size))
        block[:] = dy
        block_rng.permuted(block, axis=1, out=block)
        row_rng = np.random.default_rng(seed)
        per_row = np.array([row_rng.permutation(dy) for _ in range(rows)])
        assert np.array_equal(block, per_row)
        assert block_rng.bit_generator.state == row_rng.bit_generator.state

    def test_one_shuffle_call_per_block(self, monkeypatch):
        class CountingRng:
            def __init__(self, rng):
                self.rng = rng
                self.calls = Counter()

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def counted(*args, **kwargs):
                    self.calls[name] += 1
                    return method(*args, **kwargs)
                return counted

        rng = random.Random(8)
        x = [rng.random() for _ in range(50)]
        y = [rng.random() for _ in range(50)]
        expected = permutation_pvalue(x, y, permutations=10_000, seed=4)
        default_rng, made = np.random.default_rng, []

        def counting_rng(seed):
            made.append(CountingRng(default_rng(seed)))
            return made[-1]
        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        assert permutation_pvalue(x, y, permutations=10_000, seed=4) == expected
        assert [m.calls for m in made] == [
            Counter(permuted=math.ceil(10_000 / _PERMUTATION_BLOCK))]

    def test_permutation_count_validated(self):
        with pytest.raises(ValueError):
            permutation_pvalue([1.0, 2.0], [1.0, 2.0], permutations=0)

