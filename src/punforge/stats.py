"""Statistics for human rating studies and metric-vs-rating correlation.

Ratings live in a long table of (item, rater, score) records where a score
may be missing.  The pipeline mirrors common crowdsourcing practice:

* z-score within each rater (population standard deviation); raters who
  gave a constant score carry no signal and are dropped with a warning;
* drop raters whose best Spearman correlation with any co-rater over at
  least ``min_shared`` shared items stays below a floor; raters without
  enough overlap with anyone are kept but flagged;
* per-item averages, with all-missing items scored 0;
* metric vectors are standardized and clipped to +/-2 standard deviations
  before correlating.

Spearman correlation is Pearson correlation of average ranks (ties share
the average of the positions they occupy).  Significance uses a seeded
permutation test with an add-one numerator, so p is never exactly zero.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import FormatError, open_text

log = logging.getLogger(__name__)

DEFAULT_MIN_CORR = 0.2
DEFAULT_MIN_SHARED = 3
DEFAULT_CLIP = 2.0
DEFAULT_PERMUTATIONS = 10_000
# A p-value resolves 1 / (permutations + 1); a million draws resolve 1e-6
# and take 2.5 to 4 s a column at 200 items.  More would run for hours.
MAX_PERMUTATIONS = 1_000_000
MISSING = "NA"


@dataclass
class Rating:
    item_id: str
    rater_id: str
    score: float | None


def _parse_score(raw: str, path: str | Path, line: int) -> float | None:
    """A ratings-file score: None when missing, else a finite number."""
    if raw in ("", MISSING):
        return None
    try:
        score = float(raw)
    except ValueError:
        raise FormatError(f"{path}:{line}: score is not a number: {raw!r}") from None
    if not math.isfinite(score):
        raise FormatError(f"{path}:{line}: score is not finite: {raw!r}")
    return score


@dataclass
class RatingsTable:
    records: list[Rating]

    def by_rater(self) -> dict[str, dict[str, float]]:
        """rater -> {item: score}, missing scores skipped."""
        out: dict[str, dict[str, float]] = {}
        for r in self.records:
            out.setdefault(r.rater_id, {})
            if r.score is not None:
                out[r.rater_id][r.item_id] = r.score
        return out

    @classmethod
    def load_csv(cls, path: str | Path) -> "RatingsTable":
        """Read ``item_id,rater_id,score`` rows; a malformed file is a FormatError."""
        records = []
        with open_text(path, newline="") as fh:
            reader = csv.DictReader(fh)
            try:
                if not {"item_id", "rater_id"} <= set(reader.fieldnames or ()):
                    raise FormatError(f"{path}:1: header must name item_id and rater_id")
                for row in reader:
                    if row["item_id"] is None or row["rater_id"] is None:
                        raise FormatError(f"{path}:{reader.line_num}: "
                                          "expected item_id,rater_id,score")
                    score = _parse_score((row.get("score") or "").strip(),
                                         path, reader.line_num)
                    records.append(Rating(row["item_id"], row["rater_id"], score))
            except csv.Error as exc:
                raise FormatError(f"{path}:{reader.line_num}: {exc}") from None
        return cls(records)


def _mean_std(values) -> tuple[float, float]:
    """Mean and population standard deviation; ValueError unless both are
    finite, as when the values' sum or squares overflow float64.

    Values below 0.5 in magnitude are first scaled up by a power of two, so
    that the squares of a tiny spread do not underflow to zero.  The scaling
    is exact, so the result is the unscaled formula's bit for bit wherever
    that formula does not underflow.
    """
    arr = np.asarray(values, dtype=np.float64)
    exp = min(math.frexp(float(np.abs(arr).max()))[1], 0)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.ldexp(arr, -exp) if exp else arr
        mean = math.ldexp(float(scaled.mean()), exp)
        std = math.ldexp(float(scaled.std()), exp)
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ValueError("mean or standard deviation is not finite in float64")
    return mean, std


def zscore_raters(table: RatingsTable) -> RatingsTable:
    """Standardize scores within each rater; constant raters are dropped.

    A rater whose mean or standard deviation is not finite is a ValueError.
    """
    by_rater: dict[str, list[float]] = {}
    for r in table.records:
        if r.score is not None:
            by_rater.setdefault(r.rater_id, []).append(r.score)
    stats: dict[str, tuple[float, float]] = {}
    dropped: set[str] = set()
    for rater, scores in by_rater.items():
        try:
            mean, std = _mean_std(scores)
        except ValueError as exc:
            raise ValueError(f"rater {rater!r}: {exc}") from None
        if std == 0.0:
            dropped.add(rater)
            log.warning("dropping rater %s: constant scores carry no signal", rater)
        else:
            stats[rater] = (mean, std)
    records = []
    for r in table.records:
        if r.rater_id in dropped:
            continue
        if r.score is None:
            records.append(Rating(r.item_id, r.rater_id, None))
        else:
            mean, std = stats[r.rater_id]
            records.append(Rating(r.item_id, r.rater_id, (r.score - mean) / std))
    return RatingsTable(records)


@dataclass
class FilterReport:
    table: RatingsTable
    dropped: set[str] = field(default_factory=set)
    uncheckable: set[str] = field(default_factory=set)  # kept, flagged


def filter_raters(table: RatingsTable, min_corr: float = DEFAULT_MIN_CORR,
                  min_shared: int = DEFAULT_MIN_SHARED) -> FilterReport:
    """Drop raters whose best correlation with any co-rater is too low.

    A correlation counts only over >= ``min_shared`` shared items with
    non-constant shared scores on both sides.  Raters with no computable
    correlation at all are kept and flagged rather than judged.
    """
    check_min_corr(min_corr)
    scores = table.by_rater()
    raters = list(scores)
    best: dict[str, float | None] = {r: None for r in raters}
    for i, a in enumerate(raters):
        for b in raters[i + 1:]:
            shared = sorted(set(scores[a]) & set(scores[b]))
            if len(shared) < min_shared:
                continue
            xs = [scores[a][k] for k in shared]
            ys = [scores[b][k] for k in shared]
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue  # constant slice, correlation undefined
            rho = spearman(xs, ys)
            for r in (a, b):
                if best[r] is None or rho > best[r]:
                    best[r] = rho
    dropped = {r for r, v in best.items() if v is not None and v < min_corr}
    uncheckable = {r for r, v in best.items() if v is None}
    for r in sorted(uncheckable):
        log.warning("rater %s shares too few items with everyone; kept unchecked", r)
    kept = [r for r in table.records if r.rater_id not in dropped]
    return FilterReport(RatingsTable(kept), dropped, uncheckable)


def item_means(table: RatingsTable) -> dict[str, float]:
    """Per-item mean score; items with only missing scores get 0."""
    sums: dict[str, list[float]] = {}
    for r in table.records:
        sums.setdefault(r.item_id, [])
        if r.score is not None:
            sums[r.item_id].append(r.score)
    return {
        item: (float(np.mean(vals)) if vals else 0.0)
        for item, vals in sums.items()
    }


def check_clip(clip: float) -> None:
    """Raise ValueError unless ``clip`` is a positive bound."""
    if not clip > 0:
        raise ValueError(f"clip must be > 0, got {clip}")


def check_min_corr(min_corr: float) -> None:
    """Raise ValueError unless ``min_corr`` is a Spearman floor in [-1, 1]."""
    if not -1.0 <= min_corr <= 1.0:
        raise ValueError(f"min_rater_corr must be in [-1, 1], got {min_corr}")


def check_permutations(permutations: int) -> None:
    """Raise ValueError unless ``permutations`` is in [1, MAX_PERMUTATIONS]."""
    if not 1 <= permutations <= MAX_PERMUTATIONS:
        raise ValueError(f"permutations must be in [1, {MAX_PERMUTATIONS}], "
                         f"got {permutations}")


def clip_standardize(values: Sequence[float], clip: float = DEFAULT_CLIP) -> np.ndarray:
    """Z-score (population std) then clamp to [-clip, clip]."""
    check_clip(clip)
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot standardize an empty vector")
    mean, std = _mean_std(arr)
    if std == 0.0:
        raise ValueError("cannot standardize a constant vector")
    return np.clip((arr - mean) / std, -clip, clip)


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions.

    Ties are runs of equal values in stable sorted order; a run over sorted
    positions start..end - 1 gets (start + end + 1) / 2.  NaN has no rank:
    ValueError (it sorts last, so the last sorted value shows it).
    """
    arr = np.asarray(values, dtype=np.float64)
    order = arr.argsort(kind="stable")
    ordered = arr[order]
    if arr.size and math.isnan(ordered[-1]):
        raise ValueError("cannot rank NaN")
    edge = np.empty(arr.size + 1, dtype=bool)  # a run starts or the array ends
    edge[0] = edge[-1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=edge[1:-1])
    bounds = edge.nonzero()[0]
    starts, ends = bounds[:-1], bounds[1:]
    ranks = np.empty(arr.size)
    ranks[order] = ((starts + ends + 1) / 2).repeat(ends - starts)
    return ranks


def _rank_deviations(x: Sequence[float], y: Sequence[float]
                     ) -> tuple[np.ndarray, np.ndarray, float]:
    """Average ranks of ``x`` and ``y`` minus their mean (n + 1) / 2, and
    the product of the two deviation norms."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("need at least two observations")
    dx = average_ranks(x) - (x.size + 1) / 2
    dy = average_ranks(y) - (y.size + 1) / 2
    scale = math.sqrt(dx @ dx) * math.sqrt(dy @ dy)
    if scale == 0.0:
        raise ValueError("correlation undefined for a constant vector")
    return dx, dy, scale


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of average ranks."""
    dx, dy, scale = _rank_deviations(x, y)
    return float(dx @ dy / scale)


# Permuted draws scored per matrix product: 512 draws of 200 items is 800 KB.
_PERMUTATION_BLOCK = 512


def permutation_pvalue(x: Sequence[float], y: Sequence[float],
                       permutations: int = DEFAULT_PERMUTATIONS,
                       seed: int = 1) -> float:
    """Two-sided permutation p-value for the Spearman correlation.

    Counts the draws whose |rho| reaches the observed |rho|, with one added
    to numerator and denominator.  The draws are those of one
    ``np.random.default_rng(seed).permutation(y)`` call per draw.  The ranks
    are computed once: shuffling the centred ranks of ``y`` uses the same
    draws as shuffling ``y``, and the ranks of a permuted vector are the
    permuted ranks.  Each block of ``_PERMUTATION_BLOCK`` draws is filled
    with copies of the centred ranks, shuffled row by row in one
    ``Generator.permuted`` call (the same Fisher-Yates draws, row after
    row, as one ``permutation`` call per row), and scored by one matrix
    product.

    The result is exact, not approximate.  Average ranks are multiples of
    0.5 and their mean (n + 1) / 2 is exact, so every product of two centred
    ranks is a multiple of 0.25 and every sum of them is exact in float64,
    in any summation order, while n is below about 10**5.  Each draw's
    correlation therefore equals, bit for bit, what ``spearman`` returns
    for that permuted ``y``.
    """
    check_permutations(permutations)
    dx, dy, scale = _rank_deviations(x, y)
    observed = abs(dx @ dy / scale)
    rng = np.random.default_rng(seed)
    block = np.empty((min(permutations, _PERMUTATION_BLOCK), dy.size))
    hits = 0
    for done in range(0, permutations, _PERMUTATION_BLOCK):
        rows = block[:min(_PERMUTATION_BLOCK, permutations - done)]
        rows[:] = dy
        rng.permuted(rows, axis=1, out=rows)
        hits += int(np.count_nonzero(np.abs((rows @ dx) / scale) >= observed))
    return (hits + 1) / (permutations + 1)
