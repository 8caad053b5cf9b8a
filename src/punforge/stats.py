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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

log = logging.getLogger(__name__)

DEFAULT_MIN_CORR = 0.2
DEFAULT_MIN_SHARED = 3
DEFAULT_CLIP = 2.0
DEFAULT_PERMUTATIONS = 10_000
MISSING = "NA"


@dataclass
class Rating:
    item_id: str
    rater_id: str
    score: float | None


@dataclass
class RatingsTable:
    records: list[Rating]

    def raters(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.rater_id, None)
        return list(seen)

    def items(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.item_id, None)
        return list(seen)

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
        records = []
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                raw = (row.get("score") or "").strip()
                score = None if raw in ("", MISSING) else float(raw)
                records.append(Rating(row["item_id"], row["rater_id"], score))
        return cls(records)

    def save_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["item_id", "rater_id", "score"])
            for r in self.records:
                writer.writerow([
                    r.item_id, r.rater_id,
                    MISSING if r.score is None else repr(r.score),
                ])


def zscore_raters(table: RatingsTable) -> RatingsTable:
    """Standardize scores within each rater; constant raters are dropped."""
    by_rater: dict[str, list[float]] = {}
    for r in table.records:
        if r.score is not None:
            by_rater.setdefault(r.rater_id, []).append(r.score)
    stats: dict[str, tuple[float, float]] = {}
    dropped: set[str] = set()
    for rater, scores in by_rater.items():
        mean = float(np.mean(scores))
        std = float(np.std(scores))  # population
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


def check_permutations(permutations: int) -> None:
    """Raise ValueError unless at least one permutation is asked for."""
    if permutations < 1:
        raise ValueError(f"permutations must be >= 1, got {permutations}")


def clip_standardize(values: Sequence[float], clip: float = DEFAULT_CLIP) -> np.ndarray:
    """Z-score (population std) then clamp to [-clip, clip]."""
    check_clip(clip)
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot standardize an empty vector")
    std = arr.std()
    if std == 0.0:
        raise ValueError("cannot standardize a constant vector")
    return np.clip((arr - arr.mean()) / std, -clip, clip)


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size, dtype=np.float64)
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of average ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("need at least two observations")
    rx = average_ranks(x)
    ry = average_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined for a constant vector")
    return float((dx * dy).sum() / (sx * sy))


def permutation_pvalue(x: Sequence[float], y: Sequence[float],
                       permutations: int = DEFAULT_PERMUTATIONS,
                       seed: int = 1) -> float:
    """Two-sided permutation p-value for the Spearman correlation."""
    check_permutations(permutations)
    observed = abs(spearman(x, y))
    y = np.asarray(y, dtype=np.float64)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(permutations):
        rho = spearman(x, rng.permutation(y))
        if abs(rho) >= observed:
            hits += 1
    return (hits + 1) / (permutations + 1)


def pairwise_compare(a: Mapping[str, float], b: Mapping[str, float]) -> tuple[float, float, float]:
    """Percentages of shared items where a wins / loses / ties against b.

    Requires identical item sets: comparing systems scored on different
    items is a usage error, not a statistic.
    """
    if set(a) != set(b):
        raise ValueError("pairwise comparison needs identical item sets")
    if not a:
        raise ValueError("pairwise comparison needs at least one item")
    win = lose = tie = 0
    for item, score in a.items():
        other = b[item]
        if score > other:
            win += 1
        elif score < other:
            lose += 1
        else:
            tie += 1
    n = len(a)
    return 100.0 * win / n, 100.0 * lose / n, 100.0 * tie / n
