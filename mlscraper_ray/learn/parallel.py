"""Speculative-parallel scraper training (SURVEY.md §7 M2's optional
parallel variant).

The sequential searcher (:func:`..training.train_scraper`, semantics of
/root/reference/mlscraper/training.py:36-78) tries priority-ordered
match combinations one by one; on real pages a single uniqueness check
can cost seconds, so the search is latency-bound. Here the combination
INDEX SPACE is sharded into windows and each window is tried in a Ray
task; the winner is the LOWEST-INDEX success, which is exactly the
combination the sequential search would have returned — parallelism
changes wall-clock, never the learned plan (tested).

Tasks rebuild the DOM + match list from (html, value_json) pairs
rather than shipping match objects: DOM graphs are heavy and
interlinked, while page bytes are compact and the per-task rebuild is
deterministic (the priority sort is a stable total order, so every
task sees the identical combination list).
"""
from __future__ import annotations

import json

import ray

from mlscraper_ray.htmlcore.dom import parse_html
from mlscraper_ray.learn.samples import Sample, TrainingSet
from mlscraper_ray.learn.selectors import SelectorContext
from mlscraper_ray.learn.training import (
    NoScraperFoundException,
    count_combinations,
    prioritized_combinations,
    train_scraper_for_matches,
)


def _build_training_set(samples: list[tuple[bytes, str]]) -> TrainingSet:
    ts = TrainingSet()
    for html, value_json in samples:
        ts.add_sample(Sample(parse_html(html), json.loads(value_json)))
    return ts


@ray.remote
def _try_window(samples: list[tuple[bytes, str]], complexity: int, start: int, stop: int):
    """Try combinations [start, stop); return (index, plan) of the
    first success in the window, else None."""
    ts = _build_training_set(samples)
    combos = prioritized_combinations(ts)
    ctx = SelectorContext()
    roots = [s.page for s in ts.item.samples]
    for i in range(start, min(stop, len(combos))):
        try:
            scraper = train_scraper_for_matches(ctx, combos[i], roots, complexity)
            return i, scraper.to_plan()
        except NoScraperFoundException:
            continue
    return None


def train_scraper_parallel(
    samples: list[tuple[bytes, str | bytes]],
    complexity: int = 100,
    window: int = 4,
    max_inflight: int = 8,
) -> dict:
    """Learn a scraper plan from (html_bytes, value_json) samples using
    speculative window-parallel search. Returns the plan dict (the
    artifact the apply stage broadcasts).

    Deterministic: windows are resolved in index order, so the result
    is the lowest-index succeeding combination — identical to
    ``train_scraper``'s answer."""
    norm = [
        (bytes(h), v if isinstance(v, str) else v.decode()) for h, v in samples
    ]
    # one driver-side pass to size the search space; only the window
    # tasks sort it
    n_combos = count_combinations(_build_training_set(norm))
    if n_combos == 0:
        raise NoScraperFoundException("no match combinations")

    samples_ref = ray.put(norm)
    windows = [(s, min(s + window, n_combos)) for s in range(0, n_combos, window)]
    pending: dict[int, ray.ObjectRef] = {}
    next_to_launch = 0
    next_to_resolve = 0

    try:
        while next_to_resolve < len(windows):
            while next_to_launch < len(windows) and len(pending) < max_inflight:
                s, e = windows[next_to_launch]
                pending[next_to_launch] = _try_window.remote(samples_ref, complexity, s, e)
                next_to_launch += 1
            # resolve strictly in window order: the first success in the
            # earliest window wins regardless of completion order
            result = ray.get(pending.pop(next_to_resolve))
            next_to_resolve += 1
            if result is not None:
                return result[1]
        raise NoScraperFoundException("did not find scraper")
    finally:
        for ref in pending.values():
            ray.cancel(ref, force=False)
