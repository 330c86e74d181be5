"""Scraper training: search over match combinations.

Semantic port of ``/root/reference/mlscraper/training.py`` over our
DOM and selector context. Runs driver-side or inside a single Ray task
(it needs only a handful of labeled pages); the learned result is a
JSON plan (``scrape.model``) broadcast to the apply stage.
"""
from __future__ import annotations

import logging
import math
from itertools import combinations, product

from mlscraper_ray.learn.matches import (
    DictMatch,
    ListMatch,
    NodeSimilarity,
    ValueMatch,
    has_overlapping_pair,
    mean,
)
from mlscraper_ray.learn.samples import TrainingSet
from mlscraper_ray.learn.selectors import (
    SelectorContext,
    generate_unique_selectors_for_nodes,
)
from mlscraper_ray.scrape.model import (
    DictScraper,
    ListScraper,
    PassThroughSelector,
    ValueScraper,
)

logger = logging.getLogger(__name__)


class TrainingException(Exception):
    pass


class NoScraperFoundException(TrainingException):
    pass


def get_match_combination_priority(matches, similarity) -> float:
    """1 for singletons, else mean pairwise similarity
    (reference ``training.py:28-33``). ``similarity`` is the node
    similarity to use (see ``Match.get_similarity_to``)."""
    if len(matches) == 1:
        return 1
    return mean(
        m1.get_similarity_to(m2, similarity) for m1, m2 in combinations(matches, 2)
    )


def _search_space(training_set: TrainingSet) -> list:
    """Per sample, its matches span-sorted ascending and truncated to
    the top 100: the factors of the combination product."""
    return [
        sorted(s.get_matches(), key=lambda m: m.span)[:100]
        for s in training_set.item.samples
    ]


def count_combinations(training_set: TrainingSet) -> int:
    """``len(prioritized_combinations(training_set))``, without building
    or sorting the combinations."""
    return math.prod(len(ms) for ms in _search_space(training_set))


def prioritized_combinations(training_set: TrainingSet) -> list:
    """The deterministic search order: the cartesian product across
    samples of :func:`_search_space`, sorted by priority descending
    (stable sort, so ties keep product order). Shared by the sequential
    and the speculative-parallel searchers so both try combination i at
    the same index.

    The priorities are :func:`get_match_combination_priority`'s, paid
    only where they order: with fewer than two combinations, or one
    sample (every priority 1), the product order is the answer, and
    otherwise each pair of matches of two samples is compared once.
    The mean runs over the same pair values in ``combinations(c, 2)``
    order, so every priority is the same float."""
    sample_matches = _search_space(training_set)
    match_combinations = list(product(*sample_matches))
    if len(match_combinations) < 2 or len(sample_matches) < 2:
        return match_combinations
    similarity = NodeSimilarity()
    # every pair of matches of two samples is in some combination
    pair_similarity = {
        (m1, m2): m1.get_similarity_to(m2, similarity)
        for ms1, ms2 in combinations(sample_matches, 2)
        for m1 in ms1
        for m2 in ms2
    }
    return sorted(
        match_combinations,
        key=lambda c: mean([pair_similarity[pair] for pair in combinations(c, 2)]),
        reverse=True,
    )


def train_scraper(training_set: TrainingSet, complexity: int = 100):
    """Search for a scraper reproducing the training samples
    (reference ``training.py:36-78``): combinations tried in priority
    order; first success wins."""
    match_combinations_prioritized = prioritized_combinations(training_set)
    logger.info("trying %d match combinations", len(match_combinations_prioritized))

    ctx = SelectorContext()
    roots = [s.page for s in training_set.item.samples]
    for match_combination in match_combinations_prioritized:
        try:
            return train_scraper_for_matches(ctx, match_combination, roots, complexity)
        except NoScraperFoundException:
            continue
    raise NoScraperFoundException("did not find scraper")


def train_scraper_for_matches(ctx: SelectorContext, matches, roots, complexity: int):
    """Recursive per-match-type training
    (reference ``training.py:81-207``)."""
    found_types = {type(m) for m in matches}
    assert len(found_types) == 1, f"different match types passed {found_types=}"
    found_type = found_types.pop()

    matches = list(matches)
    roots = list(roots)
    assert len(matches) == len(roots), "got uneven inputs"

    if has_overlapping_pair(matches):
        raise NoScraperFoundException("a pair of matches overlaps, most likely invalid")

    if found_type is ValueMatch:
        # all matches must share one extractor (reference ``training.py:107-113``)
        extractors = {m.extractor for m in matches}
        if len(extractors) != 1:
            raise NoScraperFoundException("different extractors found for matches")
        extractor = extractors.pop()

        # early return when the nodes are already the roots, e.g. list
        # of plain values (reference ``training.py:115-123``)
        if all(m.node is r for m, r in zip(matches, roots)):
            return ValueScraper(PassThroughSelector(), extractor)

        selector = next(
            generate_unique_selectors_for_nodes(
                ctx, [m.node for m in matches], roots, complexity
            ),
            None,
        )
        if not selector:
            raise NoScraperFoundException(f"no selector found {matches=}")
        return ValueScraper(selector, extractor)

    if found_type is DictMatch:
        # union of keys; missing keys fail below, which is intended
        # (reference ``training.py:136-163``)
        keys = sorted({k for m in matches for k in m.match_by_key})
        scraper_per_key = {}
        for k in keys:
            matches_per_key = [m.match_by_key[k] for m in matches]
            try:
                scraper_per_key[k] = train_scraper_for_matches(
                    ctx, matches_per_key, roots, complexity
                )
            except NoScraperFoundException as e:
                raise NoScraperFoundException(f"training DictScraper failed ({k=})") from e
        return DictScraper(scraper_per_key)

    if found_type is ListMatch:
        # find one selector that uniquely matches every item root across
        # all samples jointly, then recurse with the item roots as the
        # new roots (reference ``training.py:164-207``)
        list_item_match_and_roots = [
            (im, r) for m, r in zip(matches, roots) for im in m.matches
        ]
        item_nodes = [im.root for im, _ in list_item_match_and_roots]
        item_outer_roots = [r for _, r in list_item_match_and_roots]

        selector = next(
            generate_unique_selectors_for_nodes(
                ctx, item_nodes, item_outer_roots, complexity
            ),
            None,
        )
        if not selector:
            raise NoScraperFoundException("no selector matches list items")

        item_matches = [im for im, _ in list_item_match_and_roots]
        item_roots = [im.root for im, _ in list_item_match_and_roots]
        item_scraper = train_scraper_for_matches(
            ctx, item_matches, item_roots, complexity
        )
        return ListScraper(selector, item_scraper)

    raise RuntimeError(f"type not matched: {found_type}")
