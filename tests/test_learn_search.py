"""The learner's candidate search must stay exact while it reuses
per-page and per-run structure.

Requests are built from ``corpusgen`` pages in the five shapes the
learn benchmark uses: 2, 4 or 8 pages of 6 entries and 40 filler
words, and 2 or 4 pages of 40 entries and 600 filler words.
"""
import gc
import json
import os
import random
import statistics
import subprocess
import sys
from collections import Counter
from itertools import combinations, product

import pytest

from mlscraper_ray.htmlcore.dom import parse_html
from mlscraper_ray.learn.matches import (
    DictMatch,
    ListMatch,
    NodeSimilarity,
    ValueMatch,
    get_node_similarity,
    mean,
)
from mlscraper_ray.learn.samples import Sample, TrainingSet
from mlscraper_ray.learn.training import (
    count_combinations,
    get_match_combination_priority,
    prioritized_combinations,
    train_scraper,
)
from mlscraper_ray.scrape.model import TextValueExtractor
from mlscraper_ray.sources.corpusgen import (
    CorpusSpec,
    expected_plan,
    page_entries,
    render_page,
)

SHAPES = [(2, 6, 40), (4, 6, 40), (8, 6, 40), (2, 40, 600), (4, 40, 600)]
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _request(n_pages: int, entries: int, filler: int, seed: int = 7) -> list:
    """``n_pages`` (html, entries) pairs, each with the full entry count."""
    spec = CorpusSpec(
        n_hosts=12,
        pages_per_host=60,
        seed=seed,
        entries_per_page=entries,
        filler_words=filler,
    )
    full = [
        (h, i)
        for h in range(spec.n_hosts)
        for i in range(spec.n_pages(h))
        if len(page_entries(spec, h, i)) == entries
    ]
    picks = random.Random(seed).sample(full, n_pages)
    return [(render_page(spec, h, i)[0], page_entries(spec, h, i)) for h, i in picks]


def _training_set(pages: list) -> TrainingSet:
    ts = TrainingSet()
    for html, value in pages:
        ts.add_sample(Sample(parse_html(html), value))
    return ts


# -- priorities: the statistics.mean formula of the reference ------------


def _reference_similarity(m1, m2):
    if isinstance(m1, ValueMatch):
        if m1.extractor != m2.extractor:
            return 0
        return get_node_similarity(m1.node, m2.node)
    if isinstance(m1, DictMatch):
        keys = set(m1.match_by_key).intersection(m2.match_by_key)
        return statistics.mean(
            _reference_similarity(m1.match_by_key[k], m2.match_by_key[k]) for k in keys
        )
    return statistics.mean(
        _reference_similarity(a, b) for a, b in product(m1.matches, m2.matches)
    )


def _reference_priority(combination):
    if len(combination) == 1:
        return 1
    return statistics.mean(
        _reference_similarity(a, b) for a, b in combinations(combination, 2)
    )


def _describe(match):
    """A comparable stand-in for a match: its nodes (compared by
    identity) and extractors, in the match's own structure."""
    if isinstance(match, ValueMatch):
        return (match.node, match.extractor)
    if isinstance(match, DictMatch):
        return tuple((k, _describe(m)) for k, m in sorted(match.match_by_key.items()))
    assert isinstance(match, ListMatch)
    return tuple(_describe(m) for m in match.matches)


def _assert_exact_priorities(ts: TrainingSet) -> None:
    """Same order as sorting by the reference formula, and every
    priority has the formula's ``repr``."""
    ordered = prioritized_combinations(ts)
    sample_matches = [
        sorted(s.get_matches(), key=lambda m: m.span)[:100] for s in ts.item.samples
    ]
    reference = sorted(product(*sample_matches), key=_reference_priority, reverse=True)
    assert [tuple(map(_describe, c)) for c in ordered] == [
        tuple(map(_describe, c)) for c in reference
    ]
    similarity = NodeSimilarity()
    reference_priorities = [repr(_reference_priority(c)) for c in reference]
    assert [
        repr(get_match_combination_priority(c, similarity)) for c in reference
    ] == reference_priorities


def _leaf_values(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, list):
        for v in value:
            yield from _leaf_values(v)
    else:
        for v in value.values():
            yield from _leaf_values(v)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_priorities_order_and_plan_are_exact(shape):
    ts = _training_set(_request(*shape))
    _assert_exact_priorities(ts)

    # one combination per request here (entry values are unique on a
    # page), so also pin the similarities it averages, and those of
    # every pair of entries and of value matches across fields
    similarity = NodeSimilarity()
    page_items = [s.get_matches()[0].matches for s in ts.item.samples[:2]]
    for a, b in product(*page_items):
        assert repr(a.get_similarity_to(b, similarity)) == repr(_reference_similarity(a, b))
    value_matches = [
        m
        for s in ts.item.samples[:2]
        for v in sorted(set(_leaf_values(s.value)))
        for m in Sample(s.page, v).get_matches()
    ][:300]
    for a, b in product(value_matches, repeat=2):
        assert repr(a.get_similarity_to(b, similarity)) == repr(_reference_similarity(a, b))

    assert train_scraper(ts, complexity=2).to_plan() == expected_plan()


@pytest.fixture
def similarity_calls(monkeypatch):
    """Every ``get_similarity_to`` call, as (self, other) pairs."""
    calls = []
    for cls in (ValueMatch, DictMatch, ListMatch):
        original = cls.get_similarity_to

        def spy(self, match, similarity, original=original):
            calls.append((self, match))
            return original(self, match, similarity)

        monkeypatch.setattr(cls, "get_similarity_to", spy)
    return calls


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_a_lone_combination_is_not_scored(shape, similarity_calls):
    ts = _training_set(_request(*shape))
    assert len(prioritized_combinations(ts)) == count_combinations(ts) == 1
    assert train_scraper(ts, complexity=2).to_plan() == expected_plan()
    assert similarity_calls == []


def test_a_lone_combination_without_common_keys_fails_in_training():
    """The one combination of these dict samples is never scored, so
    the training step's ``KeyError`` for the key the first sample lacks
    surfaces, not the ``StatisticsError`` of its priority (the mean over
    no common key). The reference raises that ``KeyError`` whenever
    such samples share some keys but not all."""
    pages = [
        ("<html><body><p>a</p><i>z</i></body></html>", {"x": "a"}),
        ("<html><body><p>b</p><i>z</i></body></html>", {"y": "b"}),
    ]
    ts = _training_set(pages)
    assert count_combinations(ts) == 1
    with pytest.raises(KeyError):
        train_scraper(ts, complexity=2)


AMBIGUOUS_PAGE = (
    '<html><body><div class="a b"><p class="t">{v}</p><b>{w}</b></div>'
    '<section class="a"><span class="t c">{v}</span><i class="t">{w}</i></section>'
    '<p title="{v}">z</p><ul class="b"><li class="c">{w}</li></ul></body></html>'
)
AMBIGUOUS_VALUES = {
    "value": lambda v, w: v,
    "dict": lambda v, w: {"v": v, "w": w},
    "list": lambda v, w: [v, w],
}


def _ambiguous_training_set(kind: str, n_pages: int = 3) -> TrainingSet:
    return _training_set(
        [
            (AMBIGUOUS_PAGE.format(v=f"v{i}", w=f"w{i}"), AMBIGUOUS_VALUES[kind](f"v{i}", f"w{i}"))
            for i in range(1, n_pages + 1)
        ]
    )


def _assert_each_pair_scored_once(combos: list, calls: list) -> None:
    """The top-level similarity calls are exactly the distinct pairs of
    matches of two different samples, each once, in sample order."""
    per_sample = [list(dict.fromkeys(ms)) for ms in zip(*combos)]
    top = {m for ms in per_sample for m in ms}
    scored = Counter((a, b) for a, b in calls if a in top)
    assert set(scored.values()) == {1}
    assert set(scored) == {
        (a, b) for s1, s2 in combinations(per_sample, 2) for a in s1 for b in s2
    }


@pytest.mark.parametrize("kind", AMBIGUOUS_VALUES)
def test_priorities_are_exact_on_ambiguous_samples(kind, similarity_calls):
    """Values that occur several times give many combinations with
    distinct priorities and ties; each pair of matches is scored once."""
    ts = _ambiguous_training_set(kind)
    combos = prioritized_combinations(ts)
    assert len(combos) == count_combinations(ts)
    _assert_each_pair_scored_once(combos, similarity_calls)
    similarity = NodeSimilarity()
    priorities = {repr(get_match_combination_priority(c, similarity)) for c in combos}
    assert len(combos) > 8 and len(priorities) > 2
    _assert_exact_priorities(ts)


def test_one_sample_keeps_its_match_order_unscored(similarity_calls):
    """Every priority of a one-sample request is 1, so the order is the
    span order of its matches and no pair is scored."""
    ts = _ambiguous_training_set("value", n_pages=1)
    combos = prioritized_combinations(ts)
    assert len(combos) == count_combinations(ts) > 1
    assert similarity_calls == []
    _assert_exact_priorities(ts)


def test_priorities_are_exact_on_a_large_ambiguous_request(similarity_calls):
    ts = _ambiguous_training_set("dict", n_pages=4)
    combos = prioritized_combinations(ts)
    assert len(combos) == count_combinations(ts) >= 10**4
    _assert_each_pair_scored_once(combos, similarity_calls)
    _assert_exact_priorities(ts)


def test_dict_match_pair_without_common_key_raises():
    doc = parse_html("<html><body><p>a</p><p>b</p></body></html>")
    p1, p2 = doc.select("p")
    m1 = DictMatch({"a": ValueMatch(p1, TextValueExtractor())})
    m2 = DictMatch({"b": ValueMatch(p2, TextValueExtractor())})
    with pytest.raises(statistics.StatisticsError):
        m1.get_similarity_to(m2, NodeSimilarity())
    with pytest.raises(statistics.StatisticsError):
        get_match_combination_priority((m1, m2), NodeSimilarity())


@pytest.mark.parametrize(
    "values",
    [
        [1, 1],
        [0, 0, 0],
        [0.25, 0.25, 0.25],
        [0.1] * 7,
        [-0.0, -0.0],
        [0.0, -0.0],
        [1, 1.0],
        [True, True],
        [0.1, 0.2, 0.3],
        [1, 2],
        [2],
        [float("inf"), float("inf")],
    ],
)
def test_mean_equals_statistics_mean(values):
    got = mean(iter(values))
    want = statistics.mean(values)
    assert (repr(got), type(got)) == (repr(want), type(want))


def test_mean_of_nothing_raises():
    with pytest.raises(statistics.StatisticsError):
        mean(iter([]))


# -- cache lifetime --------------------------------------------------------


def _summary(pages: list) -> dict:
    """Plan and prioritized order of one training run, in terms that
    compare across processes (page index and document order)."""
    ts = _training_set(pages)
    page_index = {id(s.page): k for k, s in enumerate(ts.item.samples)}

    def node_key(node):
        return [page_index[id(node.doc)], node.order]

    def describe(match):
        if isinstance(match, ValueMatch):
            return [node_key(match.node), repr(match.extractor.__dict__)]
        if isinstance(match, DictMatch):
            return {k: describe(m) for k, m in sorted(match.match_by_key.items())}
        return [describe(m) for m in match.matches]

    order = [[describe(m) for m in c] for c in prioritized_combinations(ts)]
    return {"plan": train_scraper(ts, complexity=2).to_plan(), "order": order}


def test_training_after_a_freed_run_equals_a_fresh_process():
    first = _training_set(_request(2, 40, 600, seed=11))
    train_scraper(first, complexity=2)
    del first
    gc.collect()

    pages = _request(2, 6, 40, seed=12)
    here = _summary(pages)
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {REPO!r})\n"
        "from tests.test_learn_search import _request, _summary\n"
        "print(json.dumps(_summary(_request(2, 6, 40, seed=12))))\n"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, cwd=REPO
    )
    assert json.loads(json.dumps(here)) == json.loads(fresh.stdout.splitlines()[-1])
    assert here["plan"] == expected_plan()


def _module_state_sizes() -> dict:
    """Size of every dict, list, set and ``lru_cache`` held at module
    level (or as a class attribute) in the package."""
    sizes = {}

    def record(key, obj):
        if isinstance(obj, (dict, list, set)):
            sizes[key] = len(obj)
        elif hasattr(obj, "cache_info"):
            sizes[key] = obj.cache_info().currsize

    for name, mod in list(sys.modules.items()):
        if not name.startswith("mlscraper_ray"):
            continue
        for attr, obj in vars(mod).items():
            if attr.startswith("__"):
                continue
            record((name, attr), obj)
            if isinstance(obj, type) and obj.__module__ == name:
                for cattr, cobj in vars(obj).items():
                    if not cattr.startswith("__"):
                        record((name, attr, cattr), cobj)
    return sizes


def test_no_module_level_cache_grows_across_runs():
    requests = [_request(2, 6, 40, seed=s) for s in (21, 22)]
    for pages in requests:  # warm-up: imports, selector compile cache
        train_scraper(_training_set(pages), complexity=2)
    before = _module_state_sizes()
    for k in range(20):
        train_scraper(_training_set(requests[k % 2]), complexity=2)
    after = _module_state_sizes()
    assert {k: after.get(k) for k in before} == before


def test_parallel_window_task_builds_its_own_find_index():
    """The speculative-parallel trainer ships (html, value json) pairs;
    each window task parses its pages and builds their find index
    lazily, so no index is ever pickled."""
    from mlscraper_ray.learn import parallel

    samples = [(html.encode(), json.dumps(value)) for html, value in _request(2, 6, 40)]
    ts = parallel._build_training_set(samples)
    pages = [s.page for s in ts.item.samples]
    assert all(p._find_index is None for p in pages)
    parallel.prioritized_combinations(ts)
    assert all(p._find_index is not None for p in pages)

    # the window task's body, run in this process
    index, plan = parallel._try_window._function(samples, 2, 0, 4)
    assert index == 0
    assert plan == expected_plan()
