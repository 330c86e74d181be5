"""Selector learning + training tests.

Golden expectations are the reference suite's hard-coded literals
(/root/reference/tests/test_selectors.py, test_samples.py,
test_scrapers.py, test_training.py) asserted against our engine.
"""
import random
from itertools import islice, permutations

import pytest

from mlscraper_ray.htmlcore.dom import Element, parse_html
from mlscraper_ray.learn import selectors
from mlscraper_ray.learn.matches import DictMatch, ListMatch
from mlscraper_ray.learn.samples import (
    ItemStructureException,
    Sample,
    TrainingSet,
    make_training_set,
)
from mlscraper_ray.learn.selectors import (
    SelectorContext,
    _nodes_per_root,
    generate_selectors_for_nodes,
    generate_unique_selectors_for_nodes,
)
from mlscraper_ray.learn.training import NoScraperFoundException, train_scraper
from mlscraper_ray.scrape.model import (
    AttributeValueExtractor,
    CssRuleSelector,
    DictScraper,
    ListScraper,
    PassThroughSelector,
    TextValueExtractor,
    ValueScraper,
    scraper_from_plan,
)
from mlscraper_ray.sources.corpusgen import CorpusSpec, expected_plan, render_page


def unique_rules(nodes, roots=None, complexity=100):
    gen = generate_unique_selectors_for_nodes(SelectorContext(), nodes, roots, complexity)
    return [s.css_rule for s in gen]


class TestUniqueSelectors:
    def test_class_selector_preferred_over_ambiguous_tag(self):
        # reference test_selectors.py:18-33
        p1 = parse_html('<html><body><p class="test">test</p><p>bla</p></body></html>')
        p2 = parse_html('<html><body><div></div><p class="test">hallo</p></body></html>')
        nodes = [p.select("p.test")[0] for p in (p1, p2)]
        rules = unique_rules(nodes)
        assert "p" not in rules, "p matches but is not unique on page 1"
        assert "div" not in rules, "div is not common"
        assert "body > p.test" not in rules, "body prefix adds nothing"
        assert ".test" in rules
        assert "p.test" in rules

    def test_nth_child_generated(self):
        # reference test_selectors.py:35-43
        page = parse_html(
            b"<html><body><ul><li>target</li><li>noise</li></ul>"
            b"<ul><li>target</li><li>noise</li></ul></body></html>"
        )
        first_lis = [ul.select("li")[0] for ul in page.select("ul")]
        assert "li:nth-child(1)" in unique_rules(first_lis)

    def test_id_selector(self):
        # reference test_selectors.py:45-55
        page = parse_html(
            b'<html><body><div id="target">test</div><div>irrelevant</div></body></html>'
        )
        assert "#target" in unique_rules([page.select("#target")[0]])

    def test_id_path_pinpoints_parent(self):
        # reference test_selectors.py:57-62
        page = parse_html(
            b'<html><body><div id="target"><p>test</p></div><div><p></p></div>'
        )
        node = page.select("#target")[0].select("p")[0]
        assert "#target p" in unique_rules([node])

    def test_itemprop_attribute_selectors(self):
        # reference test_selectors.py:64-74
        page = parse_html(
            b'<html><body><div itemprop="user">lorey</div>'
            b'<div itemprop="user">jonashaag</div></body></html>'
        )
        rules = unique_rules(page.select("div"))
        assert "div[itemprop]" in rules
        assert 'div[itemprop="user"]' in rules

    def test_generation_is_deterministic(self):
        page = parse_html(
            b'<html><body><div class="a b c" itemprop="user">x</div>'
            b'<div class="a c">y</div></body></html>'
        )
        runs = [unique_rules([page.select("div")[0]]) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]


class TestSamples:
    def test_training_set_accepts_uniform_dicts(self):
        pages = [parse_html(""), parse_html("")]
        make_training_set(pages, [{"a": "1", "b": "2"}, {"a": "3", "b": "4"}])

    def test_training_set_rejects_mixed_shapes(self):
        pages = [parse_html(""), parse_html("")]
        with pytest.raises(ItemStructureException):
            make_training_set(pages, [{"a": "1", "b": "2"}, {"a": "3", "b": []}])

    def test_dict_matches_two_footer_variants(self):
        # reference test_samples.py:24-33: year appears twice -> 2 combos
        page = parse_html(
            "<html><body><h1>test</h1><p>2010</p>"
            "<div class='footer'>2010</div></body></html>"
        )
        matches = Sample(page, {"h": "test", "year": "2010"}).get_matches()
        assert len(matches) == 2
        assert all(isinstance(m, DictMatch) for m in matches)

    def test_list_matches_are_list_matches(self):
        # reference test_samples.py:35-45
        lis = "".join(f"<li>{i}</li>" for i in [1, 2, 2, 4])
        page = parse_html(f"<html><body><ul>{lis}</ul></body></html>")
        matches = Sample(page, ["1", "2", "2", "4"]).get_matches()
        assert matches
        assert all(isinstance(m, ListMatch) for m in matches)

    def test_list_of_dicts_single_disjoint_combination(self):
        # reference test_samples.py:47-69
        page = parse_html(
            "<html><body>"
            '<div><p class="title">Herr</p><p class="name">Lorey</p></div>'
            '<div><p class="title">Frau</p><p class="name">Müller</p></div>'
            "</body></html>"
        )
        matches = Sample(
            page,
            [{"title": "Herr", "name": "Lorey"}, {"title": "Frau", "name": "Müller"}],
        ).get_matches()
        assert len(matches) == 1
        match = matches[0]
        assert isinstance(match, ListMatch)
        assert len(match.matches) == 2
        assert all(isinstance(m, DictMatch) for m in match.matches)


class TestScraperApply:
    def test_dict_scraper(self):
        # reference test_scrapers.py:36-51
        item = {"h": "no 1", "t": "the first one"}
        page = parse_html(
            f"<html><body><div><h1>{item['h']}</h1><p>{item['t']}</p></div></body></html>"
        )
        ds = DictScraper(
            {
                "h": ValueScraper(CssRuleSelector("h1"), TextValueExtractor()),
                "t": ValueScraper(CssRuleSelector("p"), TextValueExtractor()),
            }
        )
        assert ds.get(page) == item

    def test_value_scraper_across_structures(self):
        # reference test_scrapers.py:54-64 (str and bytes input)
        p1 = parse_html('<html><body><p class="test">test</p><p>bla</p></body></html>')
        p2 = parse_html(b'<html><body><div></div><p class="test">hallo</p></body></html>')
        vs = ValueScraper(CssRuleSelector(".test"), TextValueExtractor())
        assert vs.get(p1) == "test"
        assert vs.get(p2) == "hallo"

    def test_list_of_values_scraper(self):
        # reference test_scrapers.py:67-75
        page = parse_html(b"<html><body><p>a</p><i>noise</i><p>b</p><p>c</p></body></html>")
        scraper = ListScraper(
            CssRuleSelector("p"),
            ValueScraper(PassThroughSelector(), TextValueExtractor()),
        )
        assert scraper.get(page) == ["a", "b", "c"]

    def test_plan_roundtrip(self):
        plan = {
            "kind": "list",
            "selector": {"kind": "css", "rule": ".answer"},
            "item": {
                "kind": "dict",
                "keys": {
                    "user": {
                        "kind": "value",
                        "selector": {"kind": "css", "rule": ".user-details a"},
                        "extractor": {"kind": "attr", "attr": "href"},
                    },
                    "upvotes": {
                        "kind": "value",
                        "selector": {"kind": "css", "rule": ".js-vote-count"},
                        "extractor": {"kind": "text"},
                    },
                },
            },
        }
        assert scraper_from_plan(plan).to_plan() == plan


class TestTraining:
    def test_simple_list(self):
        # reference test_training.py:12-31
        page = parse_html(b"<html><body><p>a</p><i>noise</i><p>b</p><p>c</p></body></html>")
        ts = TrainingSet()
        ts.add_sample(Sample(page, ["a", "b", "c"]))
        scraper = train_scraper(ts)
        assert isinstance(scraper, ListScraper)
        assert isinstance(scraper.selector, CssRuleSelector)
        assert scraper.selector.css_rule == "p"
        assert isinstance(scraper.scraper, ValueScraper)
        assert isinstance(scraper.scraper.selector, PassThroughSelector)
        assert isinstance(scraper.scraper.extractor, TextValueExtractor)

    def test_list_of_lists(self):
        # reference test_training.py:34-60 (note the reference page ends
        # with a malformed `</html` — semantics must survive that)
        page = parse_html(
            b"<html>\n<body>\n<div><p>a</p><p>b</p></div>\n"
            b"<div><p>c</p><p>d</p></div>\n</body>\n</html"
        )
        ts = TrainingSet()
        ts.add_sample(Sample(page, [["a", "b"], ["c", "d"]]))
        scraper = train_scraper(ts)
        assert scraper.selector.css_rule == "div"
        inner = scraper.scraper
        assert isinstance(inner, ListScraper)
        assert inner.selector.css_rule == "p"
        assert isinstance(inner.scraper.selector, PassThroughSelector)

    def test_multipage_generalizes_to_unseen_page(self):
        # reference test_training.py:63-81
        ts = TrainingSet()
        for items in ["ab", "cd"]:
            html = (
                b'<html><body><div class="target"><ul><li>%s</li><li>%s</li></ul>'
                b"</div></body></html>" % (items[0].encode(), items[1].encode())
            )
            ts.add_sample(Sample(parse_html(html), [items[0], items[1]]))
        scraper = train_scraper(ts)
        assert scraper.selector.css_rule == "li"
        unseen = parse_html(b"<html><body><ul><li>first</li><li>second</li></body></html>")
        assert scraper.get(unseen) == ["first", "second"]

    def test_dict_training_roundtrip(self):
        page = parse_html(
            b'<html><body><h1 class="t">Title</h1><span class="y">1999</span>'
            b"<p>noise 1999 here not exact</p></body></html>"
        )
        ts = TrainingSet()
        ts.add_sample(Sample(page, {"h": "Title", "year": "1999"}))
        scraper = train_scraper(ts)
        assert scraper.get(page) == {"h": "Title", "year": "1999"}

    def test_no_scraper_raises(self):
        p1 = parse_html(b"<html><body><p>a</p><span>b</span></body></html>")
        p2 = parse_html(b"<html><body><p>b</p><span>a</span></body></html>")
        ts = TrainingSet()
        ts.add_sample(Sample(p1, "a"))
        ts.add_sample(Sample(p2, "a"))
        # "a" is in <p> on page1 but <span> on page2; no common unique rule
        with pytest.raises(NoScraperFoundException):
            train_scraper(ts, complexity=1)

    def test_attribute_value_training(self):
        # sample value that only exists as an attribute -> attr extractor
        p = parse_html(
            b'<html><body><a class="u" href="/users/1/karl">profile</a>'
            b'<a href="/other">x</a></body></html>'
        )
        ts = TrainingSet()
        ts.add_sample(Sample(p, "/users/1/karl"))
        scraper = train_scraper(ts)
        assert isinstance(scraper.extractor, AttributeValueExtractor)
        assert scraper.extractor.attr == "href"
        assert scraper.get(p) == "/users/1/karl"


# -- probed intersection: the other nodes are tested, not built ---------

_CRAFTED_PAGE = (
    '<html><body><div id="main" class="box wide">'
    '<ul class="list a"><li class="item odd" data-k="a b">one</li>'
    '<li class="item even" data-k="x > y">two</li>'
    '<li class="item odd" data-k="q:nth-child(1)">three</li>'
    '<li data-k="a b"><span title="x > y">four</span></li></ul>'
    '<ul><li>five</li><li class="item">six</li></ul>'
    '<p title="q:nth-child(1)" class="item odd">seven <span>eight</span></p>'
    '</div><div class="box"><p data-k="a b" class="item">nine</p></div>'
    "</body></html>"
)


def _outcome(fn, *args):
    """``("ok", result)`` or ``(exception type name, None)``."""
    try:
        return "ok", fn(*args)
    except Exception as e:
        return type(e).__name__, None


def _len_lex(s):
    return (len(s), s)


def _intersected_rules(nodes, complexity):
    """The formula the probing replaced: every node's full path set,
    intersected, in ``(len, str)`` order."""
    ctx = SelectorContext()
    common = frozenset.intersection(
        *(ctx.get_path_selectors(n, complexity) for n in nodes)
    )
    return sorted(common, key=_len_lex)


def _intersected_unique_rules(nodes, roots, complexity, k):
    ctx = SelectorContext()
    distinct = list({id(r): r for r in roots}.values())
    groups = [(r, tuple(n for n in nodes if n.has_ancestor(r))) for r in distinct]
    rules = (
        rule
        for rule in _intersected_rules(nodes, complexity)
        if all(ctx.uniquely_selects(rule, r, ns) for r, ns in groups)
    )
    return list(islice(rules, k))


def _probed_rules(nodes, complexity):
    gen = generate_selectors_for_nodes(
        SelectorContext(), nodes, [n.doc for n in nodes], complexity
    )
    return [s.css_rule for s in gen]


def _probe_docs():
    spec = CorpusSpec(seed=7, entries_per_page=3, filler_words=5)
    docs = [parse_html(render_page(spec, h, i)[0]) for h, i in ((0, 1), (1, 2), (3, 4))]
    return docs + [parse_html(_CRAFTED_PAGE), parse_html(_CRAFTED_PAGE)]


def _random_node_sets(seed, count):
    """Seeded node sets: 1-5 nodes from one or two documents, all of
    one tag or of mixed tags, each with a root that is its document or
    one of its ancestors."""
    rng = random.Random(seed)
    docs = _probe_docs()
    cases = []
    while len(cases) < count:
        picked = rng.sample(docs, rng.choice((1, 2)))
        pool = [e for d in picked for e in d._preorder]
        if rng.random() < 0.5:
            tag = rng.choice(pool).tag
            pool = [e for e in pool if e.tag == tag]
        nodes = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        roots = [
            rng.choice([n.doc] + n.ancestors[:-1]) if rng.random() < 0.3 else n.doc
            for n in nodes
        ]
        cases.append((nodes, roots))
    return cases


class TestProbedIntersection:
    """``generate_selectors_for_nodes`` builds the first node's path set
    and probes the others; the sequence must equal the intersection of
    every node's set."""

    @pytest.mark.parametrize("complexity", [1, 2, 3, 100])
    def test_sequence_equals_intersection(self, complexity):
        for nodes, roots in _random_node_sets(f"probe:{complexity}", 60):
            assert _probed_rules(nodes, complexity) == _intersected_rules(
                nodes, complexity
            ), [n.tag for n in nodes]
            probed = generate_unique_selectors_for_nodes(
                SelectorContext(), nodes, roots, complexity
            )
            assert [s.css_rule for s in islice(probed, 5)] == _intersected_unique_rules(
                nodes, roots, complexity, 5
            ), [n.tag for n in nodes]

    def test_crafted_values_survive_every_cut(self):
        # attribute values with spaces, " > " and ":nth-child(" must
        # not be mistaken for path steps
        doc = parse_html(_CRAFTED_PAGE)
        lis = doc.select("ul.list li")
        rules = _probed_rules(lis[:3], 3)
        assert rules == _intersected_rules(lis[:3], 3)
        assert "#main li.item" in rules
        twin = parse_html(_CRAFTED_PAGE)
        for attr_rule in ('li[data-k="x > y"]', 'p[title="q:nth-child(1)"]'):
            nodes = doc.select(attr_rule) + twin.select(attr_rule)
            rules = _probed_rules(nodes, 2)
            assert rules == _intersected_rules(nodes, 2)
            assert attr_rule in rules and f"{attr_rule}:nth-child(" in " ".join(rules)

    @pytest.mark.parametrize("complexity", [1, 2])
    def test_broken_selectors_raise_as_the_intersection_does(self, complexity):
        pages = [
            "<html><body><div><p t='v\"x'>a<b>c</b></p><i>z</i></div></body></html>",
            "<html><body><div><p:q>a<b>c</b></p:q><i>z</i></div></body></html>",
            "<html><body><div><p.x>a<b>c</b></p.x><i>z</i></div></body></html>",
        ]
        expected = ["SelectorSyntaxError", "SelectorSyntaxError", "RuntimeError"]
        pool = []
        for html, error in zip(pages, expected):
            broken, child, fine = parse_html(html)._preorder[3:6]
            assert _outcome(_probed_rules, [broken], complexity) == (error, None)
            child_error = error if complexity > 1 else "ok"
            assert _outcome(_probed_rules, [child], complexity)[0] == child_error
            pool += [broken, child, fine]
        for nodes in [[n] for n in pool] + [list(p) for p in permutations(pool, 2)]:
            assert _outcome(_probed_rules, nodes, complexity) == _outcome(
                _intersected_rules, nodes, complexity
            ), [n.tag for n in nodes]

    def test_nodes_per_root_equals_has_ancestor(self):
        # nested Element roots (the nodes' ancestor chains), roots in
        # other documents, Document roots, and now and then a Document
        # among the nodes, which keeps the has_ancestor test
        docs = _probe_docs()
        elements = [e for d in docs for e in d._preorder]
        rng = random.Random("roots")
        for _ in range(300):
            nodes = [
                rng.choice(docs) if rng.random() < 0.1 else rng.choice(elements)
                for _ in range(rng.randint(1, 8))
            ]
            pool = docs + rng.sample(elements, 3) + [a for n in nodes for a in n.ancestors]
            roots = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
            expected = [
                (r, tuple(n for n in nodes if n.has_ancestor(r)))
                for r in {id(r): r for r in roots}.values()
            ]
            assert _nodes_per_root(nodes, roots) == expected

    def test_one_learn_cycle_builds_only_the_first_nodes_sets(self, monkeypatch):
        from perfbench.inputs import learn_requests

        built, allowed, ranks = [], set(), []
        build = selectors.SelectorContext._generate_path_selectors
        rank = selectors._select_rank
        generate = selectors.generate_selectors_for_nodes

        def spy_build(ctx, node, max_length):
            built.append(node)
            return build(ctx, node, max_length)

        def spy_rank(*args):
            ranks.append(args)
            return rank(*args)

        def spy_generate(ctx, nodes, roots, complexity):
            allowed.update([nodes[0], *nodes[0].ancestors])
            return generate(ctx, nodes, roots, complexity)

        monkeypatch.setattr(selectors.SelectorContext, "_generate_path_selectors", spy_build)
        monkeypatch.setattr(selectors, "_select_rank", spy_rank)
        monkeypatch.setattr(selectors, "generate_selectors_for_nodes", spy_generate)
        for request in learn_requests(1, False):
            ts = TrainingSet()
            for html, value in request["pages"]:
                ts.add_sample(Sample(parse_html(html), value))
            assert train_scraper(ts, complexity=2).to_plan() == expected_plan()
        assert built and all(n in allowed for n in built)
        assert len(ranks) < 200


# html.parser reads the third attribute's name as "a]:nth-child(2)[b",
# so the node's selectors include div[a]:nth-child(2)[b], which reads
# back as one compound with :nth-child(2): it selects the second
# sibling only
_NTH_NAME_PAGE = (
    "<html><body><div a b a]:nth-child(2)[b></div>"
    "<div a b a]:nth-child(2)[b></div></body></html>"
)


class TestRegularSelectorSignatures:
    """``SelectorContext._regular_selectors`` builds the selectors once
    per ``(tag, attributes, has a rank parent)`` signature and shares
    the self-check only where the check reads nothing but the tag and
    the attributes."""

    @staticmethod
    def _twins():
        first, second = parse_html(_NTH_NAME_PAGE).select("div")
        assert first.attrs == second.attrs
        assert (first.child_index, second.child_index) == (1, 2)
        return first, second

    def test_nth_child_in_an_attribute_name_is_checked_per_node(self):
        first, second = self._twins()
        for order in ((first, second), (second, first)):
            ctx = SelectorContext()
            for node in order:
                if node is first:
                    with pytest.raises(RuntimeError):
                        ctx._regular_selectors(node)
                else:
                    assert "div[a]:nth-child(2)[b]" in ctx._regular_selectors(node)
            with pytest.raises(RuntimeError):  # a failed check caches nothing
                ctx._regular_selectors(first)

    def test_detached_element_is_not_checked(self):
        first, _ = self._twins()
        detached = Element("div", dict(first.attrs), None, 0)
        ctx = SelectorContext()
        with pytest.raises(RuntimeError):
            ctx._regular_selectors(first)
        assert ctx._regular_selectors(detached) == {
            "div", "div[a]", "div[b]", "div[a]:nth-child(2)[b]"
        }
        with pytest.raises(RuntimeError):
            ctx._regular_selectors(first)

    def test_plain_signature_is_checked_once(self, monkeypatch):
        doc = parse_html(
            "<html><body><ul>" + '<li class="e odd" data-k="v">x</li>' * 6
            + "</ul></body></html>"
        )
        compiled = []
        compile_selector = selectors.compile_selector
        monkeypatch.setattr(
            selectors, "compile_selector", lambda s: compiled.append(s) or compile_selector(s)
        )
        ctx = SelectorContext()
        sets = {ctx._regular_selectors(li) for li in doc.select("li")}
        assert len(sets) == 1 and len(compiled) == len(next(iter(sets)))

    def test_shared_sets_equal_per_node_sets(self):
        docs = _probe_docs() + [parse_html(_NTH_NAME_PAGE)]
        shared = SelectorContext()
        for node in [e for d in docs for e in d._preorder] + docs:
            assert _outcome(shared._regular_selectors, node) == _outcome(
                SelectorContext()._regular_selectors, node
            ), node.tag

