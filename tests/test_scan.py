"""The one-pass page scanner (``scrape/scan.py``) against the tree path.

``PageScan.run`` must give exactly the tree's ``value_json`` string and
links list (``Scraper.get`` + ``extract_links`` on the ``html.parser``
tree) on every page inside its subset, and raise ``ScanFallback`` on
every page outside it. The tree ``parse_html`` builds from the same tag
grammar must equal the ``html.parser`` tree node for node on those
pages, and fall back to it on the others. Differential checks run on
generated ``corpusgen`` pages, on random adversarial HTML (hypothesis)
and on hand-written cases.
"""
import glob
import json
from urllib.parse import urljoin, urlparse

import hypothesis.strategies as st
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import assume, given, settings

from mlscraper_ray.htmlcore import dom
from mlscraper_ray.htmlcore.dom import OutsideGrammar, parse_html, parse_with_html_parser
from mlscraper_ray.scrape import model
from mlscraper_ray.scrape.scan import ScanFallback, compile_scan, http_link
from mlscraper_ray.sources.corpusgen import CorpusSpec, expected_plan, generate_corpus, render_page
from mlscraper_ray.stages.crawl_stages import extract_links

BASE = "http://h.example/p/3"


def _css(rule):
    return {"kind": "css", "rule": rule}


def _value(selector, extractor):
    return {"kind": "value", "selector": selector, "extractor": extractor}


TEXT = {"kind": "text"}
PASS = {"kind": "pass"}


def _attr(name):
    return {"kind": "attr", "attr": name}


PLANS = {
    "corpus": expected_plan(),
    "list_dict_value": {
        "kind": "list",
        "selector": _css("div.entry"),
        "item": {
            "kind": "dict",
            "keys": {
                "second": _value(_css("span:nth-child(2)"), TEXT),
                "child_a": _value(_css("div > a"), _attr("href")),
                "b_title": _value(_css("b"), _attr("title")),
            },
        },
    },
    "list_rel": {"kind": "list", "selector": _css(".entry"), "item": _value(_css("div a"), _attr("rel"))},
    "list_deep": {"kind": "list", "selector": _css(".entry"), "item": _value(_css("section .votes"), TEXT)},
    "dict_value": {
        "kind": "dict",
        "keys": {
            "p": _value(_css("p"), TEXT),
            "cls": _value(_css(".x > span"), _attr("class")),
            "has_title": _value(_css("span[title]"), _attr("title")),
        },
    },
    "main": _value(_css("#main a"), _attr("href")),
    "first_li": _value(_css("li:nth-child(1)"), TEXT),
    "rel": _value(_css("span[rel]"), _attr("rel")),
    "nth_after_void": _value(_css("span:nth-child(4)"), TEXT),
    "titled": _value(_css('span[title="t&1"]'), TEXT),
    "value_pass": _value(PASS, TEXT),
    "dict_pass": {"kind": "dict", "keys": {"text": _value(PASS, TEXT), "cls": _value(PASS, _attr("class"))}},
    "list_pass": {"kind": "list", "selector": _css(".entry"), "item": _value(PASS, TEXT)},
    "nested_lists": {
        "kind": "list",
        "selector": _css(".entry"),
        "item": {
            "kind": "dict",
            "keys": {
                "spans": {"kind": "list", "selector": _css("span"), "item": _value(PASS, _attr("class"))},
                "id": _value(PASS, _attr("id")),
                "votes": _value(_css(".votes"), TEXT),
            },
        },
    },
    "list_of_lists": {
        "kind": "list",
        "selector": _css("ul"),
        "item": {"kind": "list", "selector": _css("li"), "item": _value(_css("b"), TEXT)},
    },
    "missing_attr": _value(_css(".votes"), _attr("data-x")),
    # every hit of a rule: each element built from one repeated start
    # tag must match on its own position and parent
    "every_nth2": {"kind": "list", "selector": _css("span:nth-child(2)"), "item": _value(PASS, TEXT)},
    "every_li1": {"kind": "list", "selector": _css("li:nth-child(1)"), "item": _value(PASS, TEXT)},
    "every_child_a": {"kind": "list", "selector": _css("div > a"), "item": _value(PASS, _attr("href"))},
    "every_x_span": {"kind": "list", "selector": _css(".x > span"), "item": _value(PASS, TEXT)},
}


def _tree(plan, html, base=BASE):
    doc = parse_with_html_parser(html)
    return compile_scan(plan).tree_value(doc), extract_links(doc, base)


def _assert_same(plan, html, base=BASE):
    got = compile_scan(plan).run(html, base)
    assert got == _tree(plan, html, base), html


def _shape(doc):
    """Everything the tree holds, in preorder: per element its tag,
    attribute items in order, ``child_index``, ``order``, preorder span
    and children (a text node as its data and ``order``, an element as
    its ``order``); parent and document links are asserted on the way."""
    assert doc._preorder == list(doc._iter_elements_walk())
    out = [[root.order for root in doc.children]]
    for elem in doc._preorder:
        assert elem.doc is doc
        kids = []
        for child in elem.children:
            assert child.parent is elem
            kids.append(("text", child.data, child.order) if isinstance(child, dom.TextNode) else child.order)
        span = (elem._pre_start, elem._pre_end)
        out.append((elem.tag, list(elem.attrs.items()), elem.child_index, elem.order, span, kids))
    return out


def _assert_same_tree(html):
    """The grammar accepts ``html`` and builds the ``html.parser`` tree,
    from ``str`` and from ``bytes`` alike."""
    expected = _shape(parse_with_html_parser(html))
    assert _shape(dom._grammar_tree(html)) == expected, html
    assert _shape(parse_html(html.encode())) == expected, html
    assert _shape(parse_with_html_parser(html.encode())) == expected, html


# -- generated corpus pages ---------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 1000),
    h=st.integers(0, 5),
    i=st.integers(0, 12),
    entries=st.integers(1, 8),
    filler=st.integers(0, 30),
)
def test_corpus_pages_match_tree(seed, h, i, entries, filler):
    spec = CorpusSpec(n_hosts=6, pages_per_host=13, seed=seed, entries_per_page=entries, filler_words=filler)
    html, _ = render_page(spec, h, i)
    url = spec.page_url(h, i)
    for plan in PLANS.values():
        _assert_same(plan, html.encode(), url)
    _assert_same_tree(html)


# -- adversarial HTML inside the subset ---------------------------------

TAGS = ["div", "span", "p", "a", "ul", "li", "b", "section"]
VOIDS = ["img", "br", "hr", "input"]
CLASSES = ["entry", "votes", "when", "who", "x", "y"]
HREFS = [
    "http://h.example/a", "/rel/x", "rel2", "#frag", "http://h.example/a#f", "urn:u:1",
    "mailto:x@y.example", "HTTP://H.example/B", "http:foo", "https://h2.example/?q=1&amp;b=2",
    "//cdn.example/x", "http://h.example/a;p", "", "?q", "javascript:void(0)", "http:///x",
    "https://h.example", "../up",
]
TITLES = ["t&amp;1", "a&lt;b", "&#39;q&#39;", "plain", "x&nbsp;y", "&amp", "a&b"]
WORDS = ["lorem", "42", "&amp;", "&lt;b&gt;", "&#169;", "&amp", "a&b", "&notin;", " ", "\n  ", "x > y"]


def _case(draw, name):
    return name.upper() if draw(st.integers(0, 5)) == 0 else name


@st.composite
def attributes(draw, tag):
    out = []
    if draw(st.booleans()):
        cls = draw(st.lists(st.sampled_from(CLASSES), min_size=1, max_size=3))
        out.append(("class", draw(st.sampled_from([" ", "  ", "\n"])).join(cls)))
    if draw(st.integers(0, 4)) == 0:
        out.append(("id", draw(st.sampled_from(["main", "k"]))))
    if tag == "a" and draw(st.integers(0, 4)) > 0:
        out.append(("href", draw(st.sampled_from(HREFS))))
    if draw(st.integers(0, 3)) == 0:
        out.append(("title", draw(st.sampled_from(TITLES))))
    if draw(st.integers(0, 3)) == 0:
        out.append(("rel", "nofollow  me"))  # multi-valued on a only
    if draw(st.integers(0, 5)) == 0:
        out.append(("hidden", None))
    if out and draw(st.integers(0, 4)) == 0:
        out.append((out[0][0], "repeat"))  # the first one wins
    parts = []
    for name, value in out:
        name = _case(draw, name)
        if value is None:
            parts.append(f" {name}")
            continue
        quote = draw(st.sampled_from(['"', "'", ""]))
        if quote == "" and (not value or any(c in value for c in " \n\"'=<>`")):
            quote = '"'
        eq = draw(st.sampled_from(["=", " = "]))
        parts.append(f" {name}{eq}{quote}{value}{quote}")
    return "".join(parts)


@st.composite
def entry(draw, depth):
    """A corpus-like entry block, each part optional and maybe left open,
    with random elements mixed in."""
    parts = [
        f'<span class="votes"{draw(attributes("span"))}>{draw(st.sampled_from(WORDS))}</span>',
        f'<div class="who"><a href="{draw(st.sampled_from(HREFS))}">user</a></div>',
        f'<span class="when" title="{draw(st.sampled_from(TITLES))}">t</span>',
        '<p class="body"><b title="b">bold</b> text</p>',
    ]
    kept = [
        p if draw(st.integers(0, 5)) else p.rsplit("</", 1)[0]
        for p in parts
        if draw(st.integers(0, 6))
    ]
    for _ in range(draw(st.integers(0, 2))):
        kept.insert(draw(st.integers(0, len(kept))), draw(element(depth + 1)))
    cls = draw(st.sampled_from(["entry", "entry x", "x entry"]))
    return f'<div class="{cls}">{"".join(kept)}</div>'


@st.composite
def element(draw, depth=0):
    if depth < 4 and draw(st.integers(0, 3)) == 0:
        return draw(entry(depth))
    if draw(st.integers(0, 6)) == 0:
        tag = draw(st.sampled_from(VOIDS))
        return f"<{_case(draw, tag)}{draw(attributes(tag))}{draw(st.sampled_from(['', '/', ' /']))}>"
    tag = draw(st.sampled_from(TAGS))
    attrs = draw(attributes(tag))
    if draw(st.integers(0, 8)) == 0:
        return f"<{_case(draw, tag)}{attrs}/>"  # never pushed
    children = []
    for _ in range(draw(st.integers(0, 0 if depth >= 4 else 4))):
        kind = draw(st.integers(0, 9))
        if kind < 5:
            children.append(draw(element(depth + 1)))
        elif kind < 9:
            children.append(draw(st.sampled_from(WORDS)))
        else:
            children.append(f"</{draw(st.sampled_from(['span', 'li', 'p', 'b']))}>")  # maybe stray
    close = draw(st.sampled_from([f"</{_case(draw, tag)}>", f"</{tag} >", ""]))  # "" leaves it open
    return f"<{_case(draw, tag)}{attrs}>{''.join(children)}{close}"


@st.composite
def page(draw):
    body = "".join(draw(st.lists(element(), max_size=5)))
    head = draw(st.sampled_from(["", "<head><title>t &amp; u</title></head>"]))
    lead = draw(st.sampled_from(["", "\n ", "stray text "]))
    end = draw(st.sampled_from(["</body></html>", "</html>", "", "</body></html>\n  "]))
    return f"{lead}<{_case(draw, 'html')}>{head}<body>{body}{end}"


@settings(max_examples=300, deadline=None)
@given(page())
def test_adversarial_pages_match_tree(html):
    for plan in PLANS.values():
        _assert_same(plan, html)
    _assert_same_tree(html)


HAND_WRITTEN = [
    # unclosed tags: the second entry nests in the first
    '<html><body><div class="entry"><span class="votes">1<div class="entry">'
    '<span class="votes">2</span><a href="/u">u</a></div></body></html>',
    # stray end tags are ignored, a known one pops everything above it
    '<html><body></span><div class="entry"></li><span class="votes">3</span>'
    '<b><i>open</div><p>after</p></body></html>',
    # void elements and <x/> are never pushed; they still count as siblings
    '<html><body><div class="entry"><img class="votes" title="i"><br/>'
    '<span class="votes"/><span>second</span><span class="when" title="w">t</span></div></body></html>',
    # nested .entry items and nested list items
    '<html><body><ul><li><b>1</b><ul><li><b>2</b></li></ul></li><li><b>3</b></li></ul>'
    '<div class="entry" id="o"><span class="votes">o</span><div class="entry" id="i">'
    '<span class="votes">i</span></div></div></body></html>',
    # multi-valued class, repeated attributes, upper-case names
    '<HTML><BODY><DIV CLASS="x  entry\nentry" class="y" ID=main><SPAN Class=votes>v</SPAN>'
    '<A HREF="http://h.example/z#q" REL="a b">z</A></DIV></BODY></HTML>',
    # charrefs in text and attributes
    '<html><body><div class="entry"><span class="votes">x &lt; y &amp z &#169;</span>'
    '<a href="/q?a=1&amp;b=2" title="t&amp;1">t</a><b title="&#39;q&#39;">b</b></div></body></html>',
    # :nth-child and > rules
    '<html><body><div class="x"><p>1</p><span>2</span><span>3</span></div>'
    '<div class="entry"><b>1</b><span>nth2</span><div><a href="/child">c</a></div></div></body></html>',
    # a page that misses a key
    '<html><body><div class="entry"><span class="when" title="w">t</span></div></body></html>',
    # no body, unclosed root, trailing whitespace after the root
    "<html><p>only</p>",
    "\n<html><p>x</p></html>\n\t ",
    # the scan decodes each distinct start tag once per page: one
    # <span class="y">, <li> and <a href> at different positions,
    # under different parents
    '<html><body><div class="x"><span class="y">1</span><span class="y">2</span></div>'
    '<ul><li><span class="y">3</span></li><li><b>b</b><span class="y">4</span></li></ul>'
    '<div><span class="y">5</span><span class="y">6</span><div class="x"><span class="y">7</span>'
    '</div></div><ol><li>8</li><li>9</li></ol><li><span class="y">10</span></li></body></html>',
    '<html><body><div><a href="/a">1</a><p><a href="/a">2</a></p><div><a href="/a">3</a></div>'
    '</div><a href="/a">4</a></body></html>',
    # <x/> and <x> of one tag and attributes: never pushed vs pushed
    '<html><body><div class="x"><span class="votes"/><span class="votes">in</span>'
    '<span class="votes"/>after</div></body></html>',
    '<html><body><div class="x"><span class="votes">in<span class="votes"/>x</span>'
    '<span class="votes"/></div></body></html>',
    # case variants of one link; one fragment link twice
    '<html><body><A HREF="/u">1</A><a href="/u">2</a><a HREF="/v">3</a></body></html>',
    '<html><body><a href="/u#x">1</a><p><a href="/u#x">2</a></p><a href="/u">3</a></body></html>',
]


@pytest.mark.parametrize("html", HAND_WRITTEN)
@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_hand_written_pages_match_tree(html, plan_name):
    _assert_same(PLANS[plan_name], html)


@pytest.mark.parametrize("html", HAND_WRITTEN)
def test_hand_written_pages_grammar_tree(html):
    _assert_same_tree(html)


def test_hand_written_values():
    """Spot values, so the differential tests cannot pass on a bug the
    two paths share."""
    value, links = compile_scan(PLANS["nested_lists"]).run(HAND_WRITTEN[0], BASE)
    # the unclosed outer span holds the inner entry: its text is "1"+"2"+"u"
    assert json.loads(value) == [
        {"id": None, "spans": [["votes"], ["votes"]], "votes": "12u"},
        {"id": None, "spans": [["votes"]], "votes": "2"},
    ]
    assert links == ["http://h.example/u"]
    assert compile_scan(PLANS["list_of_lists"]).run(HAND_WRITTEN[3])[0] == '[["1", "2", "3"], ["2"]]'
    # img, br and the <span/> count as siblings
    assert compile_scan(PLANS["nth_after_void"]).run(HAND_WRITTEN[2])[0] == '"second"'
    assert compile_scan(PLANS["corpus"]).run(HAND_WRITTEN[7])[0] is None  # no .votes, no a
    assert compile_scan(PLANS["corpus"]).run(HAND_WRITTEN[7])[1] is None  # no base, no links
    # repeated start tags
    every = {name: compile_scan(PLANS[name]) for name in PLANS if name.startswith("every_")}
    assert json.loads(every["every_nth2"].run(HAND_WRITTEN[10])[0]) == ["2", "4", "6"]
    assert json.loads(every["every_x_span"].run(HAND_WRITTEN[10])[0]) == ["1", "2", "7"]
    assert json.loads(every["every_li1"].run(HAND_WRITTEN[10])[0]) == ["3", "8"]
    assert json.loads(every["every_child_a"].run(HAND_WRITTEN[11])[0]) == ["/a", "/a"]
    assert json.loads(every["every_x_span"].run(HAND_WRITTEN[12])[0]) == ["", "in", ""]
    assert compile_scan(None).run(HAND_WRITTEN[14], BASE)[1] == ["http://h.example/u", "http://h.example/v"]
    assert compile_scan(None).run(HAND_WRITTEN[15], BASE)[1] == ["http://h.example/u"]


def test_token_table_lives_for_one_run():
    """One PageScan on one page under two base urls: links depend on
    the base, so no decoded token outlives its run."""
    html = HAND_WRITTEN[0]
    for plan in (PLANS["corpus"], None):
        scan = compile_scan(plan)
        for base in (BASE, "https://o.example/q/", BASE):
            assert scan.run(html, base) == _tree(plan, html, base)


# -- outside the subset: the page falls back ----------------------------

FALLBACK = [
    "<!DOCTYPE html><html><body></body></html>",
    "<html><!-- c --><body></body></html>",
    '<?xml version="1.0"?><html></html>',
    "<html><body><script>var a = '<b>';</script></body></html>",
    "<html><head><style>p { color: red }</style></head></html>",
    "<html><body>a < b</body></html>",
    "<html><body><3</body></html>",
    '<html><body><div class="a"b></div></body></html>',
    "<html><body><div class=></div></body></html>",
    "<html><body><div\x0bclass='x'></div></body></html>",
    "<html><body></ div></body></html>",
    "<html><body><my:tag></my:tag></body></html>",
    '<div class="entry"><span class="votes">1</span></div>',
    "text only",
    "",
    '<html><body></body></html><div class="entry"></div>',
    "<html></html>trailing text",
    "<body><html></html></body>",
    "<html/><p>x</p>",
]


@pytest.mark.parametrize("html", FALLBACK)
def test_outside_subset_falls_back(html):
    scan = compile_scan(PLANS["corpus"])
    with pytest.raises(ScanFallback):
        scan.run(html, BASE)
    with pytest.raises(ScanFallback):
        scan.run(html.encode())
    # the tree falls back to html.parser on the same pages
    with pytest.raises(OutsideGrammar):
        dom._grammar_tree(html)
    expected = _shape(parse_with_html_parser(html))
    assert _shape(parse_html(html)) == expected
    assert _shape(parse_html(html.encode())) == expected


def test_unsupported_plans_fall_back(monkeypatch):
    class Everything(model.Selector):
        def select_one(self, node):
            return node

    monkeypatch.setitem(model.SELECTOR_REGISTRY, "everything", lambda plan: Everything())
    monkeypatch.setitem(model.EXTRACTOR_REGISTRY, "tag", lambda plan: None)
    html = HAND_WRITTEN[0]
    for plan in (
        _value({"kind": "everything"}, TEXT),
        {"kind": "list", "selector": PASS, "item": _value(_css("b"), TEXT)},
        {"kind": "dict", "keys": {"a": _value(_css("b"), {"kind": "tag"})}},
    ):
        with pytest.raises(ScanFallback):
            compile_scan(plan).run(html, BASE)
    # an overridden built-in kind is no longer the scanner's to evaluate
    monkeypatch.setitem(model.SELECTOR_REGISTRY, "css", lambda plan: Everything())
    with pytest.raises(ScanFallback):
        compile_scan(PLANS["corpus"]).run(html, BASE)


# -- links: the absolute-href fast path ---------------------------------

SCHEMES = ["http://", "https://", "HTTP://", "Https://", "http:", "http:///", "https:/", "ftp://", "urn:", "mailto:", "//", "", "u2+x.y:", "javascript:"]
HOSTS = ["h.example", "H.Example", "h.example:80", "[::1]", "[::1", "a@b.example", "", "h.example.", "xn--e1a.example"]
PATHS = ["", "/", "/a/b", "/a/../b", "a", "./x", "/a;p", ";p", "/a;", "/%41", "/ sp"]
QUERIES = ["", "?q", "?", "?a=1&b", "?x=/y"]
FRAGMENTS = ["", "#f", "#"]
BASES = [
    "http://h.example/p/1", "https://h.example/a/b?x#y", "http://other.example", "ftp://f.example/x",
    "", "http://h.example/a;p?q", "HTTP://H.EXAMPLE/", "urn:x", "http://h.example",
]


@st.composite
def hrefs(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(alphabet="htps:/?#;.aA% \t\n[]@", max_size=20))
    return "".join(draw(st.sampled_from(part)) for part in (SCHEMES, HOSTS, PATHS, QUERIES, FRAGMENTS))


@st.composite
def bases(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(["http://", "https://"])) + draw(st.sampled_from(HOSTS)) + draw(st.sampled_from(PATHS))
    return draw(st.sampled_from(BASES))


def _outcome(fn):
    try:
        return fn()
    except ValueError as e:
        return ("raises", type(e))


@settings(max_examples=2000, deadline=None)
@given(bases(), hrefs())
def test_http_link_equals_urljoin(base, href):
    """``http_link`` is ``urljoin`` plus the http(s) filter for every
    base and href, including the cases its fast paths must not take.
    (A base that urlparse rejects is rejected by ``PageScan.run`` once
    per page, before the first href.)"""
    try:
        urlparse(base)
    except ValueError:
        assume(False)

    def reference():
        absu = urljoin(base, href)
        return absu if absu.startswith(("http://", "https://")) else None

    assert _outcome(lambda: http_link(base, href)) == _outcome(reference)


@pytest.mark.parametrize(
    "href",
    ["http:foo", "http:///x", "HTTP://h.example/x", "http://h.example/a;p", "http://h.example/a;",
     "http://h.example?q", "http://h.example/a#frag", "https://h.example", "http://h.example/ x ",
     "http://h.exa\tmple/", "urn://[x", "mailto:a@b"],
)
@pytest.mark.parametrize("base", ["http://h.example/p/1", "https://o.example/", "ftp://f/x", ""])
def test_http_link_edge_cases(base, href):
    def reference():
        absu = urljoin(base, href)
        return absu if absu.startswith(("http://", "https://")) else None

    assert _outcome(lambda: http_link(base, href)) == _outcome(reference)


# -- the stages ----------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("scan-corpus"))
    spec = CorpusSpec(n_hosts=3, pages_per_host=5, skew_factors=(2,), n_seeds=1)
    generate_corpus(d, spec)
    return d, spec


def test_apply_scraper_matches_golden(tiny_corpus):
    from mlscraper_ray.stages.apply import ApplyScraper

    d, _ = tiny_corpus
    pages = pa.concat_tables(
        [pq.read_table(f, columns=["url", "html"]) for f in sorted(glob.glob(f"{d}/pages/*/*.parquet"))]
    )
    golden = pq.read_table(f"{d}/golden.parquet")
    expected = dict(zip(golden["url"].to_pylist(), golden["expected_json"].to_pylist()))
    # fallback pages ride in the same batch and get the tree's value
    extra = [f"http://fallback.example/{i}" for i in range(len(FALLBACK))]
    batch = pa.table(
        {
            "url": pa.array(pages["url"].to_pylist() + extra, pa.string()),
            "html": pa.array(pages["html"].to_pylist() + [h.encode() for h in FALLBACK], pa.binary()),
        }
    )
    out = ApplyScraper(expected_plan())(batch)
    got = dict(zip(out["url"].to_pylist(), out["value_json"].to_pylist()))
    assert len(expected) > 0 and all(got[u] == v for u, v in expected.items())
    for url, html in zip(extra, FALLBACK):
        assert got[url] == _tree(expected_plan(), html)[0]


def test_fetch_stage_marks_fallback_and_uses_tree_names(tiny_corpus, monkeypatch):
    """Robots bodies are plain text: they take the tree path, through the
    module-level names ``perfbench --trace`` wraps."""
    from mlscraper_ray.stages import crawl_stages

    d, spec = tiny_corpus
    calls = []
    real = crawl_stages.parse_html
    monkeypatch.setattr(crawl_stages, "parse_html", lambda html: calls.append(1) or real(html))
    urls = [spec.page_url(0, 1), spec.robots_url(1), "http://h0000.example/missing/x"]
    stage = crawl_stages.FetchParseExtract(d, spec.n_buckets, expected_plan())
    out = stage(pa.table({"url": urls, "depth": pa.array([0, 0, 0], pa.int32())}))
    assert out["scan_fallback"].to_pylist() == [False, True, None]
    assert out["fetch_ok"].to_pylist() == [True, True, False]
    assert len(calls) == 1
    golden = pq.read_table(f"{d}/golden.parquet").to_pylist()
    assert out["value_json"][0].as_py() == next(g["expected_json"] for g in golden if g["url"] == urls[0])
    html, _ = render_page(spec, 0, 1)
    assert out["links"][0].as_py() == extract_links(parse_html(html), urls[0])


def test_traced_names_stay_module_attributes():
    """``perfbench/tracing.py`` wraps these by name; ``--trace 1`` fails
    if one is dropped or renamed."""
    from mlscraper_ray.stages import crawl_stages

    for name in ("parse_html", "extract_links", "fetch_parse_extract_task"):
        assert callable(getattr(crawl_stages, name, None)), name
