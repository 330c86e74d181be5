"""Property-based learner test: for ANY generated page where each
target value appears exactly once in its own element, training must
find a scraper whose application reproduces the sample exactly (the
train->apply round-trip invariant behind the byte-identical contract).
The find index, span ancestry and sorted overlap check must also equal
the per-value and per-pair scans they replace on any generated page."""
import html as html_mod
import re
from itertools import combinations

import hypothesis.strategies as st
from hypothesis import given, settings

from mlscraper_ray.htmlcore.dom import Document, Element, TextNode, parse_html
from mlscraper_ray.learn.matches import (
    DictMatch,
    NodeSimilarity,
    ValueMatch,
    find_all,
    get_node_similarity,
    has_overlapping_pair,
)
from mlscraper_ray.learn.samples import Sample, TrainingSet
from mlscraper_ray.learn.training import train_scraper
from mlscraper_ray.scrape.model import TextValueExtractor, scraper_from_plan

KEYS = ["name", "city", "score", "note"]


@st.composite
def labeled_page(draw):
    n_keys = draw(st.integers(1, 4))
    keys = KEYS[:n_keys]
    # unique values so matches are unambiguous by construction
    values = {k: f"v{i}_{draw(st.integers(0, 999))}" for i, k in enumerate(keys)}
    noise = draw(st.integers(0, 3))
    parts = ["<html><body>"]
    for i in range(noise):
        parts.append(f"<p>noise {i}</p>")
    wrapper = draw(st.sampled_from(["div", "section", "ul"]))
    parts.append(f"<{wrapper}>")
    for k in keys:
        tag = draw(st.sampled_from(["span", "p", "li", "b"]))
        parts.append(f'<{tag} class="f-{k}">{values[k]}</{tag}>')
    parts.append(f"</{wrapper}>")
    parts.append("</body></html>")
    return "".join(parts).encode(), values


@settings(max_examples=40, deadline=None)
@given(labeled_page())
def test_train_apply_roundtrip(page_and_values):
    html, values = page_and_values
    ts = TrainingSet()
    ts.add_sample(Sample(parse_html(html), values))
    scraper = train_scraper(ts)
    # through the JSON plan, as the Ray apply stage would
    out = scraper_from_plan(scraper.to_plan()).get(parse_html(html))
    assert out == values


@st.composite
def templated_site(draw):
    """A 3-page site from one template with per-page values: train on
    two pages, hold out the third (the reference's core use case)."""
    n_keys = draw(st.integers(1, 3))
    keys = KEYS[:n_keys]
    wrapper = draw(st.sampled_from(["div", "section"]))
    tags = {k: draw(st.sampled_from(["span", "p", "b"])) for k in keys}
    noise = draw(st.integers(0, 2))
    pages = []
    for p in range(3):
        values = {k: f"pg{p}_{k}_{draw(st.integers(0, 999))}" for k in keys}
        parts = ["<html><body>"]
        for i in range(noise):
            parts.append(f"<p>noise {i}</p>")
        parts.append(f"<{wrapper}>")
        for k in keys:
            parts.append(f'<{tags[k]} class="f-{k}">{values[k]}</{tags[k]}>')
        parts.append(f"</{wrapper}></body></html>")
        pages.append(("".join(parts).encode(), values))
    return pages


@settings(max_examples=30, deadline=None)
@given(templated_site())
def test_train_on_two_pages_generalizes_to_third(pages):
    ts = TrainingSet()
    for html, values in pages[:2]:
        ts.add_sample(Sample(parse_html(html), values))
    scraper = scraper_from_plan(train_scraper(ts).to_plan())
    held_html, held_values = pages[2]
    assert scraper.get(parse_html(held_html)) == held_values


@st.composite
def list_page(draw):
    """Entries rendered as a uniform list — the ListScraper path."""
    n = draw(st.integers(2, 5))
    vals = [f"item_{i}_{draw(st.integers(0, 999))}" for i in range(n)]
    tag = draw(st.sampled_from(["li", "p", "span"]))
    inner = "".join(f'<{tag} class="entry">{v}</{tag}>' for v in vals)
    return f"<html><body><ul>{inner}</ul></body></html>".encode(), vals


@settings(max_examples=30, deadline=None)
@given(list_page())
def test_train_apply_roundtrip_list_values(page):
    html, vals = page
    ts = TrainingSet()
    ts.add_sample(Sample(parse_html(html), vals))
    scraper = scraper_from_plan(train_scraper(ts).to_plan())
    assert scraper.get(parse_html(html)) == vals


@settings(max_examples=15, deadline=None)
@given(st.integers(10, 60), st.integers(0, 999))
def test_train_apply_wide_document(width, salt):
    """Wide sibling runs force multi-digit :nth-child positions: the
    target is one undistinguished <td> among `width` identical ones, so
    only a position-based selector can pin it."""
    idx = width // 2
    cells = "".join(
        f"<td>{'target_' + str(salt) if i == idx else f'cell{i}'}</td>"
        for i in range(width)
    )
    html = f"<html><body><table><tr>{cells}</tr></table></body></html>".encode()
    values = {"v": f"target_{salt}"}
    ts = TrainingSet()
    ts.add_sample(Sample(parse_html(html), values))
    scraper = scraper_from_plan(train_scraper(ts).to_plan())
    assert scraper.get(parse_html(html)) == values


# -- the find index and the sorted overlap check against the scans
# they replace ----------------------------------------------------------

# regex metacharacters, whitespace, the html-escaped characters, the
# empty string and values that are only ever attribute-equal
FIND_VALUES = [
    "2.4", "2x4", "a+b", "aab", "(x)", "x", "lorem", "a & b", "<i>", '"q"',
    "it's", "", " ", "1\n", "only-attr", "x lorem",
]
NEEDLES = FIND_VALUES + ["  x", "x ", "\tlorem\n", "(x", "a.b", "2.*", "[x]", "a|b"]
CLASS_WORDS = ["x", "lorem", "a+b", "2.4"]


@st.composite
def find_tree(draw, depth=0):
    tag = draw(st.sampled_from(["div", "p", "span", "a", "li"]))
    attrs = ""
    for name in ("title", "data-k"):
        if draw(st.booleans()):
            attrs += f' {name}="{html_mod.escape(draw(st.sampled_from(FIND_VALUES)))}"'
    if draw(st.booleans()):
        words = draw(st.lists(st.sampled_from(CLASS_WORDS), min_size=1, max_size=2))
        attrs += f' class="{" ".join(words)}"'
    if tag == "a" and draw(st.booleans()):
        attrs += f' rel="{draw(st.sampled_from(CLASS_WORDS))}"'
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        if depth < 3 and draw(st.booleans()):
            parts.append(draw(find_tree(depth=depth + 1)))
        else:
            pad = draw(st.sampled_from(["", " ", "\n  "]))
            value = draw(st.sampled_from(FIND_VALUES))
            parts.append(pad + html_mod.escape(value) + pad[::-1])
    return f"<{tag}{attrs}>{''.join(parts)}</{tag}>"


def _find_doc(inner: str) -> Document:
    return parse_html(f"<html><body>{inner}</body></html>")


def _walk_text_nodes(node):
    for child in node.children:
        if isinstance(child, TextNode):
            yield child
        else:
            yield from _walk_text_nodes(child)


def _scan_find_all(doc: Document, item: str) -> list:
    """The per-value DOM scan the find index replaced: one regex over
    every text node, then every attribute of every element."""
    out = []
    target_regex = re.compile(r"^\s*%s\s*$" % html_mod.escape(item))
    for text_node in _walk_text_nodes(doc):
        if target_regex.search(text_node.data):
            node = text_node.parent
            out.append(("text", node, None))
            node_text = node.text.strip()
            for p in node.ancestors:
                if not isinstance(p, Document) and p.text.strip() == node_text:
                    out.append(("text", p, None))
    for elem in doc._iter_elements_walk():
        for attr, value in elem.attrs.items():
            if value == item:
                out.append(("attr", elem, attr))
    return out


def _hits(doc: Document, item: str) -> list:
    return [
        ("attr" if hasattr(h, "attr") else "text", h.node, getattr(h, "attr", None))
        for h in find_all(doc, item)
    ]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except re.error as e:
        return ("re.error", str(e))


@settings(max_examples=80, deadline=None)
@given(find_tree())
def test_indexed_find_all_equals_scan(inner):
    doc = _find_doc(inner)
    for needle in NEEDLES:
        assert _outcome(_hits, doc, needle) == _outcome(_scan_find_all, doc, needle), needle


@settings(max_examples=80, deadline=None)
@given(find_tree(), st.sampled_from(["", " ", "\n "]), st.sampled_from(["", " ", "y"]))
def test_find_all_ancestor_run_equals_full_walk(inner, pad, outer):
    """``find_all`` stops at the first ancestor whose stripped text
    differs; the scan's walk looks at every ancestor. Wrapped in
    whitespace, hits have long runs of equal-text ancestors."""
    doc = _find_doc(f"{pad}<section>{pad}{inner}{pad}</section>{outer}")
    for needle in NEEDLES:
        assert _outcome(_hits, doc, needle) == _outcome(_scan_find_all, doc, needle), needle


def test_equal_text_ancestors_stop_at_the_first_difference():
    doc = _find_doc("\n<div> <section><p> x </p>\n</section> y</div> ")
    html, body, div, section, p = doc._preorder
    # div holds " y" beside section: the walk stops there
    assert _hits(doc, "x") == [("text", p, None), ("text", section, None)]
    # a hit on div: body and html hold nothing else, and the document
    # is never a hit
    assert _hits(doc, "y") == [("text", n, None) for n in (div, body, html)]


def test_indexed_find_all_quirks():
    doc = _find_doc(
        '<p title="x" class="x">2x4</p><a rel="x">  aab </a><span>x</span>'
        "<b>a &amp; b</b><i>\n</i><u>a+b</u>"
    )
    p, a, span = doc.select("p")[0], doc.select("a")[0], doc.select("span")[0]
    # "." is a wildcard; the multi-valued class never equals the value
    assert _hits(doc, "2.4") == [("text", p, None)]
    assert _hits(doc, "x") == [("text", span, None), ("attr", p, "title")]
    # "+" and "()" are regex operators, so these values match other text
    # and never their own
    assert _hits(doc, "a+b") == [("text", a, None)]
    assert _hits(doc, "(x)") == [("text", span, None)]
    # escaped needles never equal unescaped text
    assert _hits(doc, "a & b") == []
    # the empty value matches whitespace-only text
    assert _hits(doc, "") == [("text", doc.select("i")[0], None)]
    for needle in NEEDLES:
        assert _outcome(_hits, doc, needle) == _outcome(_scan_find_all, doc, needle)


def _walk_has_ancestor(node, target) -> bool:
    if isinstance(target, Document):
        return node.doc is target
    p = node.parent
    while p is not None:
        if p is target:
            return True
        p = p.parent
    return False


@settings(max_examples=40, deadline=None)
@given(find_tree(), find_tree())
def test_span_has_ancestor_equals_parent_walk(inner1, inner2):
    docs = [_find_doc(inner1), _find_doc(inner2)]
    nodes = [n for d in docs for n in [d, *d.iter_elements()]]
    for a in nodes:
        for b in nodes:
            expected = isinstance(a, Element) and _walk_has_ancestor(a, b)
            assert a.has_ancestor(b) == expected


@settings(max_examples=80, deadline=None)
@given(find_tree(), find_tree(), st.lists(st.integers(0, 10**6), max_size=8), st.data())
def test_sorted_overlap_equals_pairwise(inner1, inner2, picks, data):
    docs = [_find_doc(inner1), _find_doc(inner2)]
    pool = [n for d in docs for n in [d, *d.iter_elements()]]
    matches = [ValueMatch(pool[i % len(pool)], TextValueExtractor()) for i in picks]
    # a DictMatch's root is the lowest common ancestor of its values
    if len(matches) >= 2 and data.draw(st.booleans()):
        same_doc = [m for m in matches if m.node is docs[0] or m.node.doc is docs[0]]
        if same_doc:
            matches.append(DictMatch({str(i): m for i, m in enumerate(same_doc)}))
    pairwise = any(m1.has_overlap(m2) for m1, m2 in combinations(matches, 2))
    assert has_overlapping_pair(matches) == pairwise
    assert has_overlapping_pair(tuple(matches)) == pairwise


@settings(max_examples=40, deadline=None)
@given(find_tree(), find_tree())
def test_memoized_node_similarity_equals_recursion(inner, stray):
    """Memoized by structural signature, similarity equals the
    recursion for every node pair, including nodes under a second root
    element that has no parent (content after ``</html>``)."""
    doc = parse_html(f"<html><body>{inner}</body></html>{stray}")
    nodes = [doc, *doc.iter_elements()]
    similarity = NodeSimilarity()
    for a in nodes:
        for b in nodes:
            assert repr(similarity(a, b)) == repr(get_node_similarity(a, b))


def test_memoized_node_similarity_keeps_parent_presence():
    """Two ``b.y`` nodes that differ only in whether their grandparent
    has a parent: the recursion weighs the last level differently, so
    the memo must tell them apart."""
    entry = '<div class="{}"><p class="{}"><b class="{}">t</b></p></div>'
    doc = parse_html(
        "<html><body>"
        + entry.format("a b", "x", "y")
        + entry.format("a c", "x r", "y q")
        + "</body></html>"
        + entry.format("a b", "x", "y")
    )
    in_body, other, stray = doc.select("b")
    similarity = NodeSimilarity()
    assert similarity(in_body, other) == get_node_similarity(in_body, other)
    assert similarity(stray, other) == get_node_similarity(stray, other)
    assert similarity(in_body, other) != similarity(stray, other)
