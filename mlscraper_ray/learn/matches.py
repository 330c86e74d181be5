r"""Candidate matches: occurrences of sample values in a page's DOM.

Semantic port of ``/root/reference/mlscraper/html.py:45-57,84-104``
(HTMLMatch / find_all) and ``matches.py:19-234`` (the Match tree) over
our stdlib DOM. Training-only code: runs driver-side (or in a single
Ray task) on a handful of pages; the hot path at scale is the learned
plan's apply stage, not this search.

Values are looked up in the page's find index
(:class:`mlscraper_ray.htmlcore.dom.FindIndex`), built once per
document on its first search, not in a DOM walk per value. The
reference matches text with the regex ``^\s*N\s*$``, where ``N`` is
the ``html.escape``d value. When ``N`` has no regex metacharacter and
no leading or trailing whitespace, that regex holds exactly when the
text node's stripped data equals ``N`` (``\s`` and ``str.strip``
share one whitespace set), so the lookup is one dict probe. Any other
needle runs the regex over the index's cached text-node list.
Attribute values are always a dict probe on the raw value.

Priorities compare many pairs of nodes that look alike, so training
memoizes node similarity by structural signature
(:class:`NodeSimilarity`) and takes the mean through :func:`mean`.
"""
from __future__ import annotations

import html as html_mod
import re
import statistics
from itertools import combinations, product

from mlscraper_ray.htmlcore.dom import (
    Document,
    Element,
    get_relative_depth,
    get_root_node,
)
from mlscraper_ray.scrape.model import (
    AttributeValueExtractor,
    Extractor,
    TextValueExtractor,
)

_REGEX_METACHARS = frozenset(".^$*+?{}[]\\|()")


class HTMLMatch:
    __slots__ = ("node",)

    def __init__(self, node):
        self.node = node


class HTMLExactTextMatch(HTMLMatch):
    pass


class HTMLAttributeMatch(HTMLMatch):
    __slots__ = ("attr",)

    def __init__(self, node, attr):
        super().__init__(node)
        self.attr = attr


def find_all(page: Document, item: str):
    """All raw hits of ``item`` on ``page``, in document order: text
    hits first, then attribute hits.

    Port of ``Node._generate_find_all`` (reference ``html.py:84-104``),
    including its quirks:

    - the needle is ``html.escape``d but NOT ``re.escape``d, so regex
      metacharacters in values act as wildcards and values containing
      ``&<>"'`` can never text-match (parsed text is unescaped);
    - a text hit yields the text node's parent element plus every
      ancestor whose stripped text equals the parent's stripped text,
      excluding the document (``html.py:93-97``). An ancestor's text
      holds its descendant's, so once one ancestor holds a
      non-whitespace character outside the parent's stripped text,
      every higher one does too: the walk stops at the first ancestor
      whose stripped text differs;
    - the attribute arm compares raw attribute values, so multi-valued
      attributes (lists) never equal a string (``html.py:99-104``).
    """
    assert isinstance(item, str), "can only search for str"
    index = page.find_index
    needle = html_mod.escape(item)
    if needle == needle.strip() and _REGEX_METACHARS.isdisjoint(needle):
        text_hits = index.by_text.get(needle, ())
    else:
        target_regex = re.compile(r"^\s*%s\s*$" % needle)
        text_hits = [t for t in index.text_nodes if target_regex.search(t.data)]
    out = []
    for text_node in text_hits:
        node = text_node.parent
        out.append(HTMLExactTextMatch(node))
        node_text = node.text.strip()
        for p in node.ancestors:
            if isinstance(p, Document) or p.text.strip() != node_text:
                break
            out.append(HTMLExactTextMatch(p))
    for elem, attr in index.by_attr_value.get(item, ()):
        out.append(HTMLAttributeMatch(elem, attr))
    return out


def mean(values):
    """``statistics.mean``, without its exact fraction arithmetic when
    every value is the same ``int`` or the same ``float``: the mean is
    then that value (a float zero comes back as ``0.0``, as the exact
    sum turns ``-0.0`` into ``0.0``). Anything else, including no
    values at all, goes to ``statistics.mean``."""
    values = list(values)
    if values:
        first = values[0]
        kind = type(first)
        if (kind is int or kind is float) and all(
            type(v) is kind and v == first for v in values
        ):
            return 0.0 if kind is float and first == 0 else first
    return statistics.mean(values)


class Match:
    """Occurrence of a sample value on a page (reference ``matches.py:19-58``)."""

    @property
    def root(self):
        raise NotImplementedError()

    def has_overlap(self, other: "Match") -> bool:
        return (
            self.root is other.root
            or self.root.has_ancestor(other.root)
            or other.root.has_ancestor(self.root)
        )

    @property
    def span(self):
        raise NotImplementedError()

    def get_similarity_to(self, match: "Match", similarity) -> float:
        """Structural similarity; ``similarity(node1, node2)`` compares
        two nodes (a :class:`NodeSimilarity`)."""
        raise NotImplementedError()


class ValueMatch(Match):
    __slots__ = ("node", "extractor")

    def __init__(self, node, extractor: Extractor):
        self.node = node
        self.extractor = extractor

    @property
    def root(self):
        return self.node

    @property
    def span(self):
        return 0

    def get_similarity_to(self, match: "Match", similarity) -> float:
        assert isinstance(match, ValueMatch)
        if self.extractor != match.extractor:
            return 0
        return similarity(self.node, match.node)

    def __repr__(self):
        return f"<ValueMatch {self.node=}, {self.extractor=}>"


class DictMatch(Match):
    __slots__ = ("match_by_key", "_root", "_span")

    def __init__(self, match_by_key: dict):
        self.match_by_key = match_by_key
        self._root = None
        self._span = None

    @property
    def root(self):
        if self._root is None:
            self._root = get_root_node([m.root for m in self.match_by_key.values()])
        return self._root

    @property
    def span(self):
        if self._span is None:
            self._span = sum(
                m.span + get_relative_depth(m.root, self.root)
                for m in self.match_by_key.values()
            )
        return self._span

    def get_similarity_to(self, match: "Match", similarity) -> float:
        assert isinstance(match, DictMatch)
        keys = set(self.match_by_key).intersection(match.match_by_key)
        return mean(
            self.match_by_key[k].get_similarity_to(match.match_by_key[k], similarity)
            for k in keys
        )

    def __repr__(self):
        return f"<DictMatch {self.match_by_key=}>"


class ListMatch(Match):
    __slots__ = ("matches", "_root", "_span")

    def __init__(self, matches: tuple):
        self.matches = matches
        self._root = None
        self._span = None

    @property
    def root(self):
        if self._root is None:
            self._root = get_root_node([m.root for m in self.matches])
        return self._root

    @property
    def span(self):
        if self._span is None:
            self._span = sum(
                get_relative_depth(m.root, self.root) + m.span for m in self.matches
            )
        return self._span

    def get_similarity_to(self, match: "Match", similarity) -> float:
        assert isinstance(match, ListMatch)
        return mean(
            a.get_similarity_to(b, similarity)
            for a, b in product(self.matches, match.matches)
        )

    def __repr__(self):
        return f"<ListMatch {self.matches=}>"


def get_node_similarity(node1, node2, depth: int = 3) -> float:
    """Recursive class-set Jaccard similarity, tag-gated
    (reference ``html.py:252-271`` ``get_similarity``)."""
    if depth < 1:
        return 0
    if node1.tag_name != node2.tag_name:
        return 0
    c1, c2 = set(node1.classes), set(node2.classes)
    jaccard_top = len(c1.intersection(c2))
    jaccard_bottom = len(c1.union(c2))
    if jaccard_top == jaccard_bottom:
        return 1  # includes 0/0
    jaccard = jaccard_top / jaccard_bottom
    p1 = node1.parent if isinstance(node1, Element) else None
    p2 = node2.parent if isinstance(node2, Element) else None
    if p1 is not None and p2 is not None:
        jaccard = 0.8 * jaccard + 0.2 * get_node_similarity(p1, p2, depth=depth - 1)
    return jaccard


class NodeSimilarity:
    """:func:`get_node_similarity` at depth 3, memoized for one
    training run.

    The similarity reads only each node's tag, class set and, to depth
    3, the same of its parents (whether a parent exists counts at the
    last level). That is the node's structural signature, so pairs are
    memoized by signature: a list page's many entries share a handful
    of signatures. Both caches are keyed by objects the run keeps
    alive, and go with the run.
    """

    def __init__(self):
        self._signature_ids: dict = {}  # signature -> small int
        self._node_signature: dict = {}  # node -> signature id
        self._by_pair: dict[tuple[int, int], float] = {}

    def _signature(self, node, depth: int = 3):
        if depth < 1:
            return ()
        parent = node.parent if isinstance(node, Element) else None
        return (
            node.tag_name,
            frozenset(node.classes),
            None if parent is None else self._signature(parent, depth - 1),
        )

    def _signature_id(self, node) -> int:
        sid = self._node_signature.get(node)
        if sid is None:
            sid = self._signature_ids.setdefault(
                self._signature(node), len(self._signature_ids)
            )
            self._node_signature[node] = sid
        return sid

    def __call__(self, node1, node2) -> float:
        key = (self._signature_id(node1), self._signature_id(node2))
        sim = self._by_pair.get(key)
        if sim is None:
            sim = self._by_pair[key] = get_node_similarity(node1, node2)
        return sim


def generate_all_value_matches(page: Document, item: str):
    """Raw hits -> ValueMatch candidates (reference ``matches.py:201-217``)."""
    for html_match in find_all(page, item):
        if isinstance(html_match, HTMLExactTextMatch):
            yield ValueMatch(html_match.node, TextValueExtractor())
        elif isinstance(html_match, HTMLAttributeMatch):
            yield ValueMatch(html_match.node, AttributeValueExtractor(html_match.attr))


def has_overlapping_pair(matches) -> bool:
    """Whether any two matches overlap (``Match.has_overlap``: one
    root is, or is an ancestor of, the other). The negation of the
    reference's ``is_disjoint_match_combination`` (``matches.py:220-224``).

    A parsed element's subtree is a preorder span, and the spans of one
    tree are nested or disjoint. Sorted by (document, span start), a
    root that contains a later one also contains its next neighbour, so
    only neighbours are checked. Document roots take the pairwise
    check."""
    if len(matches) < 2:
        return False
    roots = [m.root for m in matches]
    if not all(isinstance(r, Element) for r in roots):
        return any(m1.has_overlap(m2) for m1, m2 in combinations(matches, 2))
    roots.sort(key=lambda r: (id(r.doc), r._pre_start))
    return any(
        a.doc is b.doc and b._pre_start < a._pre_end for a, b in zip(roots, roots[1:])
    )


def is_dimensions_match(m: Match) -> bool:
    """width/height attribute hits are noise (reference ``matches.py:227-234``)."""
    return (
        isinstance(m, ValueMatch)
        and isinstance(m.extractor, AttributeValueExtractor)
        and m.extractor.attr in ("width", "height")
    )
