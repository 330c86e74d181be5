"""Stdlib-only immutable DOM used inside Ray UDFs.

This replaces the reference's BeautifulSoup/lxml layer
(/root/reference/mlscraper/html.py:182-211 ``Page``, :60-179 ``Node``)
with a dependency-free tree. The tree is built once per document
(inside ``map_batches`` UDFs or in the process that trains) and never
mutated, so every derived property (text, depth, ancestors, the
learner's find index) may be cached.

Two builders make the same tree. :func:`parse_html` first tries the
strict tag grammar below (``_TOKEN_RE``): one ``re.split`` pass over
the page's tag and text tokens, each distinct start-tag token decoded
once (:func:`decode_start_tag`), the document order, child indices and
preorder spans assigned as the elements open and close. A page outside
that grammar raises :class:`OutsideGrammar` there and is built by
:func:`parse_with_html_parser` (:mod:`html.parser`), the fallback.
``scrape/scan.py`` runs the same grammar and decoder without building
a tree; the oracle crawl and the scan's own fallbacks call
:func:`parse_with_html_parser` directly, so they never depend on the
grammar.

Semantics intentionally mirrored from bs4-on-lxml because the golden
tests pin them:

- ``Element.text`` is the in-order concatenation of every descendant
  text node, including ``<script>``/``<style>`` contents
  (reference ``html.py:77-79`` -> bs4 ``Tag.text``).
- multi-valued attributes (``class`` etc.) are stored as lists, so an
  attribute equality search against a plain string never matches them
  (reference ``html.py:99-104`` relies on this bs4 behavior).
- entity references inside text and attribute values are unescaped at
  parse time (``html.parser`` ``convert_charrefs=True``).
- a document always has one ``html`` root (content is wrapped when the
  input omits it, as lxml does); an empty input yields an empty
  document (``BeautifulSoup("", "lxml")`` has no html element either).
"""
from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser
from typing import Iterator, Optional, Union

# Tags whose element never has children (HTML void elements).
VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)

# bs4's default multi-valued attribute rules for HTML documents:
# attribute name -> tags it is multi-valued on ("*" = every tag).
_MULTI_VALUED = {
    "class": "*",
    "accesskey": "*",
    "dropzone": "*",
    "rel": ("a", "area", "link"),
    "rev": ("a", "link"),
    "headers": ("td", "th"),
    "accept-charset": ("form",),
    "archive": ("object", "applet"),
}



def _is_multi_valued(tag: str, name: str) -> bool:
    rule = _MULTI_VALUED.get(name)
    return rule is not None and (rule == "*" or tag in rule)


# classes containing these break soupsieve; the reference filters them
# out of selector generation (html.py:17-18, :142 ``Node.classes``).
CLASS_CHAR_BLACKLIST = (":", "/")


def is_supported_class(cl: str) -> bool:
    return all(c not in cl for c in CLASS_CHAR_BLACKLIST)


class TextNode:
    """A run of character data. Adjacent runs are merged at parse time."""

    __slots__ = ("data", "parent", "order")

    def __init__(self, data: str, parent: "Element", order: int):
        self.data = data
        self.parent = parent
        self.order = order

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<TextNode {self.data[:20]!r}>"


class Element:
    """One HTML element bound to its document.

    Identity is object identity (one Python object per DOM element per
    document, like the reference's per-page node registry,
    ``html.py:196,204-207``).
    """

    __slots__ = (
        "tag",
        "attrs",
        "parent",
        "children",
        "order",
        "child_index",
        "_text",
        "_ancestors",
        "_depth",
        "doc",
        "_pre_start",
        "_pre_end",
        "_classes",
    )

    def __init__(self, tag: str, attrs: dict, parent: Optional["Element"], order: int):
        self.tag = tag
        self.attrs = attrs
        self.parent = parent
        self.children: list[Union["Element", TextNode]] = []
        self.order = order
        # 1-based position among parent's *element* children (CSS nth-child).
        self.child_index: int = 0
        self._text: Optional[str] = None
        self._ancestors = None
        self._depth: Optional[int] = None
        self.doc: Optional["Document"] = None
        # subtree span in the document's preorder element list
        # (assigned by _finalize; a subtree is a contiguous range)
        self._pre_start: Optional[int] = None
        self._pre_end: Optional[int] = None
        self._classes: Optional[tuple] = None

    # -- naming parity with the reference Node API ---------------------
    @property
    def tag_name(self) -> str:
        return self.tag

    @property
    def id(self) -> Optional[str]:
        v = self.attrs.get("id")
        return v if isinstance(v, str) else None

    @property
    def classes(self) -> tuple:
        """Selector-safe classes (reference ``html.py:140-142``),
        computed once per element (attrs are immutable post-parse)."""
        if self._classes is None:
            v = self.attrs.get("class", ())
            if isinstance(v, str):  # never happens for class, defensive
                v = v.split()
            self._classes = tuple(cl for cl in v if is_supported_class(cl))
        return self._classes

    @property
    def html_attributes(self) -> dict:
        return self.attrs

    @property
    def text(self) -> str:
        if self._text is None:
            parts: list[str] = []
            stack = [iter(self.children)]
            while stack:
                try:
                    node = next(stack[-1])
                except StopIteration:
                    stack.pop()
                    continue
                if isinstance(node, TextNode):
                    parts.append(node.data)
                else:
                    stack.append(iter(node.children))
            self._text = "".join(parts)
        return self._text

    @property
    def ancestors(self) -> list:
        """All ancestors starting with the parent, ending with the
        Document (reference ``html.py:130-138``)."""
        if self._ancestors is None:
            out = []
            p = self.parent
            while p is not None:
                out.append(p)
                p = p.parent
            if self.doc is not None:
                out.append(self.doc)
            self._ancestors = out
        return self._ancestors

    @property
    def depth(self) -> int:
        if self._depth is None:
            self._depth = len(self.ancestors)
        return self._depth

    def has_ancestor(self, node) -> bool:
        if isinstance(node, Document):
            return node is self.doc
        if isinstance(node, Element):
            if node.doc is not self.doc:
                return False
            if self.doc is not None:
                # a subtree is a contiguous preorder span (_finalize)
                return node._pre_start < self._pre_start < node._pre_end
        p = self.parent
        while p is not None:
            if p is node:
                return True
            p = p.parent
        return self.doc is node

    # -- traversal -----------------------------------------------------
    def iter_elements(self) -> Iterator["Element"]:
        """All descendant elements in document order (excluding self).
        Fast path: a subtree is a CONTIGUOUS slice of the document's
        preorder list (spans assigned in _finalize), iterated at C
        speed instead of through nested generators."""
        if self.doc is not None and self._pre_start is not None:
            return iter(self.doc._preorder[self._pre_start + 1 : self._pre_end])
        return self._iter_elements_walk()

    def _iter_elements_walk(self) -> Iterator["Element"]:
        stack = [iter(self.children)]
        while stack:
            try:
                node = next(stack[-1])
            except StopIteration:
                stack.pop()
                continue
            if isinstance(node, Element):
                yield node
                stack.append(iter(node.children))

    def iter_text_nodes(self) -> Iterator[TextNode]:
        stack = [iter(self.children)]
        while stack:
            try:
                node = next(stack[-1])
            except StopIteration:
                stack.pop()
                continue
            if isinstance(node, TextNode):
                yield node
            else:
                stack.append(iter(node.children))

    def select(self, css_rule: str, limit: Optional[int] = None) -> list:
        from mlscraper_ray.htmlcore.css import select as _select

        return _select(self, css_rule, limit=limit)

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<Element {self.tag} id={self.id!r} classes={self.classes!r}>"


class FindIndex:
    """Value lookups over one document, built once from its tree.

    - ``text_nodes``: every text node in document order;
    - ``by_text``: stripped text -> the text nodes with that stripped
      data, in document order;
    - ``by_attr_value``: attribute value -> ``(element, attr)`` pairs in
      document order (element preorder, then attribute order). Only
      ``str`` values are keys: multi-valued attributes are lists and
      never equal a string.
    """

    __slots__ = ("text_nodes", "by_text", "by_attr_value")

    def __init__(self, doc: "Document"):
        self.text_nodes = list(doc.iter_text_nodes())
        self.by_text: dict[str, list[TextNode]] = {}
        for t in self.text_nodes:
            self.by_text.setdefault(t.data.strip(), []).append(t)
        self.by_attr_value: dict[str, list[tuple[Element, str]]] = {}
        for elem in doc.iter_elements():
            for attr, value in elem.attrs.items():
                if isinstance(value, str):
                    self.by_attr_value.setdefault(value, []).append((elem, attr))


class Document:
    """One HTML document (the reference's ``Page``, ``html.py:182-211``).

    Acts as the root "node": ``parent`` is None, ``depth`` 0, and the
    root ``html`` element's parent chain ends here.

    ``find_index`` (a :class:`FindIndex`) is built on first use, so
    only documents the learner searches pay for it; the crawl and
    apply paths never touch it.
    """

    __slots__ = ("children", "_text", "url", "_preorder", "_find_index")

    def __init__(self, children: list):
        self.children = children
        self._text: Optional[str] = None
        self.url: Optional[str] = None
        self._preorder: Optional[list] = None  # set by _finalize
        self._find_index: Optional[FindIndex] = None

    @property
    def find_index(self) -> FindIndex:
        if self._find_index is None:
            self._find_index = FindIndex(self)
        return self._find_index

    # -- Node-protocol parity ------------------------------------------
    parent = None
    doc = None
    tag = "[document]"
    tag_name = "[document]"
    attrs: dict = {}
    id = None
    classes: tuple = ()

    @property
    def depth(self) -> int:
        return 0

    @property
    def ancestors(self) -> list:
        return []

    @property
    def text(self) -> str:
        if self._text is None:
            self._text = "".join(e.text for e in self.children if isinstance(e, Element))
        return self._text

    def has_ancestor(self, node) -> bool:
        return False

    def iter_elements(self) -> Iterator[Element]:
        if self._preorder is not None:
            return iter(self._preorder)
        return self._iter_elements_walk()

    def _iter_elements_walk(self) -> Iterator[Element]:
        for child in self.children:
            if isinstance(child, Element):
                yield child
                yield from child.iter_elements()

    def iter_text_nodes(self) -> Iterator[TextNode]:
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter_text_nodes()

    def select(self, css_rule: str, limit: Optional[int] = None) -> list:
        from mlscraper_ray.htmlcore.css import select as _select

        return _select(self, css_rule, limit=limit)

    def __repr__(self):  # pragma: no cover
        return f"<Document url={self.url!r}>"


def get_root_node(nodes: list):
    """Lowest common ancestor of a node set on one document
    (reference ``get_root_node``, ``html.py:214-228``)."""
    docs = {n.doc if isinstance(n, Element) else n for n in nodes}
    assert len(docs) == 1, "different documents found, cannot get a root"
    paths = []
    for n in nodes:
        chain = [n] + n.ancestors  # node, parent, ..., document
        paths.append(list(reversed(chain)))  # document, ..., node
    root = None
    for layer in zip(*paths):
        first = layer[0]
        if all(other is first for other in layer[1:]):
            root = first
        else:
            break
    if root is None:
        raise RuntimeError("no root found")
    return root


def get_relative_depth(node, root) -> int:
    """Depth of ``node`` below ``root`` (reference ``html.py:231-238``)."""
    hierarchy = list(reversed([node] + node.ancestors))
    return hierarchy.index(node) - hierarchy.index(root)


# -- the strict tag grammar ---------------------------------------------
# The pages it accepts are the ones :func:`_grammar_tree` builds and
# ``scrape/scan.py`` scans: no ``<!`` or ``<?`` (comments, doctypes,
# CDATA, processing instructions), no ``script``/``style``, no ``<``
# that does not open a tag of the grammar, a top-level ``<html>`` as
# the first element, and no element or non-whitespace text after the
# root closes (the html.parser build wraps such content in
# ``html > body`` or gives the document extra roots). On those pages
# the grammar reproduces :class:`_TreeBuilder`:
#
# - the naive open-element stack: void elements and ``<x/>`` are never
#   pushed, an end tag pops up to the nearest open tag of its name, and
#   a stray end tag is ignored;
# - tag and attribute names are lowercased; for a repeated attribute
#   the first one wins; the ``_MULTI_VALUED`` attributes are split;
# - charrefs in text and attribute values are unescaped with
#   :func:`html.unescape`, text once per run between two tags, exactly
#   as ``html.parser`` does with ``convert_charrefs``.
#
# Whitespace inside a tag is ASCII only: html.parser's ``\s`` also
# splits on other Unicode spaces, so such a tag falls back instead of
# parsing differently. An unquoted value stops at any whitespace, as
# html.parser's does.
_TAG_WS = r"[ \t\n\r\f]"
_NAME = r"[a-zA-Z_:][-a-zA-Z0-9_:.]*"
_EQ = rf"{_TAG_WS}*={_TAG_WS}*"
# one attribute: 1 name, 2/3/4 its double-, single- or unquoted value
_ATTR_RE = re.compile(rf"({_NAME})(?:{_EQ}(?:\"([^\"]*)\"|'([^']*)'|([^\s\"'=<>`]+)))?")
_ATTRS = rf"(?:{_TAG_WS}+{_NAME}(?:{_EQ}(?:\"[^\"]*\"|'[^']*'|[^\s\"'=<>`]+))?)*"
# groups: 1 start-tag name, 2 its attributes, 3 "/" of <x/>,
# 4 end-tag name; none set: a "<" outside the grammar
_TOKEN_RE = re.compile(
    rf"<(?:([a-zA-Z][a-zA-Z0-9-]*)({_ATTRS}){_TAG_WS}*(/?)>|/([a-zA-Z][a-zA-Z0-9-]*){_TAG_WS}*>)?"
)
_RAW_TEXT = frozenset({"script", "style"})


class OutsideGrammar(Exception):
    """The page is outside the strict tag grammar."""


def decode_start_tag(name: str, raw: str) -> tuple[str, dict]:
    """One start-tag token's lowercased tag and its attributes (names
    lowercased, the first of a repeated one wins, values unescaped, the
    ``_MULTI_VALUED`` ones split), from its first two ``_TOKEN_RE``
    groups. Raises :class:`OutsideGrammar` on a raw-text element."""
    tag = name.lower()
    if tag in _RAW_TEXT:
        raise OutsideGrammar("raw-text element")
    attrs: dict = {}
    if raw:
        for key, dq, sq, uq in _ATTR_RE.findall(raw):
            key = key.lower()
            if key in attrs:
                continue  # the first occurrence wins
            # a valueless attribute reads "", as in the html.parser build
            v = dq or sq or uq
            if "&" in v:
                v = unescape(v)
            if _is_multi_valued(tag, key):
                v = v.split()
            attrs[key] = v
    return tag, attrs


class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.roots: list = []
        self.stack: list[Element] = []
        self.order = 0

    def _attrs_dict(self, tag: str, attrs) -> dict:
        out: dict = {}
        for name, value in attrs:
            if value is None:
                value = ""
            if _is_multi_valued(tag, name):
                value = value.split()
            if name not in out:  # first occurrence wins, like bs4
                out[name] = value
        return out

    def _append(self, node):
        if self.stack:
            self.stack[-1].children.append(node)
        else:
            self.roots.append(node)

    def handle_starttag(self, tag, attrs):
        self.order += 1
        elem = Element(tag, self._attrs_dict(tag, attrs), self.stack[-1] if self.stack else None, self.order)
        self._append(elem)
        if tag not in VOID_ELEMENTS:
            self.stack.append(elem)

    def handle_startendtag(self, tag, attrs):
        self.order += 1
        elem = Element(tag, self._attrs_dict(tag, attrs), self.stack[-1] if self.stack else None, self.order)
        self._append(elem)

    def handle_endtag(self, tag):
        # pop to the matching open tag; ignore stray end tags
        for i in range(len(self.stack) - 1, -1, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return

    def handle_data(self, data):
        if not data:
            return
        parent = self.stack[-1] if self.stack else None
        if parent is None:
            # character data outside any element: dropped, as lxml does
            # for whitespace/noise before <html>
            return
        children = parent.children
        if children and isinstance(children[-1], TextNode):
            children[-1].data += data
        else:
            self.order += 1
            children.append(TextNode(data, parent, self.order))

    # comments / declarations / pis are ignored entirely


def parse_html(html: Union[str, bytes]) -> Document:
    """Parse an HTML string/bytes into a :class:`Document`: through the
    strict tag grammar (:func:`_grammar_tree`), or, for a page outside
    it, through :func:`parse_with_html_parser`. Both give the same tree.

    Accepts both ``str`` and ``bytes`` like the reference ``Page``
    (``html.py:189``; tests pass both, ``tests/test_scrapers.py:56,69``).
    """
    if isinstance(html, (bytes, bytearray)):
        html = bytes(html).decode("utf-8", errors="replace")
    try:
        return _grammar_tree(html)
    except OutsideGrammar:
        return parse_with_html_parser(html)


def parse_with_html_parser(html: Union[str, bytes]) -> Document:
    """:func:`parse_html` through :mod:`html.parser` alone, for any page.
    The oracles and the pages the scanner refused take this build."""
    if isinstance(html, (bytes, bytearray)):
        html = bytes(html).decode("utf-8", errors="replace")
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    roots = builder.roots

    html_root = next(
        (r for r in roots if isinstance(r, Element) and r.tag == "html"), None
    )
    if html_root is None and any(isinstance(r, Element) for r in roots):
        # wrap stray content in html > body, as lxml does
        html_root = Element("html", {}, None, 0)
        body = Element("body", {}, html_root, 0)
        html_root.children.append(body)
        for r in roots:
            if isinstance(r, Element):
                r.parent = body
            else:
                r.parent = body
            body.children.append(r)
        roots = [html_root]

    doc = Document([r for r in roots if isinstance(r, Element)])
    _finalize(doc)
    return doc


def _grammar_tree(html: str) -> Document:
    """The tree of a page inside the strict tag grammar, equal to the
    :class:`_TreeBuilder` tree node for node: the same naive stack of
    open elements, merged text runs, and ``order`` numbers (elements in
    preorder; a text node the builder's count of start tags and text
    nodes before it). Elements open in preorder, so ``_finalize``'s
    numbers and spans are assigned as they open and close. The elements
    of one start-tag token share its attribute dict, which nothing
    mutates. Raises :class:`OutsideGrammar` outside the grammar."""
    doc = Document([])
    preorder: list[Element] = []
    doc._preorder = preorder
    # each distinct start-tag token, keyed by its three _TOKEN_RE
    # groups: (tag, attrs, whether it closes at once)
    decoded: dict = {}
    stack: list[Element] = []
    n_children: list[int] = []  # element children of each open element so far
    order = 0  # the _TreeBuilder count: start tags and text nodes
    root = None
    root_closed = False

    tokens = iter(_TOKEN_RE.split(html))
    next(tokens)  # text before the first tag lies outside every element
    # per token: start-tag name, its attributes, "/" of <x/>,
    # end-tag name, then the text up to the next token
    for name, raw, selfclose, end, text in zip(tokens, tokens, tokens, tokens, tokens):
        if name is not None:
            if stack:
                parent = stack[-1]
            elif root is None and not selfclose and name.lower() == "html":
                parent = None
            else:
                raise OutsideGrammar("element outside the html root")
            key = (name, raw, selfclose)
            tok = decoded.get(key)
            if tok is None:
                tag, attrs = decode_start_tag(name, raw)
                tok = decoded[key] = (tag, attrs, bool(selfclose) or tag in VOID_ELEMENTS)
            tag, attrs, closes = tok
            order += 1
            start = len(preorder)
            elem = Element(tag, attrs, parent, start + 1)
            elem.doc = doc
            elem._pre_start = start
            preorder.append(elem)
            if parent is None:
                root = elem
                elem.child_index = 1
                doc.children.append(elem)
            else:
                n_children[-1] += 1
                elem.child_index = n_children[-1]
                parent.children.append(elem)
            if closes:
                elem._pre_end = start + 1
            else:
                stack.append(elem)
                n_children.append(0)
        elif end is not None:
            # pop to the nearest open element of that name; a stray end
            # tag pops nothing
            end = end.lower()
            for i in range(len(stack) - 1, -1, -1):
                if stack[i].tag == end:
                    n = len(preorder)
                    for elem in stack[i:]:
                        elem._pre_end = n
                    del stack[i:]
                    del n_children[i:]
                    root_closed = not stack
                    break
        else:
            raise OutsideGrammar("markup outside the tag grammar")
        if text:
            if stack:
                parent = stack[-1]
                children = parent.children
                if "&" in text:
                    text = unescape(text)
                if children and type(children[-1]) is TextNode:
                    children[-1].data += text
                else:
                    order += 1
                    children.append(TextNode(text, parent, order))
            elif root_closed and not text.isspace():
                raise OutsideGrammar("text after the root")

    if root is None:
        raise OutsideGrammar("no html root")
    for elem in stack:
        elem._pre_end = len(preorder)
    return doc


def _finalize(doc: Document) -> None:
    """Assign document backrefs, 1-based element child indices (for
    ``:nth-child``), preorder document-order numbers, and the preorder
    element list + per-element subtree spans (fast traversal)."""
    order = 0
    preorder: list[Element] = []

    def visit(elem: Element, child_index: int):
        nonlocal order
        order += 1
        elem.order = order
        elem.child_index = child_index
        elem.doc = doc
        elem._pre_start = len(preorder)
        preorder.append(elem)
        idx = 0
        for child in elem.children:
            if isinstance(child, Element):
                idx += 1
                visit(child, idx)
        elem._pre_end = len(preorder)

    idx = 0
    for root in doc.children:
        idx += 1
        visit(root, idx)
    doc._preorder = preorder
