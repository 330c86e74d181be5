"""One-pass page scanner: the learned plan and the page's links without a tree.

The crawl's fetch stage and the extract stage need three things from a
page: the plan's value, its ``a[href]`` links, and nothing else. The
tree path pays for a whole ``htmlcore.dom`` tree, then one walk for
``Scraper.get`` and another for ``extract_links``. :func:`compile_scan`
turns a plan into a :class:`PageScan` whose :meth:`PageScan.run` makes
ONE ``_TOKEN_RE.split`` pass over the page's tag and text tokens, keeps
the stack of open elements, and evaluates the plan and collects the
links on that stack. It builds no ``Element``/``Document``.

The tag grammar is ``htmlcore.dom``'s, the one ``parse_html`` builds
its trees from: ``_TOKEN_RE``, :func:`~mlscraper_ray.htmlcore.dom.decode_start_tag`
and the subset rules documented beside them. On the pages it accepts,
both reproduce the ``html.parser`` build (``dom._TreeBuilder``): the
naive open-element stack, lowercased names, the first of a repeated
attribute, split multi-valued attributes, and charrefs unescaped in
text and attribute values.

A page repeats its tags: every entry of a listing carries the same
``<div class="entry">``, ``<span class="votes">`` and so on. ``run``
keeps a token table for the one page, keyed by a start tag's three
split groups (name, raw attributes, ``/``): the first occurrence of a
token decodes its tag, its attributes, the plan's rules its prefilter
keys select, whether it closes at once, and for an ``a`` its link;
every later occurrence is one dict lookup. Each occurrence still
builds its own stack node (its own parent and sibling index) and is
matched, captured and link-deduped on its own. The nodes of one token
share its attribute dict, which nothing mutates. The table dies with
the call: links depend on the base url.

Plan evaluation keeps the ``htmlcore/css.py`` rules. An element is
matched once, when it opens: its ancestors are then exactly the open
stack, so ``CompiledSelector.matches`` runs on lightweight stack nodes.
Only strict descendants of a scope match (a scope opened on an
element starts collecting after that element); the ancestor parts of a
rule are not clamped at the scope; ``:nth-child`` counts the element
siblings opened so far, which is the true CSS index. A value takes the
first hit in preorder, a list every hit (items may nest), ``text`` is
``.text.strip()`` of every text run inside the element, ``attr`` a
missing attribute as ``None``, and any miss makes the page's value
``None``.

Outside the grammar :meth:`PageScan.run` raises :class:`ScanFallback`
and the caller runs the tree path for that page:
``parse_with_html_parser`` + :meth:`PageScan.tree_value` +
``extract_links``; the grammar has refused the page already, so the
fallback goes straight to ``html.parser``. A plan of any other shape
than value/list/dict over css/pass selectors and text/attr extractors
(a kind added through ``register_selector`` or ``register_extractor``,
a ``pass`` selector on a list) falls back on every page. The learner
and ``functions/facets.py`` (whose table ``functions/pagerank.py``
reads) build their trees with ``parse_html``, through the same
grammar. ``frontier/oracle.py``
builds its trees with ``parse_with_html_parser``, so the oracle crawl
checks the grammar and this path independently.
"""
from __future__ import annotations

import json
import re
from functools import lru_cache
from html import unescape
from typing import Optional
from urllib.parse import urljoin, urlparse, urlunparse

from mlscraper_ray.htmlcore.css import SelectorSyntaxError, compile_selector
from mlscraper_ray.htmlcore.dom import (
    _TOKEN_RE,
    VOID_ELEMENTS,
    OutsideGrammar,
    decode_start_tag,
)
from mlscraper_ray.scrape.model import (
    AttributeValueExtractor,
    CssRuleSelector,
    DictScraper,
    ListScraper,
    PassThroughSelector,
    SelectorMissException,
    TextValueExtractor,
    ValueScraper,
    scraper_from_plan,
)


# The page is outside the tag grammar (``htmlcore.dom``), or the plan
# outside the scanner's subset.
ScanFallback = OutsideGrammar


_HTTP = ("http://", "https://")


# a scheme exactly as urlsplit reads one off an href that starts with it
_SCHEME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9+.-]*:")


@lru_cache(maxsize=1 << 16)
def _absolute_http(href: str) -> bool:
    """Whether ``urljoin(base, href) == href`` for every base: ``href``
    is http(s) with a host and reads back unchanged through
    ``urlparse``/``urlunparse``. ``urljoin`` returns such an href as it
    is when the base's scheme differs, and rebuilt from its parts when
    it is the same."""
    if not href.startswith(_HTTP):
        return False
    parts = urlparse(href)
    return bool(parts.netloc) and urlunparse(parts) == href


def http_link(base_url: str, href: str) -> Optional[str]:
    """``urljoin(base_url, href)`` if that is an http(s) url, else None,
    without the join where its result is known from ``href`` alone:

    - an href with another scheme and no ``//`` after it (``urn:``,
      ``mailto:``) joins to itself or to a url of that scheme, never
      to http(s), and urlsplit cannot reject it;
    - an absolute http(s) href joins to itself (:func:`_absolute_http`).

    ``urljoin`` also parses the base first; :meth:`PageScan.run` parses
    it once per page so that a base it rejects still fails."""
    if not base_url:  # urljoin returns the href unparsed
        return href if href.startswith(_HTTP) else None
    m = _SCHEME_RE.match(href)
    if m is not None:
        scheme = m.group().lower()
        if scheme != "http:" and scheme != "https:":
            if not href.startswith("//", m.end()):
                return None
        elif _absolute_http(href):
            return href
    absu = urljoin(base_url, href)
    return absu if absu.startswith(_HTTP) else None


class _Node:
    """One element as the scan sees it: what ``CompiledSelector.matches``
    reads (tag, attrs, parent, child_index) plus the scan's own
    bookkeeping."""

    __slots__ = ("tag", "attrs", "parent", "child_index", "n_children", "captures", "text_start", "items")

    def __init__(self, tag, attrs, parent, child_index):
        self.tag = tag
        self.attrs = attrs
        self.parent = parent
        self.child_index = child_index
        self.n_children = 0
        self.captures = None  # [(inst, slot)] waiting for this element's text
        self.text_start = 0
        self.items = None  # list items opened on this element


_UNSET = object()
_PENDING = object()


class _Inst:
    """One instance of a scope: the document, or one list item."""

    __slots__ = ("scope", "vals")

    def __init__(self, scope):
        self.scope = scope
        self.vals = [_UNSET] * scope.n_slots


class _Scope:
    """A scope of the plan (the document, or the items of one list):
    its number of value slots and the probes that read its own element
    (``pass`` selectors) as ``(slot, attr or None for text)``."""

    __slots__ = ("id", "n_slots", "pass_probes")

    def __init__(self, id_):
        self.id = id_
        self.n_slots = 0
        self.pass_probes = []


class _Walk:
    """The per-page state of :meth:`PageScan.run` that outlives one
    element: text runs inside captured elements, and the open scope
    instances of each scope (a stack per scope: instances nest)."""

    __slots__ = ("texts", "capturing", "active")

    def __init__(self, n_scopes):
        self.texts = []
        self.capturing = []  # open elements whose text is wanted
        self.active = [[] for _ in range(n_scopes)]

    def capture(self, node, inst, slot):
        inst.vals[slot] = _PENDING
        if node.captures is None:
            node.captures = []
            node.text_start = len(self.texts)
            self.capturing.append(node)
        node.captures.append((inst, slot))

    def open_items(self, node, items):
        """Activate the list items matched on ``node``: after its own
        matching, so only its strict descendants match inside them."""
        node.items = items
        for item in items:
            for slot, attr in item.scope.pass_probes:
                if attr is None:
                    self.capture(node, item, slot)
                else:
                    item.vals[slot] = node.attrs.get(attr)
            self.active[item.scope.id].append(item)

    def close(self, node):
        if node.captures is not None:
            texts = self.texts
            text = "".join(texts[node.text_start:]).strip()
            for inst, slot in node.captures:
                inst.vals[slot] = text
            self.capturing.pop()
            if not self.capturing:
                texts.clear()
        if node.items is not None:
            for item in node.items:
                self.active[item.scope.id].pop()


class _Unsupported(Exception):
    pass


class PageScan:
    """A plan compiled for :meth:`run`; also keeps the plan's tree
    scraper for pages that fall back."""

    def __init__(self, plan: Optional[dict]):
        self.scraper = scraper_from_plan(plan) if plan else None
        self._scopes: list[_Scope] = []
        # rule -> [(scope id, slot, attr, item scope)]: a value (attr
        # name, None for text; no item scope) or a list (its item scope)
        self._probes: dict[str, list] = {}
        self._build = None
        self._supported = True
        root = self._scope()
        if self.scraper is not None:
            try:
                self._build = self._compile(self.scraper, root)
                rules = {rule: compile_selector(rule) for rule in self._probes}
            except (_Unsupported, SelectorSyntaxError):
                self._supported = False
                return
        else:
            rules = {}
        # prefilter: each rule is indexed once, under its rightmost
        # compound's id, else its first class, else its tag
        self._by_id: dict[str, list] = {}
        self._by_class: dict[str, list] = {}
        self._by_tag: dict[str, list] = {}
        self._any: list = []
        for rule, sel in rules.items():
            # a one-part rule skips CompiledSelector's ancestor walk
            matches = sel.parts[0].matches if len(sel.parts) == 1 else sel.matches
            entry = (matches, self._probes[rule])
            last = sel.parts[-1]
            if last.id is not None:
                self._by_id.setdefault(last.id, []).append(entry)
            elif last.classes:
                self._by_class.setdefault(last.classes[0], []).append(entry)
            elif last.tag is not None:
                self._by_tag.setdefault(last.tag, []).append(entry)
            else:
                self._any.append(entry)

    def _scope(self) -> _Scope:
        scope = _Scope(len(self._scopes))
        self._scopes.append(scope)
        return scope

    def _compile(self, scraper, scope: _Scope):
        """Register ``scraper``'s probes in ``scope``; return the function
        that builds its value from one instance of ``scope``."""
        kind = type(scraper)
        if kind is DictScraper:
            parts = [(k, self._compile(s, scope)) for k, s in scraper.scraper_per_key.items()]
            return lambda inst: {k: build(inst) for k, build in parts}
        if kind is ValueScraper:
            ext = type(scraper.extractor)
            if ext is TextValueExtractor:
                attr = None
            elif ext is AttributeValueExtractor:
                attr = scraper.extractor.attr
            else:
                raise _Unsupported(ext)
            slot = scope.n_slots
            scope.n_slots += 1
            sel = type(scraper.selector)
            if sel is PassThroughSelector:
                scope.pass_probes.append((slot, attr))
            elif sel is CssRuleSelector:
                self._probes.setdefault(scraper.selector.css_rule, []).append(
                    (scope.id, slot, attr, None)
                )
            else:
                raise _Unsupported(sel)

            def value(inst):
                v = inst.vals[slot]
                if v is _UNSET:
                    raise SelectorMissException(f"css rule does not match any node ({scraper.selector!r})")
                return v

            return value
        if kind is ListScraper:
            if type(scraper.selector) is not CssRuleSelector:
                raise _Unsupported(scraper.selector)
            item = self._scope()
            slot = scope.n_slots
            scope.n_slots += 1
            self._probes.setdefault(scraper.selector.css_rule, []).append(
                (scope.id, slot, None, item)
            )
            build_item = self._compile(scraper.scraper, item)
            # a list with no hit never allocated its items
            return lambda inst: [] if inst.vals[slot] is _UNSET else [build_item(i) for i in inst.vals[slot]]
        raise _Unsupported(kind)

    def tree_value(self, doc) -> Optional[str]:
        """The plan's value on a parsed document, the tree path's
        ``value_json``."""
        if self.scraper is None:
            return None
        try:
            return json.dumps(self.scraper.get(doc), sort_keys=True)
        except SelectorMissException:
            return None

    def _decode(self, name: str, raw: str) -> tuple[str, dict, Optional[list]]:
        """One start-tag token's tag and attributes
        (:func:`~mlscraper_ray.htmlcore.dom.decode_start_tag`, which
        raises :class:`ScanFallback` on a raw-text element) and the
        plan's rules whose prefilter key it carries."""
        tag, attrs = decode_start_tag(name, raw)
        by_id, by_class = self._by_id, self._by_class
        entries = self._by_tag.get(tag)
        if attrs and (by_id or by_class):
            more = by_id.get(attrs.get("id"), []) if by_id else []
            classes = attrs.get("class")
            if classes and by_class:
                for c in dict.fromkeys(classes) if len(classes) > 1 else classes:
                    if c in by_class:
                        more = more + by_class[c]
            if more:
                entries = more + entries if entries else more
        if self._any:
            entries = self._any + entries if entries else self._any
        return tag, attrs, entries

    def run(self, html, base_url: Optional[str] = None) -> tuple[Optional[str], Optional[list]]:
        """``(value_json, links)`` of one page, equal to the tree path's
        ``tree_value(parse_html(html))`` and ``extract_links(doc,
        base_url)``. ``links`` is None when no ``base_url`` is given.
        Raises :class:`ScanFallback` outside the accepted subset."""
        if not self._supported:
            raise ScanFallback("plan")
        if isinstance(html, (bytes, bytearray)):
            html = bytes(html).decode("utf-8", errors="replace")
        root_scope = self._scopes[0]
        doc = _Inst(root_scope)
        walk = _Walk(len(self._scopes))
        active, texts, capturing = walk.active, walk.texts, walk.capturing
        active[0].append(doc)
        want_links = base_url is not None
        links: list = []
        seen_links: set = set()
        base_checked = False
        stack: list[_Node] = []
        root = None
        root_closed = False

        # each distinct start-tag token of the page, keyed by its three
        # _TOKEN_RE groups, decoded once (:meth:`_decode`) plus its link
        decoded: dict = {}

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
                    raise ScanFallback("element outside the html root")
                key = (name, raw, selfclose)
                tok = decoded.get(key)
                if tok is None:
                    tag, attrs, entries = self._decode(name, raw)
                    link = None
                    if want_links and tag == "a":
                        href = attrs.get("href")
                        if href and isinstance(href, str):
                            if not base_checked:
                                urlparse(base_url)
                                base_checked = True
                            link = http_link(base_url, href.split("#", 1)[0])
                    tok = decoded[key] = (tag, attrs, entries, selfclose or tag in VOID_ELEMENTS, link)
                tag, attrs, entries, closes, link = tok
                # nodes of one token share its attrs dict: nothing mutates it
                if parent is None:
                    node = root = _Node(tag, attrs, None, 1)
                else:
                    parent.n_children += 1
                    node = _Node(tag, attrs, parent, parent.n_children)

                items = None
                if entries:
                    for matches, probes in entries:
                        if not matches(node):
                            continue
                        for scope_id, slot, attr, item_scope in probes:
                            for inst in active[scope_id]:
                                vals = inst.vals
                                if item_scope is None:  # a value: its first hit
                                    if vals[slot] is not _UNSET:
                                        continue
                                    if attr is None:
                                        walk.capture(node, inst, slot)
                                    else:
                                        vals[slot] = attrs.get(attr)
                                else:
                                    item = _Inst(item_scope)
                                    if vals[slot] is _UNSET:
                                        vals[slot] = [item]
                                    else:
                                        vals[slot].append(item)
                                    if items is None:
                                        items = [item]
                                    else:
                                        items.append(item)
                if node is root:
                    # the document's own value: the root's text, no attributes
                    for slot, attr in root_scope.pass_probes:
                        if attr is None:
                            walk.capture(node, doc, slot)
                        else:
                            doc.vals[slot] = None
                if items is not None:
                    walk.open_items(node, items)

                if link is not None and link not in seen_links:
                    seen_links.add(link)
                    links.append(link)

                if closes:
                    if node.captures is not None or node.items is not None:
                        walk.close(node)
                else:
                    stack.append(node)
            elif end is not None:
                end = end.lower()
                if stack and stack[-1].tag == end:
                    node = stack.pop()
                    if node.captures is not None or node.items is not None:
                        walk.close(node)
                    root_closed = not stack
                else:
                    # pop to the nearest open element of that name; a
                    # stray end tag pops nothing
                    for i in range(len(stack) - 1, -1, -1):
                        if stack[i].tag == end:
                            for node in reversed(stack[i:]):
                                if node.captures is not None or node.items is not None:
                                    walk.close(node)
                            del stack[i:]
                            root_closed = not stack
                            break
            else:
                raise ScanFallback("markup outside the tag grammar")
            if text:
                if capturing:
                    texts.append(unescape(text) if "&" in text else text)
                elif root_closed and not text.isspace():
                    raise ScanFallback("text after the root")

        if root is None:
            raise ScanFallback("no html root")
        for node in reversed(stack):
            if node.captures is not None or node.items is not None:
                walk.close(node)
        value = None
        if self._build is not None:
            try:
                value = json.dumps(self._build(doc), sort_keys=True)
            except SelectorMissException:
                value = None
        return value, (links if want_links else None)


def compile_scan(plan: Optional[dict]) -> PageScan:
    """Compile ``plan`` (a scraper plan, or None for links only) for
    :meth:`PageScan.run`."""
    return PageScan(plan)
