"""Candidate CSS-selector generation and uniqueness checking.

Semantic port of ``/root/reference/mlscraper/selectors.py`` with one
deliberate refinement: everywhere the reference iterates a ``set``
(hash-order, PYTHONHASHSEED-dependent: ``selectors.py:118,133,198``),
we impose the total order ``(len, lexicographic)`` so learned scrapers
are identical across processes and workers. This is a strict
refinement — every golden assertion in the reference suite (membership
/ exclusion / unambiguous learned rules) still holds.

Caches: the reference uses process-global ``functools.cache`` keyed by
Node (``selectors.py:128,196``) and an ``lru_cache(10000)`` for
uniqueness checks (``selectors.py:59``). Here the caches live in a
:class:`SelectorContext` owned by one training run — no cross-worker
shared state, which is what makes training safe to ship into a Ray
task. They are keyed by the nodes themselves, which the run keeps
alive, so a freed node's id can never hit a stale entry.

Common selectors: the reference builds every target node's full
path-selector set and intersects them. Here only the first node's set
is built; its selectors, shortest first, are probed in the other nodes
(:meth:`SelectorContext.has_path_selector`), which computes an
nth-child rank only where a probed rule names one. The sequence and
the exceptions on selectors the CSS grammar rejects are the same.
"""
from __future__ import annotations

import re
import typing
from bisect import bisect_left, bisect_right
from itertools import chain, combinations

from mlscraper_ray.htmlcore.css import compile_selector, is_name_token
from mlscraper_ray.htmlcore.dom import Document, Element
from mlscraper_ray.scrape.model import CssRuleSelector

# ids are #id, classes are .class, rel is too generic
# (reference ``selectors.py:13``)
ATTRIBUTE_SELECTOR_BLACKLIST = ("id", "class", "rel")

_PLAIN_ATTR_VALUE_RE = re.compile(r"[A-z \-]")


def _is_plain_attribute_value(v) -> bool:
    """Prefix match, exactly as the reference's ``re.match`` gate
    (``selectors.py:184-187``) — note ``[A-z]`` includes ``[\\]^_`` and
    backtick; replicated verbatim."""
    return isinstance(v, str) and bool(_PLAIN_ATTR_VALUE_RE.match(v))


def _powerset(iterable):
    s = list(iterable)
    return chain.from_iterable(combinations(s, r) for r in range(len(s) + 1))


def make_selector_for_classes(class_combination: typing.Collection[str]) -> str:
    """Sorted ``.a.b`` composition (reference ``html.py:241-245``)."""
    return "".join(sorted(f".{cl}" for cl in class_combination))


class SelectorContext:
    """Per-training-run caches for selector generation + uniqueness:

    - regular selectors: node -> frozenset, built once per
      ``(tag, attributes, has a rank parent)`` signature and checked
      once per node, or once per signature where the check reads
      nothing else (:meth:`_regular_selectors`);
    - nth-child ranks: ``(node, base selector)`` -> int;
    - node selectors: node -> tuple sorted by ``(len, str)``;
    - path selectors: ``(node, max_length)`` -> frozenset, built for the
      first node of a request (and, through the recursion, for its
      ancestors), whose set is the candidate list of
      :func:`generate_selectors_for_nodes`;
    - path membership: ``(node, rule, max_length)`` -> bool, how the
      other nodes are probed for those candidates without building
      their sets (:meth:`has_path_selector`);
    - uniqueness: ``(rule, root, nodes)`` -> bool.
    """

    def __init__(self):
        self._regular: dict[Element, frozenset] = {}
        self._by_signature: dict[tuple, list] = {}
        self._ranks: dict[tuple, int] = {}
        self._node_selectors: dict[Element, tuple] = {}
        self._path_selectors: dict[tuple, frozenset] = {}
        self._has_path: dict[tuple, bool] = {}
        self._unique_cache: dict[tuple, bool] = {}

    # -- node-level selectors ------------------------------------------
    def _regular_selectors(self, node) -> frozenset:
        """The node's regular selectors; none for html, body and the
        document. The first call compiles and matches every non-``#``
        one against the node, in ``(len, str)`` order, when the node has
        a parent to rank it in: a selector the CSS grammar rejects
        raises its ``SelectorSyntaxError``, and one that does not select
        its own node raises ``RuntimeError``, which is what the
        reference's rank lookup (``next`` over no hits, inside a
        generator) raises there. A failed check caches nothing.

        The selectors are made from the tag and the attributes alone, so
        they are built once per ``(tag, attributes, has a rank parent)``
        signature. The check's verdict is shared by the signature only
        when every checked selector compiles to one compound without
        ``:nth-child``: ``SimpleSelector.matches`` then reads nothing
        but the tag and the attributes. Otherwise (a combinator or an
        ``:nth-child`` read out of an attribute name) each node of the
        signature is checked on its own."""
        cached = self._regular.get(node)
        if cached is None:
            if node.tag_name in ("html", "body") or isinstance(node, Document):
                cached = frozenset()
            else:
                checked = _rank_parent(node) is not None
                key = (node.tag, _attrs_signature(node.attrs), checked)
                entry = self._by_signature.get(key)
                if entry is None:
                    selectors = sorted(
                        set(_generate_regular_node_selectors(node)), key=_len_lex
                    )
                    # [sorted selectors, their set, whether a node of the
                    # signature needs no check of its own]
                    entry = [selectors, frozenset(selectors), not checked]
                    self._by_signature[key] = entry
                selectors, cached, passed = entry
                if not passed:
                    shared = True
                    for s in selectors:
                        if not s.startswith("#"):
                            sel = compile_selector(s)
                            if not sel.matches(node):
                                raise RuntimeError(f"{s!r} does not select its own node")
                            shared = shared and len(sel.parts) == 1 and sel.parts[0].nth_child is None
                    entry[2] = shared
            self._regular[node] = cached
        return cached

    def _rank(self, node: Element, base: str) -> int:
        key = (node, base)
        rank = self._ranks.get(key)
        if rank is None:
            rank = self._ranks[key] = _select_rank(_rank_parent(node), node, base)
        return rank

    def get_node_selectors(self, node: Element) -> tuple:
        cached = self._node_selectors.get(node)
        if cached is None:
            cached = tuple(sorted(set(self._generate_node_selectors(node)), key=_len_lex))
            self._node_selectors[node] = cached
        return cached

    def _generate_node_selectors(self, node: Element):
        """Reference ``_generate_node_selectors`` (``selectors.py:136-157``):
        html/body/document nodes yield nothing; every non-``#`` selector
        additionally gets an ``:nth-child(n)`` variant where ``n`` is the
        node's 1-based index among the *parent's select() results* for
        that selector — NOT css nth-child semantics; the quirk is part
        of the learned-rule contract (``tests/test_selectors.py:35-43``)."""
        regular = self._regular_selectors(node)
        yield from regular
        if _rank_parent(node) is not None:
            for css_selector in regular:
                if not css_selector.startswith("#"):
                    yield f"{css_selector}:nth-child({self._rank(node, css_selector)})"

    def _is_node_selector(self, node, s: str) -> bool:
        """``s in get_node_selectors(node)``. Only an ``:nth-child(k)``
        ending computes a rank, and only for the regular selectors that
        prefix it (an attribute value may itself hold ``:nth-child(``)."""
        regular = self._regular_selectors(node)
        if s in regular:
            return True
        if _rank_parent(node) is None:
            return False
        i = s.find(":nth-child(")
        while i != -1:
            base = s[:i]
            if (
                base in regular
                and not base.startswith("#")
                and s == f"{base}:nth-child({self._rank(node, base)})"
            ):
                return True
            i = s.find(":nth-child(", i + 1)
        return False

    # -- path selectors ------------------------------------------------
    def get_path_selectors(self, node: Element, max_length: int) -> frozenset:
        key = (node, max_length)
        cached = self._path_selectors.get(key)
        if cached is None:
            cached = frozenset(self._generate_path_selectors(node, max_length))
            self._path_selectors[key] = cached
        return cached

    def _generate_path_selectors(self, node: Element, max_length: int):
        """Reference ``_generate_path_selectors`` (``selectors.py:201-223``):
        node selectors alone, plus non-``#`` ones prefixed by each
        ancestor's path selectors via descendant combinator — and child
        combinator for the direct parent. ``max_length`` bounds the
        number of simple selectors in the path (the ``complexity`` knob,
        ``training.py:36``)."""
        if max_length < 1:
            return
        node_selectors = self.get_node_selectors(node)
        yield from node_selectors
        for node_selector in node_selectors:
            if not node_selector.startswith("#"):
                for ancestor in node.ancestors:
                    if isinstance(ancestor, Document):
                        continue
                    for anc_sel in self.get_path_selectors(ancestor, max_length - 1):
                        yield f"{anc_sel} {node_selector}"
                        if ancestor is node.parent:
                            yield f"{anc_sel} > {node_selector}"

    def check_path_selectors(self, node, max_length: int) -> None:
        """Raise what ``get_path_selectors(node, max_length)`` would,
        without building the set: the build checks the regular
        selectors of the node and, from ``max_length`` 2 on, of every
        non-document ancestor, nearest first."""
        if max_length < 1:
            return
        regular = self._regular_selectors(node)
        if max_length > 1 and any(not s.startswith("#") for s in regular):
            for ancestor in node.ancestors:
                if not isinstance(ancestor, Document):
                    self._regular_selectors(ancestor)

    def has_path_selector(self, node, rule: str, max_length: int) -> bool:
        """``rule in get_path_selectors(node, max_length)``, without
        building the set: every way :meth:`_generate_path_selectors`
        could have produced ``rule`` is tried. It is one of the node's
        selectors; or, cut at any ``" "``, a non-``#`` node selector
        after a path selector of some non-document ancestor; or, cut at
        any ``" > "``, the same after one of the parent's. Attribute
        values may hold spaces and ``>``, so every cut is tried. Call
        :meth:`check_path_selectors` first: membership skips the
        errors of the selectors it never looks at."""
        if max_length < 1:
            return False
        built = self._path_selectors.get((node, max_length))
        if built is not None:
            return rule in built
        key = (node, rule, max_length)
        found = self._has_path.get(key)
        if found is None:
            found = self._has_path[key] = self._probe_path(node, rule, max_length)
        return found

    def _probe_path(self, node, rule: str, max_length: int) -> bool:
        if self._is_node_selector(node, rule):
            return True
        if max_length < 2:
            return False

        def is_step(step: str) -> bool:
            return not step.startswith("#") and self._is_node_selector(node, step)

        ancestors = [a for a in node.ancestors if not isinstance(a, Document)]
        i = rule.find(" ")
        while i != -1:
            if is_step(rule[i + 1 :]) and any(
                self.has_path_selector(a, rule[:i], max_length - 1) for a in ancestors
            ):
                return True
            i = rule.find(" ", i + 1)
        parent = node.parent
        if parent is not None:
            i = rule.find(" > ")
            while i != -1:
                if is_step(rule[i + 3 :]) and self.has_path_selector(
                    parent, rule[:i], max_length - 1
                ):
                    return True
                i = rule.find(" > ", i + 1)
        return False

    # -- uniqueness ----------------------------------------------------
    def uniquely_selects(self, css_rule: str, root, nodes: tuple) -> bool:
        """Ordered exact-list equality of ``root.select(rule, limit=k+1)``
        against ``nodes`` (reference ``selectors.py:52-75``)."""
        key = (css_rule, root, nodes)
        cached = self._unique_cache.get(key)
        if cached is None:
            sel = root.select(css_rule, limit=len(nodes) + 1)
            cached = len(sel) == len(nodes) and all(
                a is b for a, b in zip(sel, nodes)
            )
            self._unique_cache[key] = cached
        return cached


def _len_lex(s: str) -> tuple:
    return (len(s), s)


def _attrs_signature(attrs: dict) -> tuple:
    """A hashable copy of an attribute dict, in its order; a
    multi-valued attribute's list becomes a tuple."""
    return tuple((k, tuple(v) if type(v) is list else v) for k, v in attrs.items())


def _rank_parent(node):
    """What a node's nth-child rank counts in: its parent, or its
    document for a top-level element; None for a document."""
    return node.parent if node.parent is not None else node.doc


def _select_rank(parent, node: Element, css_selector: str) -> int:
    """1-based position of ``node`` in ``parent.select(css_selector)``,
    for a selector that matches the node
    (:meth:`SelectorContext._regular_selectors` checks that).

    ``select`` returns the matching elements of the parent's preorder
    span, so the position is one more than the matches between the
    parent and the node in the document's preorder list; this scans
    only that stretch instead of running the whole ``select``."""
    matches = compile_selector(css_selector).matches
    start = parent._pre_start + 1 if isinstance(parent, Element) else 0
    return 1 + sum(1 for e in node.doc._preorder[start : node._pre_start] if matches(e))


def _generate_regular_node_selectors(node: Element):
    """Reference ``_generate_regular_node_selectors``
    (``selectors.py:159-193``): tag, ``#id``, class powerset as ``.a.b``
    and ``tag.a.b``, ``tag[attr]`` and ``tag[attr="v"]`` for
    non-blacklisted attrs with "plain" values. An id or class that the
    CSS grammar would split (``a.b``, ``a>b``, ``x[y``) is skipped: its
    selector could never match the node itself."""
    yield node.tag_name
    if node.id and is_name_token(node.id):
        yield f"#{node.id}"
    for class_combination in _powerset(c for c in node.classes if is_name_token(c)):
        if class_combination:
            class_selector = make_selector_for_classes(class_combination)
            yield class_selector
            yield f"{node.tag_name}{class_selector}"
    for attribute, value in node.html_attributes.items():
        if attribute not in ATTRIBUTE_SELECTOR_BLACKLIST:
            yield f"{node.tag_name}[{attribute}]"
            if _is_plain_attribute_value(value):
                yield f'{node.tag_name}[{attribute}="{value}"]'


def generate_selectors_for_nodes(
    ctx: SelectorContext, nodes: list, roots, complexity: int
):
    """Selectors matching every node, shortest first (reference
    ``selectors.py:101-125``). The reference intersects every node's
    path-selector set; here the first node's set, in ``(len, str)``
    order, is the candidate list, and each candidate is probed in the
    other nodes (:meth:`SelectorContext.has_path_selector`). The common
    set is a subset of the first node's, so the sequence is the same.
    The other nodes' selectors are checked before the first candidate,
    so a page that breaks their build raises what the build raises."""
    assert nodes, "no nodes given"
    assert roots, "no roots given"
    assert len(nodes) == len(roots)
    first, others = nodes[0], nodes[1:]
    candidates = sorted(ctx.get_path_selectors(first, complexity), key=_len_lex)
    for n in others:
        ctx.check_path_selectors(n, complexity)
    for rule in candidates:
        if all(ctx.has_path_selector(n, rule, complexity) for n in others):
            yield CssRuleSelector(rule)


def _nodes_per_root(nodes: list, roots) -> list:
    """``[(r, tuple(n for n in nodes if n.has_ancestor(r)))]`` for each
    distinct root in first-seen order. An Element root takes its nodes
    from its subtree's open preorder span ``(_pre_start, _pre_end)`` in
    a per-document index of the Element nodes, back in ``nodes`` order
    (uniqueness compares ordered lists); a document root, and a node
    outside the index, keep the ``has_ancestor`` test."""
    index: dict = {}  # doc -> sorted [(_pre_start, position in nodes)]
    rest = []
    for i, n in enumerate(nodes):
        if isinstance(n, Element) and n.doc is not None:
            index.setdefault(n.doc, []).append((n._pre_start, i))
        else:
            rest.append(i)
    for entries in index.values():
        entries.sort()
    out = []
    seen = set()
    for r in roots:
        if id(r) in seen:
            continue
        seen.add(id(r))
        if isinstance(r, Element) and r.doc is not None:
            entries = index.get(r.doc, [])
            lo = bisect_right(entries, (r._pre_start, len(nodes)))
            hi = bisect_left(entries, (r._pre_end, -1))
            picked = [i for _, i in entries[lo:hi]]
            picked += [i for i in rest if nodes[i].has_ancestor(r)]
            out.append((r, tuple(nodes[i] for i in sorted(picked))))
        else:
            out.append((r, tuple(n for n in nodes if n.has_ancestor(r))))
    return out


def generate_unique_selectors_for_nodes(
    ctx: SelectorContext, nodes: list, roots, complexity: int
):
    """Unique selectors: per root, the selector must select exactly the
    target nodes in order (reference ``selectors.py:78-98``)."""
    if roots is None:
        roots = [n.doc for n in nodes]
    nodes_per_root = _nodes_per_root(nodes, roots)
    for selector in generate_selectors_for_nodes(ctx, nodes, roots, complexity):
        if all(
            ctx.uniquely_selects(selector.css_rule, r, ns) for r, ns in nodes_per_root
        ):
            yield selector
