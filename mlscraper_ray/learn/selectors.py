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
"""
from __future__ import annotations

import re
import typing
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

    - node selectors: node -> tuple sorted by ``(len, str)``;
    - path selectors: ``(node, max_length)`` -> frozenset (callers
      only union and intersect them; the one ordered consumer,
      :func:`generate_selectors_for_nodes`, sorts its result);
    - uniqueness: ``(rule, root, nodes)`` -> bool.
    """

    def __init__(self):
        self._node_selectors: dict[Element, tuple] = {}
        self._path_selectors: dict[tuple, frozenset] = {}
        self._unique_cache: dict[tuple, bool] = {}

    # -- node-level selectors ------------------------------------------
    def get_node_selectors(self, node: Element) -> tuple:
        cached = self._node_selectors.get(node)
        if cached is None:
            cached = tuple(
                sorted(set(self._generate_node_selectors(node)), key=lambda s: (len(s), s))
            )
            self._node_selectors[node] = cached
        return cached

    def _generate_node_selectors(self, node: Element):
        """Reference ``_generate_node_selectors`` (``selectors.py:136-157``):
        html/body/document nodes yield nothing; every non-``#`` selector
        additionally gets an ``:nth-child(n)`` variant where ``n`` is the
        node's 1-based index among the *parent's select() results* for
        that selector — NOT css nth-child semantics; the quirk is part
        of the learned-rule contract (``tests/test_selectors.py:35-43``)."""
        if node.tag_name in ("html", "body") or isinstance(node, Document):
            return
        selectors = sorted(
            set(_generate_regular_node_selectors(node)), key=lambda s: (len(s), s)
        )
        yield from selectors
        parent = node.parent if node.parent is not None else node.doc
        if parent is not None:
            for css_selector in selectors:
                if not css_selector.startswith("#"):
                    nth = _select_rank(parent, node, css_selector)
                    yield f"{css_selector}:nth-child({nth})"

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


def _select_rank(parent, node: Element, css_selector: str) -> int:
    """1-based position of ``node`` in ``parent.select(css_selector)``.

    ``select`` returns the matching elements of the parent's preorder
    span, so the position is one more than the matches between the
    parent and the node in the document's preorder list; this scans
    only that stretch instead of running the whole ``select``. A node
    its own selector does not match (a class such as ``a.b`` parses as
    two classes) has no position; the reference's ``next`` over the
    hits fails there, and so does this."""
    sel = compile_selector(css_selector)
    if not sel.matches(node):
        raise StopIteration  # reference quirk: no rank (ROADMAP)
    start = parent._pre_start + 1 if isinstance(parent, Element) else 0
    matches = sel.matches
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
    """Selectors matching every node: set-intersection of per-node path
    selector sets, shortest first (reference ``selectors.py:101-125``)."""
    assert nodes, "no nodes given"
    assert roots, "no roots given"
    assert len(nodes) == len(roots)
    common = frozenset.intersection(
        *(ctx.get_path_selectors(n, complexity) for n in nodes)
    )
    for rule in sorted(common, key=lambda s: (len(s), s)):
        yield CssRuleSelector(rule)


def generate_unique_selectors_for_nodes(
    ctx: SelectorContext, nodes: list, roots, complexity: int
):
    """Unique selectors: per root, the selector must select exactly the
    target nodes in order (reference ``selectors.py:78-98``)."""
    if roots is None:
        roots = [n.doc for n in nodes]
    root_ids = {}
    nodes_per_root = []
    for r in roots:
        if id(r) not in root_ids:
            root_ids[id(r)] = len(nodes_per_root)
            nodes_per_root.append((r, [n for n in nodes if n.has_ancestor(r)]))
    for selector in generate_selectors_for_nodes(ctx, nodes, roots, complexity):
        if all(
            ctx.uniquely_selects(selector.css_rule, r, tuple(ns))
            for r, ns in nodes_per_root
        ):
            yield selector
