"""CSS-subset selector engine over :mod:`mlscraper_ray.htmlcore.dom`.

Covers exactly the grammar the learner generates (reference
``/root/reference/mlscraper/selectors.py:136-223``):

- simple selectors: ``tag``, ``#id``, ``.a.b``, ``tag.a.b``,
  ``tag[attr]``, ``tag[attr="value"]`` and any of those suffixed with
  ``:nth-child(n)``
- combinators: descendant (whitespace) and child (``>``)

Matching semantics mirror soupsieve as exercised by the reference:

- ``node.select(css)`` candidates are the *strict descendants* of the
  scope node, returned in document order; the scope node itself never
  matches (``Tag.select`` semantics relied on by ``selectors.py:41-50``).
- ancestor parts of a path may match ancestors *above* the scope node
  (soupsieve does not clamp combinators at the scope element) — the
  reference depends on this when list-item roots become selector roots
  (``training.py:195-205``).
- ``:nth-child(n)`` is the element's 1-based position among its
  parent's element children (true CSS semantics; note the *generator*
  computes ``n`` differently, see ``learn/selectors.py``).
- ``[attr="v"]`` compares against the literal attribute value;
  multi-valued attributes compare space-joined, as soupsieve does.
- ``limit=k`` stops after k hits (``selectors.py:59-70`` contract).
"""
from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional

from mlscraper_ray.htmlcore.dom import Document, Element


class SelectorSyntaxError(ValueError):
    pass


class SimpleSelector:
    """One compound simple selector (no combinators)."""

    __slots__ = ("tag", "id", "classes", "attrs", "nth_child")

    def __init__(self, tag, id_, classes, attrs, nth_child):
        self.tag = tag            # str | None
        self.id = id_             # str | None
        self.classes = classes    # tuple[str, ...]
        self.attrs = attrs        # tuple[(name, value|None), ...]
        self.nth_child = nth_child  # int | None

    def matches(self, elem: Element) -> bool:
        if self.tag is not None and elem.tag != self.tag:
            return False
        if self.id is not None and elem.attrs.get("id") != self.id:
            return False
        if self.classes:
            cls = elem.attrs.get("class")
            if not isinstance(cls, list):
                return False
            cset = cls
            for c in self.classes:
                if c not in cset:
                    return False
        for name, value in self.attrs:
            if name not in elem.attrs:
                return False
            if value is not None:
                actual = elem.attrs[name]
                if isinstance(actual, list):
                    actual = " ".join(actual)
                if actual != value:
                    return False
        if self.nth_child is not None and elem.child_index != self.nth_child:
            return False
        return True


class CompiledSelector:
    """A parsed selector path: ``parts[i]`` is a :class:`SimpleSelector`,
    ``combinators[i]`` the combinator *before* part i (``None`` for the
    first part, else ``" "`` or ``">"``)."""

    __slots__ = ("parts", "combinators", "rule")

    def __init__(self, parts, combinators, rule):
        self.parts = parts
        self.combinators = combinators
        self.rule = rule

    def matches(self, elem: Element) -> bool:
        return self._match_from(elem, len(self.parts) - 1)

    def _match_from(self, elem: Element, part_idx: int) -> bool:
        if not self.parts[part_idx].matches(elem):
            return False
        while part_idx > 0:
            comb = self.combinators[part_idx]
            part_idx -= 1
            parent = elem.parent
            if comb == ">":
                if parent is None or not self.parts[part_idx].matches(parent):
                    return False
                elem = parent
            else:  # descendant: try every ancestor, with backtracking
                anc = parent
                while anc is not None:
                    if self.parts[part_idx].matches(anc) and self._match_from(
                        anc, part_idx
                    ):
                        return True
                    anc = anc.parent
                return False
        return True


# An ``#id`` or ``.class`` token: it stops at whitespace, ``>``, ``#``,
# ``.``, ``[`` and ``:``.
_NAME = r"[^\s>#.\[:]+"

_SELECTOR_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s*>\s*|\s+)                    # combinator
    | (?P<tag>[a-zA-Z][a-zA-Z0-9_-]*)      # tag name
    | \#(?P<id>{_NAME})                    # id
    | \.(?P<cls>{_NAME})                   # class
    | \[(?P<attr>[^\s\]=]+)                # [attr  or  [attr="value"
        (?: = "(?P<aval>[^"]*)" )? \]
    | :nth-child\((?P<nth>\d+)\)           # :nth-child(n)
    """,
    re.VERBOSE,
)
_NAME_RE = re.compile(_NAME)


def is_name_token(name: str) -> bool:
    """Whether ``#name`` / ``.name`` reads back as one id or class token."""
    return _NAME_RE.fullmatch(name) is not None


@lru_cache(maxsize=65536)
def compile_selector(rule: str) -> CompiledSelector:
    parts: list[SimpleSelector] = []
    combinators: list[Optional[str]] = []
    cur: Optional[dict] = None
    pending_comb: Optional[str] = None
    pos = 0
    s = rule.strip()
    if not s:
        raise SelectorSyntaxError("empty selector")

    def flush():
        nonlocal cur, pending_comb
        if cur is None:
            return
        parts.append(
            SimpleSelector(
                cur["tag"],
                cur["id"],
                tuple(cur["classes"]),
                tuple(cur["attrs"]),
                cur["nth"],
            )
        )
        combinators.append(pending_comb if len(parts) > 1 else None)
        cur = None
        pending_comb = None

    while pos < len(s):
        m = _SELECTOR_TOKEN_RE.match(s, pos)
        if m is None:
            raise SelectorSyntaxError(f"cannot parse selector {rule!r} at {pos}")
        pos = m.end()
        if m.group("ws") is not None:
            flush()
            pending_comb = ">" if ">" in m.group("ws") else " "
            continue
        if cur is None:
            cur = {"tag": None, "id": None, "classes": [], "attrs": [], "nth": None}
        if m.group("tag") is not None:
            cur["tag"] = m.group("tag")
        elif m.group("id") is not None:
            cur["id"] = m.group("id")
        elif m.group("cls") is not None:
            cur["classes"].append(m.group("cls"))
        elif m.group("attr") is not None:
            cur["attrs"].append((m.group("attr"), m.group("aval")))
        elif m.group("nth") is not None:
            cur["nth"] = int(m.group("nth"))
    flush()
    if not parts:
        raise SelectorSyntaxError(f"no selector parts in {rule!r}")
    return CompiledSelector(parts, combinators, rule)


def select(scope, rule: str, limit: Optional[int] = None) -> list:
    """All strict descendants of ``scope`` matching ``rule``, in
    document order, up to ``limit``."""
    sel = compile_selector(rule)
    out = []
    for elem in scope.iter_elements():
        if sel.matches(elem):
            out.append(elem)
            if limit is not None and len(out) >= limit:
                break
    return out
