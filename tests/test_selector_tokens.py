"""Ids and classes that the CSS token grammar splits get no selector
from the learner, so training on such a page neither crashes nor
changes what it learns from the other selectors."""
import pytest

from mlscraper_ray.htmlcore.css import SelectorSyntaxError, compile_selector, is_name_token
from mlscraper_ray.htmlcore.dom import parse_html
from mlscraper_ray.learn.samples import Sample, TrainingSet
from mlscraper_ray.learn.training import train_scraper


class TestUnreadableTokens:
    """An id or class that the CSS grammar splits (``htmlcore/css.py``
    ``_NAME``) yields no selector: ``.a.b`` would be two classes, so the
    node would fail its own selector."""

    @pytest.mark.parametrize("attr", ['class="a.b"', 'class="a>b"', 'class="a[b"', 'id="x[y"'])
    def test_training_skips_token_and_extracts(self, attr):
        pages = [
            (b"<html><body><p>noise</p><p %s>alpha</p><p>more</p></body></html>", "alpha"),
            (b"<html><body><p>x</p><p %s>beta</p></body></html>", "beta"),
        ]
        docs = [(parse_html(html % attr.encode()), value) for html, value in pages]
        ts = TrainingSet()
        for doc, value in docs:
            ts.add_sample(Sample(doc, value))
        scraper = train_scraper(ts)
        assert [scraper.get(doc) for doc, _ in docs] == ["alpha", "beta"]

    def test_rule_is_the_grammar_token(self):
        for name in ["a", "a-b_c", "a.b", "a>b", "a[b", "x[y", "a:b", "a#b", "a b"]:
            readable = is_name_token(name)
            try:
                parts = compile_selector(f".{name}").parts
                one_token = len(parts) == 1 and parts[0].classes == (name,)
            except SelectorSyntaxError:
                one_token = False
            assert readable == one_token, name
