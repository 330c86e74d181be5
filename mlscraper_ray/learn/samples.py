"""Samples and the inferred item-schema tree.

Semantic port of ``/root/reference/mlscraper/samples.py`` over our DOM.
A "page" here is an :class:`mlscraper_ray.htmlcore.dom.Document`.
"""
from __future__ import annotations

import typing
from itertools import product

from mlscraper_ray.htmlcore.dom import Document
from mlscraper_ray.learn.matches import (
    DictMatch,
    ListMatch,
    generate_all_value_matches,
    has_overlapping_pair,
    is_dimensions_match,
)


class ItemStructureException(Exception):
    pass


class NoMatchFoundException(Exception):
    pass


class Sample:
    """(page, value) pair; ``value`` is str | list | dict, nested
    (reference ``samples.py:21-75``)."""

    def __init__(self, page: Document, value: typing.Union[str, list, dict]):
        self.page = page
        self.value = value

    def __repr__(self):
        return f"<Sample {self.page=}, {self.value=}>"

    def get_matches(self):
        if isinstance(self.value, str):
            value_matches = [
                vm
                for vm in generate_all_value_matches(self.page, self.value)
                if not is_dimensions_match(vm)
            ]
            if not value_matches:
                raise NoMatchFoundException(
                    f"No match found on page ({self.page=}, {self.value=})"
                )
            return value_matches

        if isinstance(self.value, list):
            matches_by_value = [Sample(self.page, v).get_matches() for v in self.value]
            # cartesian product, keeping only disjoint combinations
            # (reference ``samples.py:50-62``; the blow-up risk is
            # inherent and bounded upstream by the span-sorted top-100
            # cut in training)
            return [
                ListMatch(tuple(combi))
                for combi in product(*matches_by_value)
                if not has_overlapping_pair(combi)
            ]

        if isinstance(self.value, dict):
            matches_by_key = {
                k: Sample(self.page, self.value[k]).get_matches() for k in self.value
            }
            return [
                DictMatch(dict(zip(matches_by_key.keys(), mc)))
                for mc in product(*matches_by_key.values())
                if not has_overlapping_pair(mc)
            ]

        raise RuntimeError(f"unsupported value: {self.value}")


class Item:
    """Inferred schema node (reference ``samples.py:95-170``)."""

    @classmethod
    def create_from(cls, item):
        if isinstance(item, str):
            return ValueItem()
        if isinstance(item, list):
            return ListItem()
        if isinstance(item, dict):
            return DictItem()
        raise ItemStructureException(f"unsupported item type ({item=}, {type(item)=}")

    def __init__(self):
        self.samples: list[Sample] = []

    def add_sample(self, sample: Sample):
        self.samples.append(sample)

    def __repr__(self):
        return f"<{self.__class__.__name__} {self.samples=}>"


class DictItem(Item):
    def __init__(self):
        super().__init__()
        self.item_per_key: dict[str, Item] = {}

    def add_sample(self, sample: Sample):
        if not isinstance(sample.value, dict):
            raise ItemStructureException(f"dict expected, {sample.value} given")
        super().add_sample(sample)
        for key, value in sample.value.items():
            if key not in self.item_per_key:
                self.item_per_key[key] = Item.create_from(value)
            self.item_per_key[key].add_sample(Sample(sample.page, value))


class ListItem(Item):
    def __init__(self):
        super().__init__()
        self.item: typing.Optional[Item] = None

    def add_sample(self, sample: Sample):
        if not isinstance(sample.value, list):
            raise ItemStructureException(f"list expected, {sample.value} given")
        super().add_sample(sample)
        if not self.item and len(sample.value):
            # element schema typed from the first element
            # (reference ``samples.py:157-158``)
            self.item = Item.create_from(sample.value[0])
        for v in sample.value:
            self.item.add_sample(Sample(sample.page, v))


class ValueItem(Item):
    def add_sample(self, sample: Sample):
        if not isinstance(sample.value, str):
            raise ItemStructureException(f"str expected, {sample.value} given")
        super().add_sample(sample)


class TrainingSet:
    """Accumulates samples; schema fixed by the first sample
    (reference ``samples.py:78-92``)."""

    def __init__(self):
        self.item: typing.Optional[Item] = None

    def add_sample(self, sample: Sample):
        if not self.item:
            self.item = Item.create_from(sample.value)
        self.item.add_sample(sample)

    def __repr__(self):
        return f"<TrainingSet {self.item=}>"


def make_training_set(pages, items) -> TrainingSet:
    assert len(pages) == len(items)
    ts = TrainingSet()
    for p, i in zip(pages, items):
        ts.add_sample(Sample(p, i))
    return ts
