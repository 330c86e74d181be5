"""One read and one finish for every corpus operator.

An operator reads its base tables, computes, and finishes: it turns its
pandas result into the Arrow table the registry returns. Both ends go
through this module.

``read_table(sf_dir, name, columns=None, filter=None)`` reads
``<sf_dir>/<name>.parquet`` (a file or a directory of files) as a Ray
Dataset with the given column projection and row filter; the filter may
only name projected columns. It also hands Ray the file footer's schema,
projected to the requested columns, with its metadata removed. A table
written from pandas carries a ``pandas`` metadata dict in that schema.
Left in place, Ray's block-schema deduplication tries to hash it and logs
``Failed to hash the schemas (for deduplication): unhashable type:
'dict'``. A metadata-free schema hashes. The projection is required:
Arrow rejects a schema with any field beyond ``columns``.
The rows and dtypes read are the same as a plain ``read_parquet``.

``finish(df, order_by=None, ...)`` sorts by the operator's order, keeps
the first ``head`` rows, selects ``columns``, applies the ``dtypes``
casts, and converts without the pandas index, always in that order. Ray's ``to_pandas()`` of
an empty Dataset returns a frame without columns, so touching a column
would raise ``KeyError``. When the operator passes its result schema as
``empty``, any zero-row frame finishes as a typed empty table with that
schema, and the frame's columns are never touched.

``md5_number_lower(s)`` is the one Python spelling of DuckDB's
``md5_number_lower``: the md5 digest's low 64 bits, read little-endian
as an unsigned int. Every seeded hash an operator pairs with its SQL
goes through it.
"""
from __future__ import annotations

import hashlib
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data


def read_table(
    sf_dir: str,
    name: str,
    columns: list[str] | None = None,
    filter=None,
) -> ray.data.Dataset:
    path = os.path.join(sf_dir, f"{name}.parquet")
    schema = pq.ParquetDataset(path).schema.remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return ray.data.read_parquet(path, columns=columns, filter=filter, schema=schema)


def finish(
    df: pd.DataFrame,
    order_by: str | list[str] | None = None,
    *,
    ascending: bool | list[bool] = True,
    head: int | None = None,
    columns: list[str] | None = None,
    dtypes=None,
    empty: pa.Schema | None = None,
) -> pa.Table:
    if empty is not None and len(df) == 0:
        return empty.empty_table()
    if order_by is not None:
        df = df.sort_values(order_by, ascending=ascending, ignore_index=True)
    if head is not None:
        df = df.head(head)
    if columns is not None:
        df = df[columns]
    if dtypes is not None:
        df = df.astype(dtypes)
    return pa.Table.from_pandas(df, preserve_index=False)


def md5_number_lower(s: str) -> int:
    return int.from_bytes(hashlib.md5(s.encode()).digest()[8:], "little")
