"""Corpus-level BPE tokenizer training and application.

The missing piece between the corpus and the ``n_bpe_tokens``
estimators elsewhere in this package: actually TRAIN a byte-pair
tokenizer's merge table on the corpus (Sennrich et al. 2016), then
encode every document with the learned merges. Both operators are
integer/string-exact, so the whole iterative algorithm — word
histogram, top-V vocabulary cut, per-step best-pair selection, merge
application — is value-pinned by a chained-CTE DuckDB oracle (the
``embed_kmeans_int`` discipline applied to tokenizer training).

Merge application uses the classic spaced-symbol-string form: a word
``hello`` becomes ``" h e l l o "`` and applying merge ``(l, r)`` is
``s.replace(f" {l} {r} ", f" {l}{r} ")``. Python ``str.replace`` and
DuckDB/SQL ``replace`` share left-to-right non-overlapping scan
semantics, which is exactly BPE's merge rule (``aaa`` + merge
``(a,a)`` -> ``aa a``), so both sides compute the identical
tokenization with no reimplementation drift. Symbols stay inside
``[a-z]+`` (training words are lowercased alpha runs), so the spaced
form is unambiguous and needs no escaping on either side.

Distributed plan (100 TB-ready): the corpus is touched exactly once
per operator — a per-batch local word-count partial folded through
the coarse-bucket aggregate (one slim shuffle of (word, cnt) rows).
Training then runs on the TOP-V word histogram only: after the keyed
aggregate every word lives in exactly one block, so each block's
local top-V cut bounds the driver merge at V x n_blocks tiny rows
(the ``doc_oov_rate`` subset-union argument), and the merge loop
itself is O(V * n_merges) driver work on a table that is vocabulary-
sized, not corpus-sized — the standard word-histogram BPE trainer
shape (HF tokenizers trains from exactly this table). Encoding
broadcasts the merge list via ``ray.put`` and streams one pass over
the documents with a worker-global word -> token-count cache (Zipf
makes the cache hit rate ~the corpus's type/token ratio).
"""
from __future__ import annotations

import re
from collections import Counter

import pandas as pd
import pyarrow as pa
import ray.data

from mlscraper_ray.functions.broadcast import cached_object
from mlscraper_ray.functions.bucketed import bucketed_aggregate
from mlscraper_ray.functions.tables import finish, read_table

_ALPHA_RE = re.compile(r"[a-z]+")

N_MERGES = 12
TOP_V = 2048


def _local_word_counts(texts: pd.Series) -> pd.DataFrame:
    c: Counter[str] = Counter()
    for t in texts:
        c.update(_ALPHA_RE.findall((t or "").lower()))
    return pd.DataFrame(
        {"word": list(c.keys()), "cnt": pd.Series(list(c.values()), dtype="int64")}
    )


def _spaced(word: str) -> str:
    return " " + " ".join(word) + " "


def _word_histogram(sf_dir: str, top_v: int) -> list[tuple[str, int]]:
    """Corpus (word, cnt) histogram cut to the global top-V by
    (cnt desc, word asc) — one slim shuffle + a V-bounded driver
    merge; see module docstring for the subset-union bound."""
    docs = read_table(sf_dir, "documents", ["text"])
    counts = bucketed_aggregate(
        docs.map_batches(
            lambda b: _local_word_counts(b["text"]), batch_format="pandas"
        ),
        ["word"],
        {"cnt": ("cnt", "sum")},
    )

    def local_topv(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["cnt", "word"], ascending=[False, True]).head(top_v)

    merged = counts.map_batches(local_topv, batch_format="pandas").to_pandas()
    if len(merged) == 0:
        return []
    merged = merged.sort_values(["cnt", "word"], ascending=[False, True]).head(top_v)
    return list(zip(merged["word"], merged["cnt"].astype(int)))


def bpe_merges(
    sf_dir: str, n_merges: int = N_MERGES, top_v: int = TOP_V
) -> list[tuple[str, str, int]]:
    """Learn ``n_merges`` BPE merges from the corpus's top-V word
    histogram. Returns [(left_sym, right_sym, pair_count), ...] in
    merge order. Ties in pair count break on (left asc, right asc)
    — mirrored exactly by the SQL oracle's ORDER BY."""
    return merges_from_histogram(_word_histogram(sf_dir, top_v), n_merges)


def merges_from_histogram(
    hist: list[tuple[str, int]], n_merges: int
) -> list[tuple[str, str, int]]:
    """The pure merge loop over a (word, count) histogram — kept free
    of Ray so the spaced-replace semantics are property-testable
    against the SQL trainer on arbitrary histograms."""
    spaced: dict[str, int] = {_spaced(w): c for w, c in hist}
    merges: list[tuple[str, str, int]] = []
    for _ in range(n_merges):
        pairs: Counter[tuple[str, str]] = Counter()
        for s, c in spaced.items():
            syms = s.split()
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] += c
        if not pairs:
            break
        (l, r), pc = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append((l, r, pc))
        pat, rep = f" {l} {r} ", f" {l}{r} "
        spaced = {s.replace(pat, rep): c for s, c in spaced.items()}
    return merges


def tokenizer_bpe_train(
    sf_dir: str, n_merges: int = N_MERGES, top_v: int = TOP_V
) -> pa.Table:
    """The learned merge table: (step, left_sym, right_sym,
    pair_count) ordered by step."""
    merges = bpe_merges(sf_dir, n_merges, top_v)
    return pa.table(
        {
            "step": pa.array(range(len(merges)), pa.int64()),
            "left_sym": pa.array([m[0] for m in merges], pa.string()),
            "right_sym": pa.array([m[1] for m in merges], pa.string()),
            "pair_count": pa.array([m[2] for m in merges], pa.int64()),
        }
    )


def doc_bpe_encode(
    sf_dir: str, n_merges: int = N_MERGES, top_v: int = TOP_V
) -> pa.Table:
    """Encode every document with the corpus-trained merges: (doc_id,
    n_words, n_bpe_tokens), zero rows for no doc (empty docs carry
    0/0). One training pass (see ``bpe_merges``) then one streaming
    encode pass with the merge list broadcast once and a worker-global
    word -> symbol-count cache."""
    merges = bpe_merges(sf_dir, n_merges, top_v)
    reps = [(f" {l} {r} ", f" {l}{r} ") for l, r, _ in merges]
    m_ref = ray.put(reps)

    def encode(batch: pd.DataFrame) -> pd.DataFrame:
        rl = cached_object(m_ref)
        cache: dict[str, int] = _encode_cache
        ids, nw, nb = [], [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            words = _ALPHA_RE.findall((text or "").lower())
            total = 0
            for w in words:
                n = cache.get(w)
                if n is None:
                    s = _spaced(w)
                    for pat, rep in rl:
                        s = s.replace(pat, rep)
                    n = len(s.split())
                    cache[w] = n
                total += n
            ids.append(doc_id)
            nw.append(len(words))
            nb.append(total)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_words": pd.Series(nw, dtype="int64"),
                "n_bpe_tokens": pd.Series(nb, dtype="int64"),
            }
        )

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    return finish(
        docs.map_batches(encode, batch_format="pandas").to_pandas(),
        "doc_id",
    )


# worker-global encode cache (per process; merges are fixed per run)
_encode_cache: dict[str, int] = {}


def _merge_ctes(n_merges: int, top_v: int) -> str:
    """The shared chained-CTE trainer: words -> cnt -> topv -> w0,
    then per step i: p{i} (pair counts), m{i} (best pair), w{i+1}
    (merge applied). DuckDB ``replace`` scans left-to-right
    non-overlapping exactly like Python ``str.replace``."""
    parts = [
        r"""words AS MATERIALIZED (
    SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS word
    FROM documents
),
cnt AS MATERIALIZED (SELECT word, COUNT(*) AS cnt FROM words GROUP BY word),
topv AS MATERIALIZED (SELECT word, cnt FROM cnt ORDER BY cnt DESC, word LIMIT {top_v}),
w0 AS MATERIALIZED (
    SELECT cnt, regexp_replace(word, '(.)', ' \1', 'g') || ' ' AS s FROM topv
)""".replace("{top_v}", str(top_v))
    ]
    for i in range(n_merges):
        parts.append(
            f"""p{i} AS MATERIALIZED (
    -- NB: DuckDB's [:-1] slice INCLUDES the last element (unlike
    -- Python), so zip the full list against [2:] and drop the
    -- NULL-padded (last, NULL) tail pair instead of slicing the left
    SELECT pr[1] AS l, pr[2] AS r, SUM(cnt) AS pc
    FROM w{i}, unnest(list_zip(string_split(trim(s), ' '),
                               string_split(trim(s), ' ')[2:])) AS u(pr)
    WHERE pr[2] IS NOT NULL
    GROUP BY pr[1], pr[2]
),
m{i} AS MATERIALIZED (SELECT l, r, pc FROM p{i} ORDER BY pc DESC, l, r LIMIT 1),
w{i + 1} AS MATERIALIZED (
    SELECT cnt,
           replace(s, ' ' || (SELECT l FROM m{i}) || ' ' || (SELECT r FROM m{i}) || ' ',
                      ' ' || (SELECT l FROM m{i}) || (SELECT r FROM m{i}) || ' ') AS s
    FROM w{i}
)"""
        )
    return ",\n".join(parts)


def tokenizer_bpe_train_sql(n_merges: int = N_MERGES, top_v: int = TOP_V) -> str:
    steps = "\nUNION ALL\n".join(
        f"SELECT {i} AS step, l AS left_sym, r AS right_sym,"
        f" CAST(pc AS BIGINT) AS pair_count FROM m{i}"
        for i in range(n_merges)
    )
    return f"WITH {_merge_ctes(n_merges, top_v)}\n{steps}\nORDER BY step"


def doc_bpe_encode_sql(n_merges: int = N_MERGES, top_v: int = TOP_V) -> str:
    enc = [
        r"""docw AS MATERIALIZED (
    SELECT doc_id,
           unnest(regexp_extract_all(lower(text), '[a-z]+')) AS word
    FROM documents
),
e0 AS MATERIALIZED (
    SELECT doc_id, regexp_replace(word, '(.)', ' \1', 'g') || ' ' AS s FROM docw
)"""
    ]
    for i in range(n_merges):
        enc.append(
            f"""e{i + 1} AS MATERIALIZED (
    SELECT doc_id,
           replace(s, ' ' || (SELECT l FROM m{i}) || ' ' || (SELECT r FROM m{i}) || ' ',
                      ' ' || (SELECT l FROM m{i}) || (SELECT r FROM m{i}) || ' ') AS s
    FROM e{i}
)"""
        )
    enc.append(
        f"""agg AS MATERIALIZED (
    SELECT doc_id, COUNT(*) AS n_words,
           SUM(len(string_split(trim(s), ' '))) AS n_bpe
    FROM e{n_merges} GROUP BY doc_id
)"""
    )
    return f"""WITH {_merge_ctes(n_merges, top_v)},
{",".join(enc)}
SELECT d.doc_id,
       CAST(COALESCE(a.n_words, 0) AS BIGINT) AS n_words,
       CAST(COALESCE(a.n_bpe, 0) AS BIGINT) AS n_bpe_tokens
FROM documents d LEFT JOIN agg a USING (doc_id)
ORDER BY d.doc_id
"""


def tokenizer_bpe_vocab(
    sf_dir: str, n_merges: int = N_MERGES, top_v: int = TOP_V
) -> pa.Table:
    """The trained tokenizer's SYMBOL VOCABULARY: after applying the
    learned merges to the top-V word histogram, every surviving
    symbol with its corpus-weighted occurrence count — the table a
    release ships next to the merge list (vocab coverage, id
    assignment). Derived from the same histogram the trainer uses, so
    the whole family (merges, vocab, per-doc encoding) is mutually
    consistent and SQL-oracled end to end.

    Returns (symbol, n_occurrences) ordered by symbol."""
    hist = _word_histogram(sf_dir, top_v)
    merges = merges_from_histogram(hist, n_merges)
    reps = [(f" {l} {r} ", f" {l}{r} ") for l, r, _ in merges]
    counts: Counter[str] = Counter()
    for w, c in hist:
        s = _spaced(w)
        for pat, rep in reps:
            s = s.replace(pat, rep)
        for sym in s.split():
            counts[sym] += c
    syms = sorted(counts)
    return pa.table(
        {
            "symbol": pa.array(syms, pa.string()),
            "n_occurrences": pa.array([counts[s] for s in syms], pa.int64()),
        }
    )


def tokenizer_bpe_vocab_sql(n_merges: int = N_MERGES, top_v: int = TOP_V) -> str:
    return f"""WITH {_merge_ctes(n_merges, top_v)}
SELECT sym AS symbol, CAST(SUM(cnt) AS BIGINT) AS n_occurrences
FROM (
    SELECT cnt, unnest(string_split(trim(s), ' ')) AS sym FROM w{n_merges}
)
GROUP BY sym
ORDER BY symbol
"""
