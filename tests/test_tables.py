"""The shared read and finish (``functions/tables.py``): ``read_table``
reads exactly what a plain ``read_parquet`` reads, without schema
metadata; the vector top-k entries return typed empty tables; no
operator module grows its own base-table read or result tail again;
no caller picks a shuffle's bucket count (``functions/bucketed.py``
owns it); no caller picks the broadcast-or-shuffle cut-over
(``broadcast.pull`` owns it); no caller pre-aggregates the batches
it feeds ``bucketed_aggregate``, which combines every block itself;
the crawl round admits and fetches without a Ray Data job; no
crawl-side class is turned into a Ray actor; no operator module but
the facet table parses corpus pages; and each crawl-variant idiom has
one site: the oracle crawler call in the truth oracles, the engine
crawler construction in the crawl pipeline, and the edge loop over
the generator's link records; and in ``functions/`` sessions split in
one place (``streams._sessions``) and a count histogram's discrete
percentiles are read in one place (``bucketed.quantiles_disc``); the
integer k-means has one Lloyd's fold, one nearest-centroid rule on
each side (Python and SQL), and the md5 low-64 hash one spelling
(``tables.md5_number_lower``)."""
import ast
import glob
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from test_functions import SF_DIR  # noqa: E402

PACKAGE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "mlscraper_ray")
FUNCTIONS_DIR = os.path.join(PACKAGE_DIR, "functions")

# (module file name, function name) -> why that function keeps its own
# read or result tail.
ALLOWLIST: dict[tuple[str, str], str] = {}

BASE_TABLES = [
    os.path.basename(p)[: -len(".parquet")] for p in sorted(glob.glob(f"{SF_DIR}/*.parquet"))
]


@pytest.mark.parametrize("project", [False, True], ids=["all_columns", "projected"])
@pytest.mark.parametrize("name", BASE_TABLES)
def test_read_table_matches_plain_read(ray_session, name, project):
    import pyarrow.parquet as pq
    import ray.data

    from mlscraper_ray.functions.tables import read_table

    path = os.path.join(SF_DIR, f"{name}.parquet")
    columns = pq.read_schema(path).names[::-2] if project else None
    ds = read_table(SF_DIR, name, columns)
    assert not ds.schema().base_schema.metadata
    plain = ray.data.read_parquet(path, columns=columns).to_pandas()
    assert ds.to_pandas().equals(plain)


@pytest.mark.parametrize(
    "entry, kwargs",
    [
        ("cosine_filtered_topk", {"label": 999}),  # sf0.001 has labels 0-9 only
        ("cosine_range", {"threshold_x10k": 10001}),
        ("lsh_topk", {"radius": -1}),
    ],
)
def test_ann_empty_result_is_typed(ray_session, entry, kwargs):
    import pyarrow as pa
    from oracle_compare import compare

    from mlscraper_ray.functions import similarity

    out = getattr(similarity, entry)(SF_DIR, **kwargs)
    assert out.num_rows == 0
    assert out.schema == pa.schema([("vec_id", pa.int64()), ("score_x10k", pa.int64())])
    c = compare(out, getattr(similarity, f"{entry}_sql")(**kwargs), SF_DIR)
    assert c["rows_match"] and c["schema_match"] and c["hash_match"], c


def _hand_written_sites(path: str) -> list[tuple[str, str]]:
    """(enclosing function, idiom) for each hand-written base-table read
    or ``Table.from_pandas`` tail in one module, in source order."""
    src = open(path).read()
    sites = []

    def visit(node: ast.AST, fn: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = ast.get_source_segment(src, node.func.value)
            path_arg = node.args[0] if node.args else None
            if node.func.attr == "from_pandas" and owner.endswith("Table"):
                sites.append((node.lineno, fn, "Table.from_pandas"))
            elif (
                node.func.attr == "read_parquet"
                and owner.endswith("data")
                and isinstance(path_arg, ast.Call)
                and ast.get_source_segment(src, path_arg.func).endswith("path.join")
                and path_arg.args
                and isinstance(path_arg.args[0], ast.Name)
                and path_arg.args[0].id == "sf_dir"
            ):
                sites.append((node.lineno, fn, "read_parquet(os.path.join(sf_dir, ...))"))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(src), "<module>")
    return [(fn, what) for _, fn, what in sorted(sites)]


def test_operators_read_and_finish_through_tables():
    found = []
    for sub in ("functions", "pipelines", "frontier"):
        for path in sorted(glob.glob(os.path.join(PACKAGE_DIR, sub, "*.py"))):
            fname = os.path.basename(path)
            if fname == "tables.py":
                continue
            for fn, what in _hand_written_sites(path):
                if (fname, fn) not in ALLOWLIST:
                    found.append(f"{sub}/{fname}::{fn} {what}")
    assert not found, "use tables.read_table / tables.finish:\n" + "\n".join(found)


def test_guard_sees_both_idioms(tmp_path):
    p = tmp_path / "op.py"
    p.write_text(
        "import os\nimport pyarrow as pa\nimport ray.data\n"
        "def op(sf_dir):\n"
        "    ds = ray.data.read_parquet(os.path.join(sf_dir, 'events.parquet'))\n"
        "    return pa.Table.from_pandas(ds.to_pandas(), preserve_index=False)\n"
    )
    assert _hand_written_sites(str(p)) == [
        ("op", "read_parquet(os.path.join(sf_dir, ...))"),
        ("op", "Table.from_pandas"),
    ]


# shuffle helper -> positional arguments it takes; anything past them,
# or a count keyword, would be a caller-chosen bucket count
SHUFFLE_ARITY = {"co_partition": 3, "bucketed_aggregate": 3, "cogroup_join": 4}
COUNT_KEYWORDS = {"n_buckets", "n_groups", "approx_rows"}


def _shuffle_count_sites(path: str) -> list[tuple[int, str]]:
    """(line, what) for each shuffle-helper call that passes a bucket
    count and each ``.groupby("grp")`` in one module."""
    sites = []
    for node in ast.walk(ast.parse(open(path).read())):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if name in SHUFFLE_ARITY:
            counts = [k.arg for k in node.keywords if k.arg in COUNT_KEYWORDS]
            if len(node.args) > SHUFFLE_ARITY[name] or counts:
                sites.append((node.lineno, f"{name} with a bucket count"))
        elif (
            name == "groupby"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "grp"
        ):
            sites.append((node.lineno, 'groupby("grp")'))
    return sorted(sites)


def test_no_caller_sets_a_shuffle_bucket_count():
    import inspect

    from mlscraper_ray.functions.bucketed import bucketed_aggregate, co_partition
    from mlscraper_ray.functions.joins import cogroup_join

    assert list(inspect.signature(co_partition).parameters) == ["ds", "keys", "fn"]
    assert list(inspect.signature(bucketed_aggregate).parameters) == ["ds", "keys", "aggs"]
    assert not COUNT_KEYWORDS & set(inspect.signature(cogroup_join).parameters)
    found = [
        f"{os.path.relpath(path, PACKAGE_DIR)}:{line} {what}"
        for path in sorted(glob.glob(os.path.join(PACKAGE_DIR, "**", "*.py"), recursive=True))
        for line, what in _shuffle_count_sites(path)
    ]
    assert not found, "shuffle width belongs to bucketed.co_partition:\n" + "\n".join(found)


def test_shuffle_guard_sees_counts_and_grp(tmp_path):
    p = tmp_path / "op.py"
    p.write_text(
        "def op(ds, B):\n"
        "    a = co_partition(ds, ['k'], len, B)\n"
        "    b = bucketed.bucketed_aggregate(ds, ['k'], {}, n_buckets=5)\n"
        "    c = cogroup_join(ds, ds, 'k', approx_rows=10)\n"
        "    d = ds.groupby('grp').map_groups(len)\n"
        "    return cogroup_join(ds, ds, 'k', how='left'), co_partition(ds, ['k'], len)\n"
    )
    assert _shuffle_count_sites(str(p)) == [
        (2, "co_partition with a bucket count"),
        (3, "bucketed_aggregate with a bucket count"),
        (4, "cogroup_join with a bucket count"),
        (5, 'groupby("grp")'),
    ]


def _hand_tagged_join_sites(path: str) -> list[tuple[int, str]]:
    """(line, what) for each ``co_partition`` call in one module whose
    first argument is a list literal or holds a ``.union(`` call: a
    join that unions its own sides instead of naming them."""
    sites = []
    for node in ast.walk(ast.parse(open(path).read())):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if name != "co_partition":
            continue
        first = node.args[0]
        if isinstance(first, ast.List):
            sites.append((node.lineno, "co_partition over a list"))
        elif any(isinstance(n, ast.Attribute) and n.attr == "union" for n in ast.walk(first)):
            sites.append((node.lineno, "co_partition over a union"))
    return sorted(sites)


def test_joins_name_their_sides():
    found = [
        f"{os.path.relpath(path, PACKAGE_DIR)}:{line} {what}"
        for path in sorted(glob.glob(os.path.join(PACKAGE_DIR, "**", "*.py"), recursive=True))
        if os.path.basename(path) != "bucketed.py"
        for line, what in _hand_tagged_join_sites(path)
    ]
    assert not found, "name the sides: co_partition({'a': a, 'b': b}, keys, fn):\n" + "\n".join(found)


def test_join_guard_sees_lists_and_unions(tmp_path):
    p = tmp_path / "op.py"
    p.write_text(
        "def op(a, b):\n"
        "    x = co_partition([a, b], ['k'], len)\n"
        "    y = bucketed.co_partition(coalesce_blocks(a.union(b), 10), ['k'], len)\n"
        "    z = bucketed_aggregate(a.union(b), ['k'], {})\n"
        "    return co_partition({'a': a, 'b': b}, ['k'], len), co_partition(a, ['k'], len)\n"
    )
    assert _hand_tagged_join_sites(str(p)) == [
        (2, "co_partition over a list"),
        (3, "co_partition over a union"),
    ]


def _materialized(rows: int):
    import pandas as pd
    import ray.data

    return ray.data.from_pandas(pd.DataFrame({"k": list(range(rows))})).materialize()


def test_pull_boundary(ray_session, set_pull_cap):
    from mlscraper_ray.functions import broadcast

    ds = _materialized(100)
    size = ds.size_bytes()
    set_pull_cap(size)
    (frame,) = broadcast.pull(ds)
    assert frame["k"].tolist() == list(range(100))
    set_pull_cap(size - 1)
    assert broadcast.pull(ds) is None
    # an empty side pulls nothing, so even a cap of 0 takes it
    set_pull_cap(0)
    (empty,) = broadcast.pull(_materialized(0))
    assert len(empty) == 0
    # several inputs are judged by their sum
    other = _materialized(50)
    both = size + other.size_bytes()
    set_pull_cap(both)
    assert [len(f) for f in broadcast.pull(ds, other)] == [100, 50]
    set_pull_cap(both - 1)
    assert broadcast.pull(ds, other) is None


def test_pull_takes_a_plain_read(ray_session):
    from mlscraper_ray.functions import broadcast
    from mlscraper_ray.functions.tables import read_table

    (customer,) = broadcast.pull(read_table(SF_DIR, "customer", ["c_custkey"]))
    assert len(customer) > 0


def test_pull_rejects_a_lazy_input(ray_session):
    """Sizing a lazy plan would run it once for the size and again for
    the pull (or the shuffle), so ``pull`` refuses it."""
    from mlscraper_ray.functions import broadcast

    lazy = _materialized(10).map_batches(lambda df: df, batch_format="pandas")
    with pytest.raises(ValueError, match="materialized Dataset or a plain read"):
        broadcast.pull(lazy)


# parameter / keyword names that would let a caller pick the
# broadcast-or-shuffle cut-over instead of broadcast.pull
PULL_KNOBS = {"broadcast_limit", "driver_limit", "approx_edges"}


def _pull_knob_sites(path: str) -> list[tuple[int, str]]:
    """(line, name) for each function parameter and call keyword in one
    module that is named like a pull knob."""
    sites = []
    for node in ast.walk(ast.parse(open(path).read())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            sites += [(node.lineno, p.arg) for p in params if p and p.arg in PULL_KNOBS]
        elif isinstance(node, ast.Call):
            sites += [(node.lineno, k.arg) for k in node.keywords if k.arg in PULL_KNOBS]
    return sorted(sites)


def test_no_caller_sets_a_pull_cap():
    found = [
        f"{os.path.relpath(path, PACKAGE_DIR)}:{line} {name}"
        for path in sorted(glob.glob(os.path.join(PACKAGE_DIR, "**", "*.py"), recursive=True))
        for line, name in _pull_knob_sites(path)
    ]
    assert not found, "the broadcast-or-shuffle choice belongs to broadcast.pull:\n" + "\n".join(
        found
    )


def test_pull_guard_sees_parameters_and_keywords(tmp_path):
    p = tmp_path / "op.py"
    p.write_text(
        "def op(sf_dir, broadcast_limit=10):\n"
        "    return run(sf_dir, driver_limit=0)\n"
        "def cc(edges, *, approx_edges=None):\n"
        "    return connected_components(edges, max_iters=3)\n"
    )
    assert _pull_knob_sites(str(p)) == [
        (1, "broadcast_limit"),
        (2, "driver_limit"),
        (3, "approx_edges"),
    ]


# (module path under mlscraper_ray/, operator) -> why that operator
# still groups a batch before handing it to bucketed_aggregate.
PRE_AGGREGATED_ALLOWLIST: dict[tuple[str, str], str] = {}
GROUPERS = {"groupby", "group_by", "value_counts"}


def _pre_aggregated_sites(path: str) -> list[tuple[str, str]]:
    """(operator, map fn) for each ``bucketed_aggregate(X.map_batches(fn,
    ...), ...)`` in one module whose ``fn`` — a lambda, or a def or
    name-bound lambda of the operator or the module — groups its batch
    with ``.groupby(``, ``.group_by(`` or ``.value_counts(``."""
    tree = ast.parse(open(path).read())

    def named_fns(scope: ast.AST) -> dict[str, ast.AST]:
        fns = {}
        for node in ast.walk(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not scope:
                fns[node.name] = node
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                fns.update((t.id, node.value) for t in node.targets if isinstance(t, ast.Name))
        return fns

    def groups(fn: ast.AST) -> bool:
        calls = (n for n in ast.walk(fn) if isinstance(n, ast.Call))
        return any(isinstance(c.func, ast.Attribute) and c.func.attr in GROUPERS for c in calls)

    module_fns = named_fns(tree)
    sites = []
    for top in tree.body:
        op = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
        local_fns = {**module_fns, **named_fns(top)}
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            feed = node.args[0]
            if not (
                name == "bucketed_aggregate"
                and isinstance(feed, ast.Call)
                and isinstance(feed.func, ast.Attribute)
                and feed.func.attr == "map_batches"
                and feed.args
            ):
                continue
            m = feed.args[0]
            fn = m if isinstance(m, ast.Lambda) else local_fns.get(getattr(m, "id", None))
            if fn is not None and groups(fn):
                sites.append((node.lineno, op, getattr(m, "id", "<lambda>")))
    return [(op, fn) for _, op, fn in sorted(sites)]


def test_bucketed_aggregate_inputs_are_plain_rows():
    found = [
        f"{rel}::{op} pre-aggregates in {fn}"
        for path in sorted(glob.glob(os.path.join(PACKAGE_DIR, "**", "*.py"), recursive=True))
        for rel in [os.path.relpath(path, PACKAGE_DIR)]
        for op, fn in _pre_aggregated_sites(path)
        if (rel, op) not in PRE_AGGREGATED_ALLOWLIST
    ]
    assert not found, "bucketed_aggregate combines each block itself:\n" + "\n".join(found)


def test_pre_aggregation_guard_sees_defs_lambdas_and_helpers(tmp_path):
    p = tmp_path / "op.py"
    p.write_text(
        "def op(ds):\n"
        "    def partial(df):\n"
        "        return df.groupby('k').size().reset_index()\n"
        "    rows = lambda df: df[['k']]\n"
        "    a = bucketed_aggregate(ds.map_batches(partial), ['k'], {})\n"
        "    b = bucketed.bucketed_aggregate(\n"
        "        ds.map_batches(lambda t: t.group_by('k').aggregate([])), ['k'], {})\n"
        "    c = bucketed_aggregate(ds.map_batches(lambda df: df.k.value_counts()), ['k'], {})\n"
        "    d = bucketed_aggregate(ds.map_batches(rows), ['k'], {'n': ('k', 'count')})\n"
        "    return bucketed_aggregate(ds, ['k'], {'n': ('k', 'count')})\n"
        "def other(ds):\n"
        "    return bucketed_aggregate(ds.map_batches(helper), ['k'], {})\n"
        "def helper(df):\n"
        "    return df.groupby('k').sum()\n"
    )
    assert _pre_aggregated_sites(str(p)) == [
        ("op", "partial"),
        ("op", "<lambda>"),
        ("op", "<lambda>"),
        ("other", "helper"),
    ]


# the crawl's phases, which run as plain Ray tasks: a Ray Data job here
# would cost a launch per BSP round (or, for the seeds, per crawl)
ROUND_METHODS = ("RayCrawler", ("run", "_submit_dataset", "_admit", "_fetch_extract"))


def _ray_data_sites(path: str) -> list[tuple[int, str]]:
    """(line, method) for each ``ray.data`` attribute, calls and
    annotations alike, inside the round methods of one module."""
    cls_name, methods = ROUND_METHODS
    sites = []
    for cls in ast.walk(ast.parse(open(path).read())):
        if not (isinstance(cls, ast.ClassDef) and cls.name == cls_name):
            continue
        for fn in cls.body:
            if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name in methods):
                continue
            sites += [
                (node.lineno, fn.name)
                for node in ast.walk(fn)
                if isinstance(node, ast.Attribute)
                and node.attr == "data"
                and isinstance(node.value, ast.Name)
                and node.value.id == "ray"
            ]
    return sorted(sites)


def test_crawl_round_launches_no_ray_data_job():
    path = os.path.join(PACKAGE_DIR, "frontier", "crawler.py")
    found = [f"frontier/crawler.py:{line} {fn}" for line, fn in _ray_data_sites(path)]
    assert not found, "a crawl reads its seeds, admits and fetches with plain Ray tasks:\n" + "\n".join(found)


def test_round_guard_sees_calls_and_annotations(tmp_path):
    p = tmp_path / "crawler.py"
    p.write_text(
        "class RayCrawler:\n"
        "    def _submit_dataset(self, ds: ray.data.Dataset):\n"
        "        return ds.take_all()\n"
        "    def _admit(self):\n"
        "        return ray.data.from_arrow_refs(self.refs)\n"
        "    def _fetch_extract(self, admitted: ray.data.Dataset, k):\n"
        "        return [f.remote(r) for r in admitted]\n"
        "def crawl_order_dataset(out_dir):\n"
        "    return ray.data.read_parquet(out_dir)\n"
    )
    assert _ray_data_sites(str(p)) == [(2, "_submit_dataset"), (5, "_admit"), (6, "_fetch_extract")]


# the crawl's frontier and fetch stage: their state lives in checkpoint
# bytes and per-worker caches, not in actor processes, whose start-up
# cost a crawl ~1 s
ACTOR_FREE = ("frontier/**/*.py", "stages/crawl_stages.py")


def _is_ray_remote(node: ast.AST) -> bool:
    """``ray.remote`` or a bare ``remote``, called with options or not."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id == "remote"
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "remote"
        and isinstance(node.value, ast.Name)
        and node.value.id == "ray"
    )


def _actor_sites(path: str) -> list[tuple[int, str]]:
    """(line, class) for each class made a Ray actor in one module: a
    ``ray.remote`` decorator on a class, or ``ray.remote`` applied to a
    class name (a class defined in the module, or any CapWords name)."""
    tree = ast.parse(open(path).read())
    classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(map(_is_ray_remote, node.decorator_list)):
            sites.append((node.lineno, node.name))
        elif isinstance(node, ast.Call) and _is_ray_remote(node.func) and node.args:
            arg = node.args[0]
            name = getattr(arg, "id", None) or getattr(arg, "attr", "")
            if name in classes or name[:1].isupper():
                sites.append((node.lineno, name))
    return sorted(sites)


def test_crawl_starts_no_actor():
    found = [
        f"{os.path.relpath(path, PACKAGE_DIR)}:{line} {name}"
        for pattern in ACTOR_FREE
        for path in sorted(glob.glob(os.path.join(PACKAGE_DIR, pattern), recursive=True))
        for line, name in _actor_sites(path)
    ]
    assert not found, "the crawl runs its shards and stages as plain Ray tasks:\n" + "\n".join(found)


def test_actor_guard_sees_decorators_and_calls(tmp_path):
    p = tmp_path / "shard.py"
    p.write_text(
        "import ray\n"
        "from ray import remote\n"
        "@ray.remote\n"
        "class A:\n"
        "    pass\n"
        "@ray.remote(num_cpus=0)\n"
        "class B:\n"
        "    pass\n"
        "@remote\n"
        "class C:\n"
        "    pass\n"
        "class d:\n"
        "    pass\n"
        "group = ray.remote(d)\n"
        "other = ray.remote(num_cpus=0)(shard.Group)\n"
        "@ray.remote\n"
        "def task(x):\n"
        "    return x\n"
        "fn = ray.remote(plain_function)\n"
        "ref = task.remote(d)\n"
    )
    assert _actor_sites(str(p)) == [(4, "A"), (7, "B"), (10, "C"), (14, "d"), (15, "Group")]


# the one module in functions/ that parses corpus pages into trees;
# every other operator reads the facts it needs from its facet table
CORPUS_PARSER = "facets.py"


def _parse_sites(path: str) -> list[tuple[int, str]]:
    """(line, how) for each reference to ``parse_html`` in one module:
    an import of the name, a bare name, or an attribute."""
    sites = []
    for node in ast.walk(ast.parse(open(path).read())):
        if isinstance(node, ast.ImportFrom):
            sites += [(node.lineno, "import") for a in node.names if a.name == "parse_html"]
        elif isinstance(node, ast.Name) and node.id == "parse_html":
            sites.append((node.lineno, "name"))
        elif isinstance(node, ast.Attribute) and node.attr == "parse_html":
            sites.append((node.lineno, "attribute"))
    return sorted(sites)


def test_only_the_facet_table_parses_the_corpus():
    found = [
        f"{os.path.relpath(path, PACKAGE_DIR)}:{line} {how}"
        for path in sorted(glob.glob(os.path.join(FUNCTIONS_DIR, "*.py")))
        if os.path.basename(path) != CORPUS_PARSER
        for line, how in _parse_sites(path)
    ]
    assert not found, (
        f"functions/ parses corpus pages only in {CORPUS_PARSER}; read its facet table:\n"
        + "\n".join(found)
    )


def test_parse_guard_sees_imports_names_and_attributes(tmp_path):
    p = tmp_path / "op.py"
    p.write_text(
        "from mlscraper_ray.htmlcore.dom import parse_html as parse\n"
        "from mlscraper_ray.htmlcore import dom\n"
        "def op(html):\n"
        "    return dom.parse_html(html)\n"
        "fn = parse_html\n"
        "parse_html_count = 0\n"
    )
    assert _parse_sites(str(p)) == [(1, "import"), (4, "attribute"), (5, "name")]


# one site per crawl-variant idiom: each crawl variant is a row of
# crawl_pipeline.CRAWL_VARIANTS, not a copy of the run or oracle code
PIPELINES_DIR = os.path.join(PACKAGE_DIR, "pipelines")


def _call_sites(path: str, name: str) -> list[tuple[int, str, bool]]:
    """(line, enclosing function, is a loop's iterable) for each call
    of ``name``, bare or as an attribute, in one module."""
    tree = ast.parse(open(path).read())
    loop_iters = {
        id(node.iter)
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
    }
    sites = []

    def visit(node: ast.AST, fn: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        ):
            sites.append((node.lineno, fn, id(node) in loop_iters))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, "<module>")
    return sorted(sites)


def test_one_site_per_crawl_variant_idiom():
    oracle = _call_sites(os.path.join(PIPELINES_DIR, "truth_oracles.py"), "oracle_crawl")
    crawler = _call_sites(os.path.join(PIPELINES_DIR, "crawl_pipeline.py"), "RayCrawler")
    edge_loops = [
        f"{os.path.relpath(path, PACKAGE_DIR)}:{line} {fn}"
        for path in sorted(glob.glob(os.path.join(PACKAGE_DIR, "**", "*.py"), recursive=True))
        for line, fn, in_loop in _call_sites(path, "page_links")
        if in_loop and fn != "_generator_graph"
    ]
    assert len(oracle) == 1, f"truth_oracles.py calls oracle_crawl only in _crawl_truth: {oracle}"
    assert len(crawler) == 1, f"crawl_pipeline.py builds RayCrawler only in run_crawl: {crawler}"
    assert not edge_loops, (
        "only truth_oracles._generator_graph loops over corpusgen.page_links:\n"
        + "\n".join(edge_loops)
    )


def test_call_guard_sees_names_attributes_and_loops(tmp_path):
    p = tmp_path / "oracles.py"
    p.write_text(
        "from mlscraper_ray.frontier.oracle import oracle_crawl\n"
        "def a(cfg):\n"
        "    return oracle_crawl(cfg)\n"
        "def b(cfg):\n"
        "    return [x for x in oracle_mod.oracle_crawl(cfg)]\n"
        "for t in corpusgen.page_links(spec, 0, 0):\n"
        "    pass\n"
        "n = len(page_links(spec, 0, 0))\n"
        "fn = oracle_crawl\n"
    )
    assert _call_sites(str(p), "oracle_crawl") == [(3, "a", False), (5, "b", True)]
    assert _call_sites(str(p), "page_links") == [(6, "<module>", True), (8, "<module>", False)]


# the one session gap rule and the one quantile_disc rule in functions/:
# (module, function) -> the idioms only it spells out
GAP, USER_SHIFT, CUM_SEARCH = (
    "Timedelta(minutes=...)",
    'groupby("user_id")...shift()',
    "searchsorted over a cumsum",
)
RULE_OWNERS = {
    ("bucketed.py", "quantiles_disc"): [CUM_SEARCH],
    ("streams.py", "_sessions"): [GAP, USER_SHIFT],
}


def _called(node: ast.AST) -> str | None:
    """The name a call calls, bare or as an attribute."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    return None


def _rule_sites(path: str) -> list[tuple[str, str]]:
    """(top-level function, idiom) for each spelled-out session gap or
    discrete-percentile rule in one module, in source order: a
    ``Timedelta(minutes=...)``, a ``.shift(`` on a ``groupby`` by
    ``"user_id"``, and a left-side ``searchsorted`` over a ``cumsum``
    (the call itself or a name bound to it)."""
    tree = ast.parse(open(path).read())
    cums = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (
                    zip(target.elts, node.value.elts)
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                    else [(target, node.value)]
                )
                cums |= {
                    t.id
                    for t, v in pairs
                    if isinstance(t, ast.Name) and any(_called(c) == "cumsum" for c in ast.walk(v))
                }

    def by_user(node: ast.AST) -> bool:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if _called(node) != "groupby" or not node.args:
            return False
        key = node.args[0]
        keys = key.elts if isinstance(key, (ast.List, ast.Tuple)) else [key]
        return any(isinstance(k, ast.Constant) and k.value == "user_id" for k in keys)

    def idiom(node: ast.Call) -> str | None:
        name = _called(node)
        if name == "Timedelta" and any(k.arg == "minutes" for k in node.keywords):
            return GAP
        if name == "shift" and isinstance(node.func, ast.Attribute) and by_user(node.func.value):
            return USER_SHIFT
        if name == "searchsorted" and node.args:
            over = node.args[0]
            right = any(
                k.arg == "side" and isinstance(k.value, ast.Constant) and k.value.value == "right"
                for k in node.keywords
            )
            if not right and (_called(over) == "cumsum" or getattr(over, "id", None) in cums):
                return CUM_SEARCH
        return None

    sites = []
    for top in tree.body:
        fn = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (what := idiom(node)):
                sites.append((node.lineno, node.col_offset, fn, what))
    return [(fn, what) for _, _, fn, what in sorted(sites)]


def test_one_session_rule_and_one_quantile_rule():
    found: dict[tuple[str, str], list[str]] = {}
    for path in sorted(glob.glob(os.path.join(FUNCTIONS_DIR, "*.py"))):
        for fn, what in _rule_sites(path):
            found.setdefault((os.path.basename(path), fn), []).append(what)
    assert found == RULE_OWNERS, (
        "sessions split only in streams._sessions, and quantile_disc reads a count "
        f"histogram only in bucketed.quantiles_disc: {found}"
    )


def test_rule_guard_sees_gaps_shifts_and_cumulative_searches(tmp_path):
    p = tmp_path / "op.py"
    p.write_text(
        "import numpy as np\n"
        "import pandas as pd\n"
        "def op(g, gap_minutes):\n"
        "    gap = pd.Timedelta(minutes=gap_minutes)\n"
        "    prev = g.groupby('user_id')['ts'].shift()\n"
        "    nxt = g.groupby(['user_id', 'sid']).event_type.shift(-1)\n"
        "    same = g.groupby('sid')['ts'].shift(), pd.Timedelta(hours=1)\n"
        "    return gap, prev, nxt, same\n"
        "def pct(vals, counts, q):\n"
        "    order, cum = np.argsort(vals), np.cumsum(counts)\n"
        "    ends = counts.cumsum()\n"
        "    a = vals[np.searchsorted(cum, q)], np.searchsorted(ends, q, side='right')\n"
        "    return a, np.searchsorted(np.cumsum(counts), q, side='left')\n"
        "gap = pd.Timedelta(minutes=30)\n"
    )
    assert _rule_sites(str(p)) == [
        ("op", GAP),
        ("op", USER_SHIFT),
        ("op", USER_SHIFT),
        ("pct", CUM_SEARCH),
        ("pct", CUM_SEARCH),
        ("<module>", GAP),
    ]


# the one integer Lloyd's and the one md5 rule in functions/:
# (module, function) -> the idioms only it spells out
INT_FOLD, INT_ARGMIN, SQL_NEAREST, MD5_LOW = (
    'floor-div fold of "vec_sum"',
    "argmin over _int_dist2",
    "rn = 1 over _int_dist2_sql",
    "int.from_bytes(...digest()[8:])",
)
KMEANS_OWNERS = {
    ("similarity.py", "_lloyd_int_fit"): [INT_FOLD],
    ("similarity.py", "_nearest"): [INT_ARGMIN],
    ("similarity.py", "_nearest_sql"): [SQL_NEAREST],
    ("tables.py", "md5_number_lower"): [MD5_LOW],
}


def _kmeans_sites(path: str) -> list[tuple[str, str]]:
    """(top-level function, idiom) for each spelled-out integer k-means
    or md5 rule in one module, in source order: a function that names
    a ``"vec_sum"`` column and floor-divides (one site, at the first
    name); an ``argmin`` over an ``_int_dist2(...)`` call or a name the
    function binds to one; a string holding ``rn = 1`` in a function
    that calls ``_int_dist2_sql``; and ``int.from_bytes`` over a slice
    of a ``.digest()`` call."""
    tree = ast.parse(open(path).read())
    sites = []
    for top in tree.body:
        fn = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
        nodes = list(ast.walk(top))
        calls = {_called(n) for n in nodes}
        dists = {
            t.id
            for n in nodes
            if isinstance(n, ast.Assign) and _called(n.value) == "_int_dist2"
            for t in n.targets
            if isinstance(t, ast.Name)
        }
        vec_sums = [n for n in nodes if isinstance(n, ast.Constant) and n.value == "vec_sum"]
        if vec_sums and any(isinstance(n, ast.FloorDiv) for n in nodes):
            sites.append((vec_sums[0].lineno, vec_sums[0].col_offset, fn, INT_FOLD))
        for n in nodes:
            what = None
            if _called(n) == "argmin" and n.args:
                over = n.args[0]
                if _called(over) == "_int_dist2" or getattr(over, "id", None) in dists:
                    what = INT_ARGMIN
            elif (
                isinstance(n, ast.Constant)
                and isinstance(n.value, str)
                and "rn = 1" in n.value
                and "_int_dist2_sql" in calls
            ):
                what = SQL_NEAREST
            elif _called(n) == "from_bytes" and n.args and isinstance(n.args[0], ast.Subscript):
                if _called(n.args[0].value) == "digest":
                    what = MD5_LOW
            if what:
                sites.append((n.lineno, n.col_offset, fn, what))
    return [(fn, what) for _, _, fn, what in sorted(sites)]


def test_one_integer_lloyd_and_one_md5_rule():
    found: dict[tuple[str, str], list[str]] = {}
    for path in sorted(glob.glob(os.path.join(FUNCTIONS_DIR, "*.py"))):
        for fn, what in _kmeans_sites(path):
            found.setdefault((os.path.basename(path), fn), []).append(what)
    assert found == KMEANS_OWNERS, (
        "integer k-means folds only in similarity._lloyd_int_fit, assigns only in "
        "similarity._nearest / _nearest_sql, and md5 low-64 is spelled only in "
        f"tables.md5_number_lower: {found}"
    )


def test_kmeans_guard_sees_folds_argmins_sql_and_md5(tmp_path):
    p = tmp_path / "op.py"
    p.write_text(
        "import hashlib\n"
        "import numpy as np\n"
        "def fit(parts, cents):\n"
        "    for c, g in parts.groupby('cluster'):\n"
        "        cents[c] = np.sum(g['vec_sum']) // g['count'].sum()\n"
        "def assign(x, cents):\n"
        "    d2 = _int_dist2(x, cents)\n"
        "    return np.argmin(d2, axis=1), np.argmin(_int_dist2(x, cents), axis=1)\n"
        "def oracle():\n"
        "    d = _int_dist2_sql('q.v', 'c.v')\n"
        "    return f'SELECT * FROM (SELECT ROW_NUMBER() OVER (ORDER BY {d}) AS rn) WHERE rn = 1'\n"
        "def low(s):\n"
        "    return int.from_bytes(\n"
        "        hashlib.md5(s.encode()).digest()[8:], 'little'\n"
        "    )\n"
        "def float_fit(parts, x, c):\n"
        "    d2 = ((x - c) ** 2).sum(2)\n"
        "    return np.argmin(d2), parts['vec_sum'].sum() / parts['count'].sum()\n"
        "def top1():\n"
        "    return 'SELECT * FROM t WHERE rn = 1', hashlib.md5(b'x').hexdigest()[8:]\n"
    )
    assert _kmeans_sites(str(p)) == [
        ("fit", INT_FOLD),
        ("assign", INT_ARGMIN),
        ("assign", INT_ARGMIN),
        ("oracle", SQL_NEAREST),
        ("low", MD5_LOW),
    ]


# one tag grammar: htmlcore/dom.py holds the tag tokenizer, the
# attribute regex and the attribute decoding; the tree builder and the
# scanner (scrape/scan.py) both run them
GRAMMAR_MODULE = os.path.join("htmlcore", "dom.py")
SCANNER_MODULE = os.path.join("scrape", "scan.py")
GRAMMAR_REGEXES = ("_TOKEN_RE", "_ATTR_RE")
DECODING_NAMES = ("_ATTR_RE", "_MULTI_VALUED")


def _grammar_sites(path: str) -> list[tuple[int, str]]:
    """(line, what) in one module for each assignment of a grammar regex
    name and each attribute-decoding idiom: ``_ATTR_RE`` or
    ``_MULTI_VALUED`` read or imported, or a loop over a
    ``findall``/``finditer`` call."""
    sites = []
    for node in ast.walk(ast.parse(open(path).read())):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            targets = []
        sites += [
            (node.lineno, f"assigns {t.id}")
            for t in targets
            if isinstance(t, ast.Name) and t.id in GRAMMAR_REGEXES
        ]
        if isinstance(node, (ast.For, ast.comprehension)):
            it = node.iter
            if isinstance(it, ast.Call) and getattr(it.func, "attr", None) in ("findall", "finditer"):
                sites.append((it.lineno, "decoding loop"))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in DECODING_NAMES:
            sites.append((node.lineno, f"reads {node.id}"))
        elif isinstance(node, ast.ImportFrom):
            sites += [(node.lineno, f"imports {a.name}") for a in node.names if a.name in DECODING_NAMES]
    return sorted(sites)


def test_one_tag_grammar():
    assigned = []
    for path in sorted(glob.glob(os.path.join(PACKAGE_DIR, "**", "*.py"), recursive=True)):
        rel = os.path.relpath(path, PACKAGE_DIR)
        if rel != GRAMMAR_MODULE:
            assigned += [f"{rel}:{line} {what}" for line, what in _grammar_sites(path) if what.startswith("assigns")]
    assert not assigned, f"the tag grammar's regexes live in {GRAMMAR_MODULE}:\n" + "\n".join(assigned)
    own = [f"{line} {what}" for line, what in _grammar_sites(os.path.join(PACKAGE_DIR, SCANNER_MODULE))]
    assert not own, f"{SCANNER_MODULE} decodes start tags through dom.decode_start_tag:\n" + "\n".join(own)
    in_dom = {what for _, what in _grammar_sites(os.path.join(PACKAGE_DIR, GRAMMAR_MODULE))}
    assert {"assigns _TOKEN_RE", "assigns _ATTR_RE", "decoding loop"} <= in_dom


def test_grammar_guard_sees_assignments_reads_and_loops(tmp_path):
    p = tmp_path / "scan.py"
    p.write_text(
        "import re\n"
        "from mlscraper_ray.htmlcore.dom import _MULTI_VALUED, VOID_ELEMENTS\n"
        "_TOKEN_RE = re.compile('<')\n"
        "_ATTR_RE: re.Pattern = re.compile('a')\n"
        "def decode(raw):\n"
        "    for m in re.finditer('x', raw):\n"
        "        pass\n"
        "    multi = _MULTI_VALUED.get('class')\n"
        "    return [k for k, v in _ATTR_RE.findall(raw)], VOID_ELEMENTS, multi\n"
        "_WORD_RE = re.compile('w')\n"
        "TOKENS = re.findall('y', 'z')\n"
    )
    assert _grammar_sites(str(p)) == [
        (2, "imports _MULTI_VALUED"),
        (3, "assigns _TOKEN_RE"),
        (4, "assigns _ATTR_RE"),
        (6, "decoding loop"),
        (8, "reads _MULTI_VALUED"),
        (9, "decoding loop"),
        (9, "reads _ATTR_RE"),
    ]
