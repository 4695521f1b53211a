"""Solr streaming expressions compiled to Ray Data pipelines.

Solr's ``/stream`` handler evaluates composable stream expressions —
``search`` sources decorated by ``select`` / ``sort`` / ``top`` /
``unique`` / ``rollup`` / ``innerJoin`` / ... — over exported result
sets.  The reference exposes whatever the Solr server supports by
passing requests through (``/root/reference/solrindexer/search.py:
211-237`` issues raw GETs against any handler); this module implements
the core expression set natively, and the compilation target is the
idiomatic one for this engine: a lazy ``ray.data.Dataset`` pipeline —
sources stream the docs table under a broadcast match mask, decorators
become ``map_batches`` / ``sort`` / ``groupby().aggregate`` /
``Dataset.join`` stages, and the streaming executor schedules the whole
tree with backpressure.

Supported expressions (Solr semantics; deviations documented inline):

    search(COLL, q="...", fl="a,b,score", [sort="f asc,g desc"],
           [rows=N], [fq="..."])
    select(stream, "f1", "f2 as g2", ...)
    sort(stream, by="f asc, g desc")
    top(stream, n=N, sort="f desc")
    unique(stream, over="f")              # keeps the min-doc_id row
    rollup(stream, over="f", sum(a), min(a), max(a), avg(a), count(*))
    innerJoin(left, right, on="k" | on="lk=rk")
    leftOuterJoin(left, right, on=...)
    hashJoin(left, hashed=right, on=...)  # alias of innerJoin here
    merge(left, right, on="f asc")

``COLL`` is a logical collection name resolved through the compiler's
``collections`` map (Solr collection -> index dir).  ``unique`` keeps
the row with the smallest ``doc_id`` per key (Solr keeps the first in
stream order; ours is pinned to a deterministic rule so a SQL oracle
can reproduce it — requires ``doc_id`` in ``fl``).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from solr_indexer_ray.state.manifest import BuildManifest

__all__ = ["parse_stream_expr", "compile_stream_expr", "StreamExprError"]


class StreamExprError(ValueError):
    pass


_TOKEN = re.compile(
    r"\s*(?:(?P<str>\"(?:[^\"\\]|\\.)*\")"
    r"|(?P<num>-?\d+\.?\d*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_.]*|\*)"
    r"|(?P<punct>[(),=]))"
)


class Node:
    """One parsed expression: name, positional args (Node | str | float),
    keyword args (str -> str | float | Node)."""

    __slots__ = ("name", "args", "kwargs")

    def __init__(self, name, args, kwargs):
        self.name = name
        self.args = args
        self.kwargs = kwargs

    def __repr__(self):  # pragma: no cover - debug aid
        parts = [repr(a) for a in self.args]
        parts += [f"{k}={v!r}" for k, v in self.kwargs.items()]
        return f"{self.name}({', '.join(parts)})"


def _tokenize(s: str) -> list:
    out, pos = [], 0
    while pos < len(s):
        if s[pos:].strip() == "":
            break
        m = _TOKEN.match(s, pos)
        if m is None:
            raise StreamExprError(
                f"bad stream-expression syntax at {s[pos:pos + 16]!r}"
            )
        pos = m.end()
        if m.group("str") is not None:
            out.append(("str", m.group("str")[1:-1].replace('\\"', '"')))
        elif m.group("num") is not None:
            out.append(("num", float(m.group("num"))))
        elif m.group("ident") is not None:
            out.append(("ident", m.group("ident")))
        else:
            out.append(("punct", m.group("punct")))
    return out


def parse_stream_expr(s: str) -> Node:
    toks = _tokenize(s)
    pos = 0

    def peek(off=0):
        i = pos + off
        return toks[i] if i < len(toks) else (None, None)

    def parse_value():
        nonlocal pos
        kind, val = peek()
        if kind in ("str", "num"):
            pos += 1
            return val
        if kind == "ident":
            if peek(1) == ("punct", "("):
                return parse_call()
            pos += 1
            return val
        raise StreamExprError(f"expected a value, got {val!r}")

    def parse_call():
        nonlocal pos
        kind, name = peek()
        if kind != "ident" or peek(1) != ("punct", "("):
            raise StreamExprError("expected expression call")
        pos += 2
        args, kwargs = [], {}
        if peek() != ("punct", ")"):
            while True:
                kind, val = peek()
                if (kind == "ident" and peek(1) == ("punct", "=")):
                    pos += 2
                    kwargs[val] = parse_value()
                else:
                    args.append(parse_value())
                if peek() == ("punct", ","):
                    pos += 1
                    continue
                break
        if peek() != ("punct", ")"):
            raise StreamExprError(f"expected ')' in {name}(...)")
        pos += 1
        return Node(name, args, kwargs)

    node = parse_call()
    if pos != len(toks):
        raise StreamExprError(f"trailing input in stream expression {s!r}")
    return node


# --------------------------------------------------------------------- #
# compilation
# --------------------------------------------------------------------- #
def _parse_sort(spec: str):
    keys, desc = [], []
    for part in str(spec).split(","):
        toks = part.split()
        if not toks:
            continue
        keys.append(toks[0])
        order = toks[1].lower() if len(toks) > 1 else "asc"
        if order not in ("asc", "desc"):
            raise StreamExprError(f"bad sort direction in {spec!r}")
        desc.append(order == "desc")
    if not keys:
        raise StreamExprError(f"empty sort spec {spec!r}")
    return keys, desc


def _need(node: Node, key: str):
    if key not in node.kwargs:
        raise StreamExprError(f"{node.name}() requires {key}=")
    return node.kwargs[key]


class StreamCompiler:
    """Compile a parsed stream expression into a lazy Ray Dataset."""

    def __init__(self, collections, num_partitions: int = 8):
        #: collection name -> index dir (or a single dir for any name)
        self.collections = collections
        self.num_partitions = num_partitions

    def _index_dir(self, coll) -> str:
        if isinstance(self.collections, str):
            return self.collections
        try:
            return self.collections[coll]
        except KeyError:
            raise StreamExprError(f"unknown collection {coll!r}") from None

    def compile(self, node) -> "ray.data.Dataset":  # noqa: F821
        if isinstance(node, str):
            node = parse_stream_expr(node)
        fn = getattr(self, f"_c_{node.name}", None)
        if fn is None:
            raise StreamExprError(
                f"unsupported stream expression {node.name!r}"
            )
        return fn(node)

    # -- source -------------------------------------------------------- #
    def _c_search(self, node: Node):
        import ray
        import ray.data as rd

        from solr_indexer_ray.pipelines.search import SearchEngine

        if not node.args:
            raise StreamExprError("search() requires a collection")
        engine = SearchEngine(self._index_dir(node.args[0]))
        q = _need(node, "q")
        fl = [f.strip() for f in str(_need(node, "fl")).split(",") if f]
        rows = node.kwargs.get("rows")
        fq = node.kwargs.get("fq")
        stored = [f for f in fl if f != "score"]
        if rows is not None:
            # a bounded export is the ranked top rows
            t = engine.search(q, k=int(rows), fl=stored or ["doc_id"], fq=fq)
            ds = rd.from_arrow(t.select(fl))
        else:
            # a full export STREAMS the docs table under a broadcast
            # match mask (the /export handler shape); a scored one also
            # broadcasts the dense score array (8 B/doc-slot, the same
            # class as the mask) and each docs block attaches its slice
            mask = np.zeros(engine.doc_space, dtype=bool)
            dense = None
            if "score" in fl:
                ids, scores = engine._match(engine._prepare(q), fq)
                dense = np.zeros(engine.doc_space)
                dense[ids] = scores
            else:
                ids = engine._filtered_match_ids(q, fq)
            mask[ids] = True
            ref = ray.put((mask, dense))
            out = fl or ["doc_id"]

            def keep(batch: pa.Table) -> pa.Table:
                m, s = ray.get(ref)
                t = batch.filter(pa.array(m[batch["doc_id"].to_numpy()]))
                if s is not None:
                    t = t.append_column("score", pa.array(
                        s[t["doc_id"].to_numpy()], pa.float64()))
                return t.select(out)

            ds = rd.read_parquet(
                BuildManifest(engine.index_dir).committed_paths(
                    "docs", engine.stats),
                columns=sorted({*stored, "doc_id"}),
            ).map_batches(keep, batch_format="pyarrow")
        if "sort" in node.kwargs:
            keys, desc = _parse_sort(node.kwargs["sort"])
            ds = ds.sort(keys, descending=desc)
        return ds

    # -- decorators ------------------------------------------------------ #
    def _c_select(self, node: Node):
        if not node.args:
            raise StreamExprError("select() requires a stream")
        ds = self.compile(node.args[0])
        fields = []
        for a in node.args[1:]:
            if not isinstance(a, str):
                raise StreamExprError("select() fields must be strings")
            m = re.match(r"^\s*(\S+)(?:\s+as\s+(\S+))?\s*$", a)
            if m is None:
                raise StreamExprError(f"bad select field {a!r}")
            fields.append((m.group(1), m.group(2) or m.group(1)))

        def project(batch: pa.Table) -> pa.Table:
            return pa.table({dst: batch[src] for src, dst in fields})

        return ds.map_batches(project, batch_format="pyarrow")

    def _c_sort(self, node: Node):
        ds = self.compile(node.args[0])
        keys, desc = _parse_sort(_need(node, "by"))
        return ds.sort(keys, descending=desc)

    def _c_top(self, node: Node):
        ds = self.compile(node.args[0])
        keys, desc = _parse_sort(_need(node, "sort"))
        n = int(_need(node, "n"))
        return ds.sort(keys, descending=desc).limit(n)

    def _c_unique(self, node: Node):
        ds = self.compile(node.args[0])
        over = str(_need(node, "over"))

        def first_row(group: pa.Table) -> pa.Table:
            order = np.argsort(group["doc_id"].to_numpy(),
                               kind="stable")
            return group.take(order[:1])

        return ds.groupby(over).map_groups(
            first_row, batch_format="pyarrow"
        )

    def _c_rollup(self, node: Node):
        from ray.data.aggregate import Count, Max, Mean, Min, Sum

        ds = self.compile(node.args[0])
        over = str(_need(node, "over"))
        aggs = []
        for a in node.args[1:]:
            if not isinstance(a, Node) or len(a.args) != 1:
                raise StreamExprError(
                    "rollup() metrics look like sum(field) / count(*)"
                )
            fld = a.args[0]
            alias = f"{a.name}({fld})"
            if a.name == "count":
                aggs.append(Count(alias_name=alias))
            elif a.name == "sum":
                aggs.append(Sum(str(fld), alias_name=alias))
            elif a.name == "min":
                aggs.append(Min(str(fld), alias_name=alias))
            elif a.name == "max":
                aggs.append(Max(str(fld), alias_name=alias))
            elif a.name == "avg":
                aggs.append(Mean(str(fld), alias_name=alias))
            else:
                raise StreamExprError(
                    f"unsupported rollup metric {a.name!r}"
                )
        if not aggs:
            raise StreamExprError("rollup() requires at least one metric")
        return ds.groupby(over).aggregate(*aggs)

    def _join(self, node: Node, how: str):
        if len(node.args) == 2:
            left, right = node.args
        elif len(node.args) == 1 and "hashed" in node.kwargs:
            left, right = node.args[0], node.kwargs["hashed"]
        else:
            raise StreamExprError(f"{node.name}() requires two streams")
        on = str(_need(node, "on"))
        if "=" in on:
            lk, rk = (x.strip() for x in on.split("=", 1))
        else:
            lk = rk = on.strip()
        lds = self.compile(left)
        rds = self.compile(right)
        return lds.join(
            rds, join_type=how, num_partitions=self.num_partitions,
            on=(lk,), right_on=(rk,), right_suffix="_r",
        )

    def _c_innerJoin(self, node: Node):
        return self._join(node, "inner")

    def _c_hashJoin(self, node: Node):
        return self._join(node, "inner")

    def _c_leftOuterJoin(self, node: Node):
        return self._join(node, "left_outer")

    def _c_intersect(self, node: Node):
        return self._set_op(node, keep_matching=True)

    def _c_complement(self, node: Node):
        return self._set_op(node, keep_matching=False)

    def _set_op(self, node: Node, keep_matching: bool):
        """Solr intersect()/complement(): left rows whose key does /
        does not appear in the right stream.  The right side reduces to
        its DISTINCT key set (bounded by key cardinality) and broadcasts
        — a map-side semi/anti join, no shuffle."""
        import ray

        if len(node.args) != 2:
            raise StreamExprError(f"{node.name}() requires two streams")
        on = str(_need(node, "on"))
        if "=" in on:
            lk, rk = (x.strip() for x in on.split("=", 1))
        else:
            lk = rk = on.strip()
        lds = self.compile(node.args[0])
        rds = self.compile(node.args[1])
        keys = set()
        for batch in rds.select_columns([rk]).iter_batches(
            batch_format="pyarrow"
        ):
            keys.update(batch[rk].to_pylist())
        ref = ray.put(keys)

        def flt(batch: pa.Table) -> pa.Table:
            ks = ray.get(ref)
            hit = np.array(
                [v in ks for v in batch[lk].to_pylist()], dtype=bool
            )
            return batch.filter(pa.array(hit if keep_matching else ~hit))

        return lds.map_batches(flt, batch_format="pyarrow")

    def _c_fetch(self, node: Node):
        """Solr fetch(): enrich stream rows with stored fields looked up
        from a collection by key — a left-outer Dataset.join against the
        pruned docs table."""
        import ray.data as rd

        if len(node.args) != 2:
            raise StreamExprError(
                "fetch() requires (stream, collection)"
            )
        ds = self.compile(node.args[0])
        index_dir = self._index_dir(node.args[1])
        on = str(node.kwargs.get("on", "doc_id"))
        fl = [f.strip() for f in str(_need(node, "fl")).split(",") if f]
        docs = rd.read_parquet(
            BuildManifest(index_dir).committed_paths("docs"),
            columns=sorted({on, *fl}),
        )
        return ds.join(
            docs, join_type="left_outer",
            num_partitions=self.num_partitions,
            on=(on,), right_on=(on,), right_suffix="_r",
        )

    def _c_stats(self, node: Node):
        """Solr stats() stream: one tuple of scalar aggregates over a
        query's match set."""
        from ray.data.aggregate import Count, Max, Mean, Min, Sum

        if not node.args:
            raise StreamExprError("stats() requires a collection")
        metrics = [a for a in node.args[1:] if isinstance(a, Node)]
        if not metrics:
            raise StreamExprError("stats() requires at least one metric")
        fields = sorted({str(m.args[0]) for m in metrics
                         if m.args and m.args[0] != "*"})
        src = Node("search", [node.args[0]], {
            "q": _need(node, "q"),
            "fl": ",".join(["doc_id", *fields]),
        })
        ds = self._c_search(src)
        aggs = []
        for m in metrics:
            if len(m.args) != 1:
                raise StreamExprError(
                    "stats() metrics look like sum(field) / count(*)"
                )
            fld = m.args[0]
            alias = f"{m.name}({fld})"
            if m.name == "count":
                aggs.append(Count(alias_name=alias))
            elif m.name == "sum":
                aggs.append(Sum(str(fld), alias_name=alias))
            elif m.name == "min":
                aggs.append(Min(str(fld), alias_name=alias))
            elif m.name == "max":
                aggs.append(Max(str(fld), alias_name=alias))
            elif m.name == "avg":
                aggs.append(Mean(str(fld), alias_name=alias))
            else:
                raise StreamExprError(
                    f"unsupported stats metric {m.name!r}"
                )
        import ray.data as rd

        row = ds.aggregate(*aggs)
        return rd.from_items([row])

    def _c_nodes(self, node: Node):
        """Solr graph traversal (``nodes()`` / gatherNodes): one hop —
        collect the incoming stream's walk-source values, find docs in
        the collection whose walk-target field matches (a broadcast
        semi-join over the streamed docs table), and emit one row per
        distinct gathered value with its doc count.  Multi-hop = nested
        nodes() expressions."""
        import ray
        import ray.data as rd
        from ray.data.aggregate import Count

        if len(node.args) != 2:
            raise StreamExprError(
                "nodes() requires (collection, stream)"
            )
        index_dir = self._index_dir(node.args[0])
        walk = str(_need(node, "walk"))
        if "->" not in walk:
            raise StreamExprError('nodes() walk looks like "src->dst"')
        src, dst = (x.strip() for x in walk.split("->", 1))
        gather = str(_need(node, "gather"))
        in_ds = self.compile(node.args[1])
        vals = set()
        for batch in in_ds.select_columns([src]).iter_batches(
            batch_format="pyarrow"
        ):
            vals.update(v for v in batch[src].to_pylist()
                        if v is not None)
        ref = ray.put(vals)

        def hop(batch: pa.Table) -> pa.Table:
            vs = ray.get(ref)
            hit = np.array(
                [v in vs for v in batch[dst].to_pylist()], dtype=bool
            )
            t = batch.filter(pa.array(hit))
            return pa.table({"node": t[gather]})

        docs = rd.read_parquet(
            BuildManifest(index_dir).committed_paths("docs"),
            columns=sorted({dst, gather}),
        )
        out = docs.map_batches(hop, batch_format="pyarrow")
        return out.groupby("node").aggregate(Count(alias_name="count(*)"))

    def _c_timeseries(self, node: Node):
        """Solr timeseries() stream: DateMath-gap buckets (fixed +NDAYS
        or calendar +NMONTHS/+NYEARS) of a query's match set over a
        timestamp field (count per bucket; compose rollup() over a
        search export for per-bucket metrics)."""
        import ray.data as rd

        from solr_indexer_ray.pipelines.search import SearchEngine

        if not node.args:
            raise StreamExprError("timeseries() requires a collection")
        engine = SearchEngine(self._index_dir(node.args[0]))
        out = engine.range_facet(
            str(_need(node, "q")), str(_need(node, "field")),
            _need(node, "start"), _need(node, "end"),
            _need(node, "gap"),
        )
        return rd.from_items(
            [{"bucket": b, "count(*)": int(c)}
             for b, c in out["buckets"]]
        )

    def _c_facet(self, node: Node):
        """Solr facet() stream: grouped aggregates over a query's match
        set, ordered by a bucket sort, limited — rollup + top in one
        expression (runs as groupby().aggregate -> sort -> limit)."""
        if not node.args:
            raise StreamExprError("facet() requires a collection")
        buckets = str(_need(node, "buckets"))
        metrics = [a for a in node.args[1:] if isinstance(a, Node)]
        if not metrics:
            raise StreamExprError("facet() requires at least one metric")
        fields = sorted({str(m.args[0]) for m in metrics
                         if m.args and m.args[0] != "*"})
        rollup = Node("rollup", [
            Node("search", [node.args[0]], {
                "q": _need(node, "q"),
                "fl": ",".join(["doc_id", buckets, *fields]),
            }),
            *metrics,
        ], {"over": buckets})
        ds = self._c_rollup(rollup)
        sort_spec = node.kwargs.get("bucketSorts",
                                    f"{metrics[0].name}({metrics[0].args[0]}) desc")
        keys, desc = _parse_sort(sort_spec)
        ds = ds.sort(keys, descending=desc)
        limit = node.kwargs.get("bucketSizeLimit")
        if limit is not None:
            ds = ds.limit(int(limit))
        return ds

    def _c_significantTerms(self, node: Node):
        """Solr significantTerms() stream: the engine's JLH
        foreground-vs-background component as a stream source."""
        import ray.data as rd

        from solr_indexer_ray.pipelines.search import SearchEngine

        if not node.args:
            raise StreamExprError(
                "significantTerms() requires a collection"
            )
        engine = SearchEngine(self._index_dir(node.args[0]))
        t = engine.significant_terms(
            str(_need(node, "q")),
            limit=int(node.kwargs.get("limit", 10)),
            min_doc_freq=int(node.kwargs.get("minDocFreq", 5)),
            max_doc_freq=float(node.kwargs.get("maxDocFreq", 0.5)),
        )
        return rd.from_arrow(t)

    def _c_merge(self, node: Node):
        if len(node.args) < 2:
            raise StreamExprError("merge() requires two streams")
        ds = self.compile(node.args[0])
        for sub in node.args[1:]:
            ds = ds.union(self.compile(sub))
        keys, desc = _parse_sort(_need(node, "on"))
        return ds.sort(keys, descending=desc)


def compile_stream_expr(expr: str, collections,
                        num_partitions: int = 8):
    """Parse + compile a Solr streaming expression into a lazy Ray
    Dataset.  ``collections`` maps collection names to index dirs (a
    bare string serves every name)."""
    return StreamCompiler(collections, num_partitions).compile(
        parse_stream_expr(expr)
    )
