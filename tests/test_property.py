"""Property-based tests (hypothesis): codec roundtrips hold for arbitrary
inputs; the query parser and engine never crash on arbitrary query
strings (ValueError for documented invalid forms is the only allowed
exception)."""

import numpy as np
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.functions.queryparse import parse_query
from solr_indexer_ray.functions.smallfloat import (
    byte4_to_int,
    int_to_byte4,
)
from solr_indexer_ray.functions.varint import (
    decode_doc_ids,
    decode_positions,
    delta_decode,
    delta_encode,
    encode_doc_ids,
    encode_positions,
    varint_decode,
    varint_encode,
)
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.search import SearchEngine
from solr_indexer_ray.sources.corpus import generate_corpus

_SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestCodecProperties:
    @_SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=200))
    def test_varint_roundtrip(self, vals):
        arr = np.asarray(vals, dtype=np.uint64)
        assert np.array_equal(varint_decode(varint_encode(arr)), arr)

    @_SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1,
                    max_size=200, unique=True))
    def test_doc_id_roundtrip(self, vals):
        ids = np.sort(np.asarray(vals, dtype=np.int64))
        assert np.array_equal(decode_doc_ids(encode_doc_ids(ids)), ids)

    @_SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=2**31 - 1),
                    max_size=100))
    def test_delta_roundtrip(self, vals):
        v = np.sort(np.unique(np.asarray(vals, dtype=np.int64)))
        assert np.array_equal(delta_decode(delta_encode(v)), v)

    @_SETTINGS
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=100_000),
                     min_size=1, max_size=12, unique=True),
            min_size=1, max_size=40,
        )
    )
    def test_positions_roundtrip(self, segments):
        segs = [np.sort(np.asarray(s, dtype=np.int64)) for s in segments]
        counts = np.array([len(s) for s in segs], dtype=np.int64)
        flat = np.concatenate(segs)
        back, offs = decode_positions(encode_positions(counts, flat), counts)
        assert np.array_equal(back, flat)
        assert np.array_equal(offs, np.concatenate(([0], np.cumsum(counts))))

    @_SETTINGS
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_smallfloat_monotone_lossy(self, n):
        q = byte4_to_int(int_to_byte4(n))
        assert 0 <= q <= n  # quantization never exceeds the true length
        # idempotent
        assert byte4_to_int(int_to_byte4(q)) == q


def _analyze(s):
    return [t for t in s.lower().split() if t]


class TestParserProperties:
    @_SETTINGS
    @given(st.text(max_size=80))
    def test_parse_never_crashes(self, q):
        try:
            p = parse_query(q, _analyze)
        except ValueError:
            return  # documented: unsupported range field / bad bound
        assert isinstance(p.terms, list)

    @_SETTINGS
    @given(st.text(alphabet="abcdef \"*^:-[]{}TO0123456789.", max_size=60))
    def test_parse_grammar_chars(self, q):
        try:
            parse_query(q, _analyze)
        except ValueError:
            pass


@pytest.fixture(scope="module")
def prop_index(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("propidx")
    corpus = generate_corpus(60, seed=13, mean_tokens=20)
    pq.write_table(corpus, str(d / "c.parquet"), row_group_size=32)
    build_index(str(d / "c.parquet"), str(d / "idx"),
                config=IndexConfig(docs_per_range=64,
                                   store_positions=True))
    return str(d / "idx")


class TestEngineRobustness:
    @_SETTINGS
    @given(st.text(alphabet="abcdefparse redmg \"*^:-[]{}TO019.", max_size=50))
    def test_search_never_crashes(self, prop_index, q):
        eng = SearchEngine(prop_index)
        try:
            t = eng.search(q, k=5, fl=["doc_id"])
        except ValueError:
            return
        assert t.num_rows <= 5


class TestStreamExprProperties:
    """Stream-expression parser: structured inputs round-trip, arbitrary
    inputs either parse or raise StreamExprError — never anything else."""

    @given(st.text(max_size=80))
    @settings(max_examples=150,
              suppress_health_check=[HealthCheck.filter_too_much])
    def test_parse_never_crashes(self, q):
        from solr_indexer_ray.pipelines.streaming import (
            StreamExprError,
            parse_stream_expr,
        )

        try:
            parse_stream_expr(q)
        except StreamExprError:
            pass

    @given(
        st.recursive(
            st.tuples(
                st.sampled_from(["search", "sort", "top"]),
                st.text(alphabet="abcdef ,*", max_size=12),
            ),
            lambda kids: st.tuples(
                st.sampled_from(["select", "unique", "rollup"]), kids
            ),
            max_leaves=4,
        )
    )
    @settings(max_examples=80)
    def test_structured_roundtrip(self, tree):
        from solr_indexer_ray.pipelines.streaming import parse_stream_expr

        def render(node):
            if isinstance(node[1], str):
                esc = node[1].replace('"', '\\"')
                return f'{node[0]}(coll, q="{esc}", fl="doc_id")'
            return f'{node[0]}({render(node[1])}, over="x")'

        expr = render(tree)
        parsed = parse_stream_expr(expr)
        assert parsed.name == tree[0]

    @given(st.text(alphabet='{}!=abcdef ', max_size=40))
    @settings(max_examples=150)
    def test_directive_regexes_never_crash(self, q):
        """The local-params directives (collapse/join/geo/blockjoin)
        reject garbage with ValueError, never anything else."""
        from solr_indexer_ray.pipelines.search import (
            _extract_collapse_fq,
        )

        try:
            _extract_collapse_fq([q])
        except ValueError:
            pass


class TestFuzzyScanProperty:
    """Sorted-trie automaton walk == brute-force banded DP for arbitrary
    unicode vocabularies and caps."""

    @staticmethod
    def _lev(a, b):
        prev = list(range(len(b) + 1))
        for i in range(1, len(a) + 1):
            cur = [i] + [0] * len(b)
            for j in range(1, len(b) + 1):
                cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                             prev[j - 1] + (a[i - 1] != b[j - 1]))
            prev = cur
        return prev[len(b)]

    @given(
        st.lists(st.text(alphabet="abé\U0001F600", min_size=1,
                         max_size=5), min_size=0, max_size=40),
        st.text(alphabet="abé\U0001F600", min_size=1, max_size=5),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_vs_bruteforce(self, vocab, word, cap):
        from solr_indexer_ray.pipelines.search import _fuzzy_scan

        vocab = sorted(set(vocab))
        got = set(_fuzzy_scan(word, vocab, cap))
        exp = {(i, self._lev(word, t)) for i, t in enumerate(vocab)
               if self._lev(word, t) <= cap}
        assert got == exp


class TestSqlParserProperty:
    """Generated valid statements parse back to their components; junk
    raises SqlError, never an unexpected exception type."""

    idents = st.text(alphabet="abcdefgz_", min_size=1, max_size=8)

    @given(
        st.lists(idents, min_size=1, max_size=3, unique=True),
        idents,
        st.integers(min_value=0, max_value=999),
        st.integers(min_value=0, max_value=99),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, cols, coll, lim, off, distinct):
        from solr_indexer_ray.pipelines.sql import parse_sql

        kw = {"select", "distinct", "from", "where", "group", "by",
              "having", "order", "limit", "offset", "as", "and", "or",
              "in", "between", "asc", "desc"} | set(
                  ("count", "sum", "min", "max", "avg"))
        cols = [c for c in cols if c.lower() not in kw]
        coll = coll if coll.lower() not in kw else coll + "x"
        if not cols:
            return
        sel = ("DISTINCT " if distinct else "") + ", ".join(cols)
        sql = (f"SELECT {sel} FROM {coll} "
               f"ORDER BY {cols[0]} DESC LIMIT {lim} OFFSET {off}")
        s = parse_sql(sql)
        assert [it.out_name for it in s.items] == cols
        assert s.collection == coll
        assert s.distinct is distinct
        assert s.limit == lim and s.offset == off
        assert s.order_by == [(cols[0], False)]

    @given(st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_junk_never_crashes(self, junk):
        from solr_indexer_ray.pipelines.sql import SqlError, parse_sql

        try:
            parse_sql(junk)
        except SqlError:
            pass


class TestCollapseCodesProperty:
    """_collapse_codes (the numpy core under collapse/group fast paths)
    vs a pandas reference for random score/code distributions."""

    @given(
        st.integers(min_value=1, max_value=60),   # n rows
        st.integers(min_value=1, max_value=5),    # n groups
        st.integers(min_value=1, max_value=8),    # k heads
        st.integers(min_value=0, max_value=3),    # expand_limit
        st.sampled_from(["ignore", "expand", "collapse"]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_vs_pandas(self, n, ng, k, expand, policy, rng):
        import pandas as pd

        from solr_indexer_ray.pipelines.search import _collapse_codes

        doc_ids = np.arange(n, dtype=np.int64)
        rng.shuffle(doc_ids)
        scores = np.array([round(rng.random(), 2) for _ in range(n)])
        codes = np.array(
            [rng.randrange(-1, ng) for _ in range(n)], dtype=np.int64
        )
        labels = [f"g{i}" for i in range(ng)]
        got = _collapse_codes(
            doc_ids.copy(), scores.copy(), codes.copy(), labels,
            k, policy, expand, None,
        ).to_pylist()

        # reference: pandas rank-order + per-group head selection
        df = pd.DataFrame(
            {"doc_id": doc_ids, "score": scores, "code": codes}
        )
        if policy == "ignore":
            df = df[df.code >= 0]
        elif policy == "expand":
            nulls = df.code < 0
            df.loc[nulls, "code"] = ng + np.arange(int(nulls.sum()))
        else:
            df.loc[df.code < 0, "code"] = ng
        if df.empty:
            assert got == []
            return
        df = df.sort_values(["score", "doc_id"],
                            ascending=[False, True], kind="mergesort")
        df["position"] = df.groupby("code", sort=False).cumcount()
        heads = df[df.position == 0].head(k)
        order = {c: i for i, c in enumerate(heads.code)}
        out = df[df.code.isin(order) & (df.position <= expand)].copy()
        out["rank"] = out.code.map(order)
        out = out.sort_values(["rank", "position"])
        exp = [
            {"rank": int(r["rank"]), "position": int(r.position),
             "doc_id": int(r.doc_id), "score": float(r.score),
             "group": labels[int(r.code)] if r.code < ng else None}
            for _, r in out.iterrows()
        ]
        assert got == exp


class TestGmlProperties:
    """parse_gml_to_wkt round-trip: serialize arbitrary coordinate rings to
    GML (both axis orders, both GML versions) and require the parsed WKT to
    recover the exact lon/lat sequence."""

    coord = st.tuples(
        st.floats(min_value=-180, max_value=180, allow_nan=False,
                  allow_infinity=False).map(lambda v: round(v, 6)),
        st.floats(min_value=-90, max_value=90, allow_nan=False,
                  allow_infinity=False).map(lambda v: round(v, 6)),
    )

    @_SETTINGS
    @given(ring=st.lists(coord, min_size=3, max_size=8, unique=True),
           latlon=st.booleans(), gml2=st.booleans())
    def test_polygon_roundtrip(self, ring, latlon, gml2):
        from solr_indexer_ray.functions import spatial

        closed = ring + [ring[0]]
        if gml2:
            # GML2 coordinates are always x,y regardless of srsName: when
            # latlon is drawn we still write x,y but stamp an EPSG:4326
            # srsName — the parser must NOT swap (pygml parity).
            body = " ".join(f"{x},{y}" for x, y in closed)
            srs = (' srsName="http://www.opengis.net/gml/srs/epsg.xml#4326"'
                   if latlon else "")
            gml = (f"<Polygon{srs}><outerBoundaryIs><LinearRing>"
                   f"<coordinates>{body}</coordinates>"
                   "</LinearRing></outerBoundaryIs></Polygon>")
        elif latlon:
            body = " ".join(f"{y} {x}" for x, y in closed)
            gml = ('<gml:Polygon xmlns:gml="http://www.opengis.net/gml" '
                   'srsName="urn:ogc:def:crs:EPSG::4326"><gml:exterior>'
                   f"<gml:LinearRing><gml:posList>{body}</gml:posList>"
                   "</gml:LinearRing></gml:exterior></gml:Polygon>")
        else:
            body = " ".join(f"{x} {y}" for x, y in closed)
            gml = ("<Polygon><exterior><LinearRing>"
                   f"<posList>{body}</posList>"
                   "</LinearRing></exterior></Polygon>")
        wkt = spatial.parse_gml_to_wkt(gml)
        m = spatial._WKT_POLY.match(wkt)
        assert m is not None
        got = spatial._parse_ring(m.group(1))
        assert got == [(float(x), float(y)) for x, y in closed]

    @_SETTINGS
    @given(pts=st.lists(coord, min_size=2, max_size=10, unique=True),
           latlon=st.booleans())
    def test_linestring_roundtrip(self, pts, latlon):
        from solr_indexer_ray.functions import spatial

        if latlon:
            body = " ".join(f"{y} {x}" for x, y in pts)
            gml = ('<LineString srsName="EPSG:4326">'
                   f"<posList>{body}</posList></LineString>")
        else:
            body = " ".join(f"{x} {y}" for x, y in pts)
            gml = f"<LineString><posList>{body}</posList></LineString>"
        wkt = spatial.parse_gml_to_wkt(gml)
        m = spatial._WKT_LINE.match(wkt)
        got = spatial._parse_ring(m.group(1))
        assert got == [(float(x), float(y)) for x, y in pts]
