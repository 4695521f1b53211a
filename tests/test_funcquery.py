"""Solr function queries (edismax ``bf`` / ``boost``).

The reference passes the whole Solr request surface through to the
server (``/root/reference/solrindexer/search.py:125-140``), which
includes the (e)dismax function-query parameters; this suite pins our
native implementation: the expression language itself
(``functions/funcquery.py``), the engine composition
``final = (base + sum(bf)) * product(boost)``, and the distributed
per-range path carrying the parsed ASTs.
"""

import shutil

import numpy as np
import pyarrow as pa
import pytest

from solr_indexer_ray.functions.funcquery import (
    FuncQueryError,
    eval_func,
    func_fields,
    parse_func,
)
from solr_indexer_ray.pipelines.search import (
    SearchEngine,
    _func_values,
    search_partitioned,
)


class TestParser:
    def test_number(self):
        assert parse_func("3.5") == ("num", 3.5)
        assert parse_func("-2") == ("num", -2.0)
        assert parse_func("1e3") == ("num", 1000.0)

    def test_bare_field(self):
        assert parse_func("doclen") == ("field", "doclen")

    def test_field_function_unwraps(self):
        assert parse_func("field(doclen)") == ("field", "doclen")

    def test_nested_call(self):
        ast = parse_func("recip(doclen,1,1000,1000)")
        assert ast == (
            "call", "recip",
            [("field", "doclen"), ("num", 1.0), ("num", 1000.0),
             ("num", 1000.0)],
        )
        ast2 = parse_func("log(sum(doclen, 10))")
        assert ast2[1] == "log"
        assert ast2[2][0][1] == "sum"

    def test_mul_alias(self):
        assert parse_func("mul(doclen,2)")[1] == "product"

    def test_whitespace_tolerant(self):
        assert parse_func(" recip( doclen , 1 , 2 , 3 ) ")[1] == "recip"

    def test_fields_collected(self):
        ast = parse_func("sum(doclen, product(stars, 2))")
        assert func_fields(ast) == {"doclen", "stars"}
        assert func_fields(("num", 1.0)) == set()

    @pytest.mark.parametrize("bad", [
        "", "recip(doclen,1,2)", "sqrt(a,b)", "nosuchfn(a)",
        "sum(a,b", "sum(a,b))", "map(x,1)", "1 2", "sum(,)",
    ])
    def test_syntax_and_arity_errors(self, bad):
        with pytest.raises(FuncQueryError):
            parse_func(bad)

    @pytest.mark.parametrize("fn", ["scale", "query", "ord", "rord"])
    def test_unsupported_functions_explicit(self, fn):
        with pytest.raises(FuncQueryError, match="not supported"):
            parse_func(f"{fn}(doclen)")


class TestEval:
    def _cols(self, **kw):
        return {k: np.asarray(v, dtype=np.float64) for k, v in kw.items()}

    def test_arithmetic(self):
        cols = self._cols(x=[1, 2, 3], y=[10, 20, 30])
        assert eval_func(parse_func("sum(x,y,1)"), cols).tolist() == \
            [12.0, 23.0, 34.0]
        assert eval_func(parse_func("product(x,y)"), cols).tolist() == \
            [10.0, 40.0, 90.0]
        assert eval_func(parse_func("sub(y,x)"), cols).tolist() == \
            [9.0, 18.0, 27.0]
        assert eval_func(parse_func("div(y,x)"), cols).tolist() == \
            [10.0, 10.0, 10.0]
        assert eval_func(parse_func("pow(x,2)"), cols).tolist() == \
            [1.0, 4.0, 9.0]

    def test_unary(self):
        cols = self._cols(x=[100.0, 1.0, 0.25])
        np.testing.assert_allclose(
            eval_func(parse_func("sqrt(x)"), cols), [10.0, 1.0, 0.5]
        )
        np.testing.assert_allclose(
            eval_func(parse_func("log(x)"), cols),
            np.log10([100.0, 1.0, 0.25]),
        )
        np.testing.assert_allclose(
            eval_func(parse_func("ln(x)"), cols), np.log([100.0, 1.0, 0.25])
        )
        np.testing.assert_allclose(
            eval_func(parse_func("abs(sub(0,x))"), cols), [100.0, 1.0, 0.25]
        )

    def test_minmax_variadic(self):
        cols = self._cols(x=[1, 5], y=[4, 2])
        assert eval_func(parse_func("max(x,y,3)"), cols).tolist() == \
            [4.0, 5.0]
        assert eval_func(parse_func("min(x,y,3)"), cols).tolist() == \
            [1.0, 2.0]

    def test_recip(self):
        # Solr's canonical age-decay shape: a/(m*x+b)
        cols = self._cols(x=[0.0, 1000.0])
        np.testing.assert_allclose(
            eval_func(parse_func("recip(x,1,1000,1000)"), cols), [1.0, 0.5]
        )

    def test_map_with_and_without_default(self):
        cols = self._cols(x=[0.0, 5.0, 11.0])
        # in [0,10] -> 1, else default (=x)
        assert eval_func(parse_func("map(x,0,10,1)"), cols).tolist() == \
            [1.0, 1.0, 11.0]
        assert eval_func(parse_func("map(x,0,10,1,-1)"), cols).tolist() == \
            [1.0, 1.0, -1.0]

    def test_div_by_zero_is_inf(self):
        cols = self._cols(x=[0.0, 2.0])
        out = eval_func(parse_func("div(1,x)"), cols)
        assert np.isinf(out[0]) and out[1] == 0.5

    def test_geodist(self):
        import math

        cols = {"la": np.array([0.0, 48.8566, 10.0]),
                "lo": np.array([0.0, 2.3522, 20.0])}
        d = eval_func(parse_func("geodist(la, lo, 10, 20)"), cols)
        assert d[2] == 0.0

        def hv(lat, lon, plat=10.0, plon=20.0):
            r = 6371.0087714150598
            a = (math.sin(math.radians(lat - plat) / 2) ** 2
                 + math.cos(math.radians(plat))
                 * math.cos(math.radians(lat))
                 * math.sin(math.radians(lon - plon) / 2) ** 2)
            return 2 * r * math.asin(math.sqrt(a))

        assert d[0] == pytest.approx(hv(0.0, 0.0), rel=1e-12)
        assert d[1] == pytest.approx(hv(48.8566, 2.3522), rel=1e-12)
        # Paris -> (10,20) is ~4500 km: sanity-anchor the magnitude
        assert 4000 < d[1] < 5200

    def test_constant_expression(self):
        out = eval_func(parse_func("sum(2,3)"), {})
        assert out.tolist() == [5.0]

    def test_func_values_timestamp_epoch_ms(self):
        arr = pa.array(
            [0, 1_000_000, None], type=pa.timestamp("us", tz="UTC")
        )
        # Solr ms() convention: epoch milliseconds; null -> 0.0
        assert _func_values(arr).tolist() == [0.0, 1000.0, 0.0]

    def test_func_values_numeric_null(self):
        assert _func_values(pa.array([3, None], pa.int32())).tolist() == \
            [3.0, 0.0]


@pytest.fixture(scope="module")
def engine(built_index):
    index_dir, _ = built_index
    return SearchEngine(index_dir)


BF = "recip(doclen,1,1000,1000)"
BOOST = "log(sum(doclen,10))"


class TestEngineFuncBoosts:
    def _base(self, engine, q, **kw):
        t = engine.search(q, k=engine.n_docs, fl=["doc_id"], **kw)
        return dict(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))

    def _doclen(self, engine, ids):
        t = engine._docs_ds.to_table(columns=["doc_id", "doclen"])
        m = dict(zip(t["doc_id"].to_pylist(), t["doclen"].to_pylist()))
        return {i: float(m[i]) for i in ids}

    def test_bf_adds_function_value(self, engine):
        q = "def the index"
        base = self._base(engine, q)
        boosted = self._base(engine, q, bf=BF)
        assert set(base) == set(boosted)  # membership never changes
        dl = self._doclen(engine, base)
        for did, s in boosted.items():
            expect = base[did] + 1000.0 / (dl[did] + 1000.0)
            assert s == pytest.approx(expect, rel=1e-12)

    def test_boost_multiplies(self, engine):
        q = "def the index"
        base = self._base(engine, q)
        boosted = self._base(engine, q, boost=BOOST)
        dl = self._doclen(engine, base)
        for did, s in boosted.items():
            assert s == pytest.approx(
                base[did] * np.log10(dl[did] + 10.0), rel=1e-12
            )

    def test_composition_and_repeats(self, engine):
        # final = (base + sum(bf)) * product(boost)
        q = "def the index"
        base = self._base(engine, q)
        out = self._base(engine, q, bf=[BF, "sqrt(doclen)"],
                         boost=[BOOST, "2"])
        dl = self._doclen(engine, base)
        for did, s in out.items():
            expect = (
                base[did] + 1000.0 / (dl[did] + 1000.0) + np.sqrt(dl[did])
            ) * np.log10(dl[did] + 10.0) * 2.0
            assert s == pytest.approx(expect, rel=1e-12)

    def test_constant_bf(self, engine):
        q = "def the index"
        base = self._base(engine, q)
        out = self._base(engine, q, bf="sum(1,2)")
        for did, s in out.items():
            assert s == pytest.approx(base[did] + 3.0, rel=1e-12)

    def test_bf_can_reorder_topk(self, engine):
        # a strong enough function dominates BM25: ranking follows doclen
        t = engine.search("def the index", k=5, fl=["doc_id"],
                          bf="product(doclen,1000)")
        ids = t["doc_id"].to_pylist()
        dl = self._doclen(engine, ids)
        got = [dl[i] for i in ids]
        assert got == sorted(got, reverse=True)

    def test_works_with_fq_and_filters(self, engine):
        base = self._base(engine, "lang:go def", fq=["the"])
        out = self._base(engine, "lang:go def", fq=["the"], bf=BF)
        assert set(base) == set(out)

    def test_cursor_paging_with_bf(self, engine):
        q = "def the index"
        full = engine.search(q, k=20, fl=["doc_id"], bf=BF)
        page1 = engine.search(q, k=10, fl=["doc_id"], bf=BF)
        cursor = (
            page1["score"][-1].as_py(), page1["doc_id"][-1].as_py()
        )
        page2 = engine.search(q, k=10, fl=["doc_id"], bf=BF,
                              search_after=cursor)
        got = page1["doc_id"].to_pylist() + page2["doc_id"].to_pylist()
        assert got == full["doc_id"].to_pylist()

    def test_unknown_field_rejected(self, engine):
        with pytest.raises(ValueError, match="stored numeric field"):
            engine.search("def", bf="recip(nosuchfield,1,2,3)")

    def test_non_numeric_field_rejected(self, engine):
        with pytest.raises(ValueError, match="numeric/timestamp"):
            engine.search("def", bf="sqrt(lang)")

    def test_sort_matches_ranked_set(self, engine):
        """bf composes with sort (as in Solr): the sorted page is the
        ranked full match set stably sorted by lang asc, then doc_id."""
        full = engine.search("def", k=engine.doc_space,
                             fl=["doc_id", "lang"], bf=BF).to_pylist()
        assert full
        want = sorted(full, key=lambda r: (r["lang"] is None, r["lang"] or "",
                                           r["doc_id"]))[:15]
        got = engine.search("def", k=15, fl=["doc_id", "lang"], bf=BF,
                            sort="lang asc")
        assert got.to_pylist() == want

    def test_grouped_query_rejected(self, engine):
        with pytest.raises(ValueError, match="grouped boolean"):
            engine.search("(def OR the) AND index", bf=BF)

    def test_match_all_rejected(self, engine):
        with pytest.raises(ValueError, match="scored match set"):
            engine.search("*:*", bf=BF)
        with pytest.raises(ValueError, match="scored match set"):
            engine.search("lang:go", boost=BOOST)

    def test_bad_expression_rejected(self, engine):
        with pytest.raises(FuncQueryError):
            engine.search("def", bf="recip(doclen,1)")


class TestOverlayInteraction:
    def test_atomic_update_moves_function_value(self, built_index,
                                                tmp_path):
        from solr_indexer_ray.pipelines import mutate

        src, _ = built_index
        idx = str(tmp_path / "idx")
        shutil.copytree(src, idx)
        eng = SearchEngine(idx)
        t = eng.search("def the index", k=1, fl=["doc_id"])
        did = t["doc_id"][0].as_py()
        mutate.atomic_update(idx, [{"doc_id": did, "doclen": {"set": 7}}])
        eng2 = SearchEngine(idx)
        base = eng2.search("def the index", k=eng2.n_docs,
                           fl=["doc_id"])
        boosted = eng2.search("def the index", k=eng2.n_docs,
                              fl=["doc_id"], bf="product(doclen,1)")
        b = dict(zip(base["doc_id"].to_pylist(),
                     base["score"].to_pylist()))
        f = dict(zip(boosted["doc_id"].to_pylist(),
                     boosted["score"].to_pylist()))
        # the overlayed doc's function value reads 7, not its stored dl
        assert f[did] == pytest.approx(b[did] + 7.0, rel=1e-12)


class TestDistributedIdentity:
    @pytest.mark.parametrize("q,bf,boost", [
        ("def the index", BF, None),
        ("def the index", None, BOOST),
        ("def AND index", [BF, "sqrt(doclen)"], [BOOST]),
        ("def -the index", "map(doclen,0,50,5)", None),
        ("lang:go def main", BF, BOOST),
    ])
    def test_bit_identical_to_single_engine(self, built_index, q, bf,
                                            boost):
        index_dir, _ = built_index
        eng = SearchEngine(index_dir)
        single = eng.search(q, k=25, fl=["doc_id"], bf=bf, boost=boost)
        dist = search_partitioned(index_dir, q, k=25, bf=bf, boost=boost)
        assert dist["doc_id"].to_pylist() == single["doc_id"].to_pylist()
        assert dist["score"].to_pylist() == single["score"].to_pylist()

    def test_distributed_overlay_ships(self, built_index, tmp_path):
        from solr_indexer_ray.pipelines import mutate

        src, _ = built_index
        idx = str(tmp_path / "idx")
        shutil.copytree(src, idx)
        eng = SearchEngine(idx)
        did = eng.search("def the index", k=1,
                         fl=["doc_id"])["doc_id"][0].as_py()
        mutate.atomic_update(idx, [{"doc_id": did,
                                    "doclen": {"set": 123456}}])
        single = SearchEngine(idx).search(
            "def the index", k=10, fl=["doc_id"], bf="product(doclen,1)",
        )
        dist = search_partitioned(idx, "def the index", k=10,
                                  bf="product(doclen,1)")
        assert dist["doc_id"].to_pylist() == single["doc_id"].to_pylist()
        assert dist["score"].to_pylist() == single["score"].to_pylist()
        # the boosted doc leads: its function value dominates
        assert dist["doc_id"][0].as_py() == did


class TestMs:
    def test_ms_identity_and_diff(self):
        cols = {"mt": np.array([1000.0, 2000.0, 0.0])}
        assert eval_func(parse_func("ms(mt)"), cols).tolist() == [
            1000.0, 2000.0, 0.0]
        got = eval_func(parse_func("ms(5000, mt)"), cols)
        assert got.tolist() == [4000.0, 3000.0, 5000.0]

    def test_recency_boost_shape(self):
        # recip(ms(NOW,mt), m, a, b): newer docs (larger mt) score higher
        cols = {"mt": np.array([0.0, 9.0e5, 1.0e6])}
        v = eval_func(parse_func("recip(ms(1000000, mt),1,1000,1000)"),
                      cols)
        assert v[2] > v[1] > v[0]
