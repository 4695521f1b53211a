"""Solr edismax boost queries (``bq``).

The reference hands the full Solr request surface to the server
(``/root/reference/solrindexer/search.py:125-140``), which includes the
(e)dismax ``bq`` parameter; this suite pins our native implementation:
contribution = the bq's own query score (plus a ConstantScoreQuery-style
constant for pure-metadata-filter bq), added to MAIN-query matches only,
before the multiplicative ``boost`` functions — and the distributed
per-range path carrying each bq as a compiled clause plan.
"""

import shutil

import numpy as np
import pytest

from solr_indexer_ray.pipelines.search import SearchEngine, search_partitioned


@pytest.fixture(scope="module")
def engine(built_index):
    index_dir, _ = built_index
    return SearchEngine(index_dir)


def _scores(t):
    return dict(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))


class TestEngineBq:
    def test_scored_bq_adds_its_own_score(self, engine):
        q = "def the index"
        base = _scores(engine.search(q, k=engine.n_docs, fl=["doc_id"]))
        bqs = _scores(
            engine.search("read", k=engine.n_docs, fl=["doc_id"])
        )
        out = _scores(engine.search(q, k=engine.n_docs, fl=["doc_id"],
                                    bq="read"))
        assert set(out) == set(base)  # membership never extends
        for did, s in out.items():
            assert s == pytest.approx(
                base[did] + bqs.get(did, 0.0), rel=1e-12
            )

    def test_bq_clause_boost_scales(self, engine):
        q = "def the index"
        one = _scores(engine.search(q, k=engine.n_docs, fl=["doc_id"],
                                    bq="read"))
        two = _scores(engine.search(q, k=engine.n_docs, fl=["doc_id"],
                                    bq="read^2"))
        base = _scores(engine.search(q, k=engine.n_docs, fl=["doc_id"]))
        for did in base:
            assert two[did] - base[did] == pytest.approx(
                2.0 * (one[did] - base[did]), rel=1e-9, abs=1e-15
            )

    def test_pure_filter_bq_constant(self, engine):
        q = "def the index"
        base = _scores(engine.search(q, k=engine.n_docs, fl=["doc_id"]))
        out = engine.search(q, k=engine.n_docs, fl=["doc_id", "lang"],
                            bq="lang:go^5")
        langs = dict(zip(out["doc_id"].to_pylist(),
                         out["lang"].to_pylist()))
        for did, s in _scores(out).items():
            expect = base[did] + (5.0 if langs[did] == "go" else 0.0)
            assert s == pytest.approx(expect, rel=1e-12)

    def test_pure_filter_bq_default_weight_one(self, engine):
        q = "def the index"
        base = _scores(engine.search(q, k=engine.n_docs, fl=["doc_id"]))
        out = engine.search(q, k=engine.n_docs, fl=["doc_id", "lang"],
                            bq="lang:go")
        langs = dict(zip(out["doc_id"].to_pylist(),
                         out["lang"].to_pylist()))
        for did, s in _scores(out).items():
            expect = base[did] + (1.0 if langs[did] == "go" else 0.0)
            assert s == pytest.approx(expect, rel=1e-12)

    def test_repeated_bq_sum(self, engine):
        q = "def the index"
        base = _scores(engine.search(q, k=engine.n_docs, fl=["doc_id"]))
        a = _scores(engine.search(q, k=engine.n_docs, fl=["doc_id"],
                                  bq="read"))
        b = _scores(engine.search(q, k=engine.n_docs, fl=["doc_id"],
                                  bq="lang:go^3"))
        both = _scores(engine.search(q, k=engine.n_docs, fl=["doc_id"],
                                     bq=["read", "lang:go^3"]))
        for did in base:
            assert both[did] == pytest.approx(
                a[did] + b[did] - base[did], rel=1e-12
            )

    def test_mixed_bq_filters_gate_terms_score(self, engine):
        # bq "lang:go read": only go docs that contain 'read' get the
        # read score added (our semantics: filters gate, terms score)
        q = "def the index"
        base = _scores(engine.search(q, k=engine.n_docs, fl=["doc_id"]))
        rg = _scores(engine.search("lang:go read", k=engine.n_docs,
                                   fl=["doc_id"]))
        out = _scores(engine.search(q, k=engine.n_docs, fl=["doc_id"],
                                    bq="lang:go read"))
        for did, s in out.items():
            assert s == pytest.approx(
                base[did] + rg.get(did, 0.0), rel=1e-12
            )

    def test_boost_multiplies_after_bq(self, engine):
        # final = (base + bq) * boost — the mult function wraps bq too
        q = "def the index"
        with_bq = _scores(engine.search(q, k=engine.n_docs,
                                        fl=["doc_id"], bq="read"))
        full = engine.search(q, k=engine.n_docs, fl=["doc_id", "doclen"],
                             bq="read", boost="log(sum(doclen,10))")
        dls = dict(zip(full["doc_id"].to_pylist(),
                       full["doclen"].to_pylist()))
        for did, s in _scores(full).items():
            assert s == pytest.approx(
                with_bq[did] * np.log10(dls[did] + 10.0), rel=1e-12
            )

    def test_bq_can_reorder_topk(self, engine):
        t = engine.search("def the index", k=5, fl=["doc_id", "lang"],
                          bq="lang:go^100")
        assert t["lang"][0].as_py() == "go"

    def test_cursor_paging_with_bq(self, engine):
        q = "def the index"
        full = engine.search(q, k=20, fl=["doc_id"], bq="read^2")
        p1 = engine.search(q, k=10, fl=["doc_id"], bq="read^2")
        cursor = (p1["score"][-1].as_py(), p1["doc_id"][-1].as_py())
        p2 = engine.search(q, k=10, fl=["doc_id"], bq="read^2",
                           search_after=cursor)
        assert p1["doc_id"].to_pylist() + p2["doc_id"].to_pylist() == \
            full["doc_id"].to_pylist()

    def test_absent_term_bq_is_noop(self, engine):
        q = "def the index"
        base = _scores(engine.search(q, k=engine.n_docs, fl=["doc_id"]))
        out = _scores(engine.search(q, k=engine.n_docs, fl=["doc_id"],
                                    bq="zzzznotaterm"))
        assert out == base

    def test_match_all_bq_rejected(self, engine):
        with pytest.raises(ValueError, match="match-all bq"):
            engine.search("def", bq="*:*")

    def test_match_all_main_rejected(self, engine):
        with pytest.raises(ValueError, match="scored match set"):
            engine.search("*:*", bq="read")
        with pytest.raises(ValueError, match="scored match set"):
            engine.search("lang:go", bq="read")

    def test_grouped_bq_rejected(self, engine):
        with pytest.raises(ValueError, match="grouped boolean bq"):
            engine.search("def", bq="(read OR index) AND the")

    def test_grouped_main_rejected(self, engine):
        with pytest.raises(ValueError, match="grouped boolean"):
            engine.search("(def OR the) AND index", bq="read")

    def test_sort_matches_ranked_set(self, engine):
        """bq composes with sort (as in Solr): the sorted page is the
        ranked full match set stably sorted by lang asc, then doc_id."""
        full = engine.search("def", k=engine.doc_space,
                             fl=["doc_id", "lang"], bq="read").to_pylist()
        assert full
        want = sorted(full, key=lambda r: (r["lang"] is None, r["lang"] or "",
                                           r["doc_id"]))[:15]
        got = engine.search("def", k=15, fl=["doc_id", "lang"], bq="read",
                            sort="lang asc")
        assert got.to_pylist() == want


class TestDistributedBq:
    @pytest.mark.parametrize("q,bq", [
        ("def the index", "read"),
        ("def the index", "lang:go^5"),
        ("def AND index", ["read^2", "lang:go"]),
        ("def -the index", "lang:go read"),
        ("lang:go def", "index^1.5"),
    ])
    def test_bit_identical_to_single_engine(self, built_index, q, bq):
        index_dir, _ = built_index
        eng = SearchEngine(index_dir)
        single = eng.search(q, k=25, fl=["doc_id"], bq=bq)
        dist = search_partitioned(index_dir, q, k=25, bq=bq)
        assert dist["doc_id"].to_pylist() == single["doc_id"].to_pylist()
        assert dist["score"].to_pylist() == single["score"].to_pylist()

    def test_composes_with_bf_boost_distributed(self, built_index):
        index_dir, _ = built_index
        eng = SearchEngine(index_dir)
        kw = dict(bq="read^2", bf="recip(doclen,1,1000,1000)",
                  boost="log(sum(doclen,10))")
        single = eng.search("def the index", k=25, fl=["doc_id"], **kw)
        dist = search_partitioned(index_dir, "def the index", k=25, **kw)
        assert dist["doc_id"].to_pylist() == single["doc_id"].to_pylist()
        assert dist["score"].to_pylist() == single["score"].to_pylist()


class TestBqAfterMutation:
    def test_bq_sees_deletes(self, built_index, tmp_path):
        from solr_indexer_ray.pipelines import mutate

        src, _ = built_index
        idx = str(tmp_path / "idx")
        shutil.copytree(src, idx)
        eng = SearchEngine(idx)
        t = eng.search("def the index", k=1, fl=["doc_id"],
                       bq="lang:go^100")
        top = t["doc_id"][0].as_py()
        mutate.delete_by_id(idx, [top])
        eng2 = SearchEngine(idx)
        t2 = eng2.search("def the index", k=5, fl=["doc_id"],
                         bq="lang:go^100")
        assert top not in t2["doc_id"].to_pylist()
