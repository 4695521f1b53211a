"""The doc-range view of ``SearchEngine`` — one engine per doc range,
fed the whole index's statistics — and the resident and per-job
distributed paths built on it.

A range engine must answer like the whole-index engine restricted to its
range, hold dense state only as wide as the range, and keep the driver
of a distributed call free of any filter evaluation."""

import sys

import numpy as np
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines import search as search_mod
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.search import (
    SearchEngine,
    _range_engines,
    search_partitioned,
)
from solr_indexer_ray.pipelines.serving import PartitionedSearchService
from solr_indexer_ray.sources.corpus import generate_corpus

DPR = 64
QUERIES = ["read merge", "def read", "read^2 merge", "def AND read",
           "read merge", "def read",  # repeats on purpose
           "read -merge -def", "read^3 merge"]


@pytest.fixture(scope="module")
def idx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("rng")
    corpus = generate_corpus(200, seed=5, mean_tokens=40,
                             with_edge_rows=False)
    pq.write_table(corpus, str(d / "c.parquet"), row_group_size=32)
    build_index(str(d / "c.parquet"), str(d / "idx"),
                config=IndexConfig(docs_per_range=DPR))
    return str(d / "idx")


def _pairs(t):
    return list(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))


class TestResidentRangeEngines:
    def test_repeated_and_interleaved_queries_identical(self, idx):
        """One resident service answers a repeated, interleaved query
        stream exactly like a fresh per-job call and the single engine
        (its range engines' postings and score caches are invisible)."""
        eng = SearchEngine(idx)
        with PartitionedSearchService(idx, pool=2) as svc:
            for q in QUERIES + QUERIES[::-1]:
                got = _pairs(svc.search(q, k=10))
                assert got == _pairs(search_partitioned(idx, q, k=10)), q
                assert got == _pairs(eng.search(q, k=10, fl=["doc_id"])), q

    @pytest.mark.parametrize("q,kw", [
        ("read AND merge", {"mm": "2"}),   # mm needs optional clauses
        ('"def read"', {}),                 # no positions indexed
        ("read", {"qf": "content^-1"}),     # negative field boost
    ])
    def test_rejected_query_raises_engine_type(self, idx, q, kw):
        with pytest.raises(Exception) as ref:
            SearchEngine(idx).search(q, k=5, **kw)
        with pytest.raises(Exception) as dist:
            search_partitioned(idx, q, k=5, **kw)
        with PartitionedSearchService(idx, pool=1) as svc:
            with pytest.raises(Exception) as served:
                svc.search(q, k=5, **kw)
        assert type(dist.value) is type(served.value) is type(ref.value)
        assert str(dist.value) == str(ref.value)


class TestRangeView:
    def test_local_ids_and_range_width(self, idx):
        whole = SearchEngine(idx)
        n = whole.doc_space
        engines = dict(_range_engines(idx, range(-(-n // DPR))))
        for r, e in engines.items():
            lo = r * DPR
            width = min(DPR, n - lo)
            assert e.doc_space == width
            assert e.norms.shape == (width,)
            assert np.array_equal(e.norms, whole.norms[lo:lo + width])
            tp = e.lookup_postings(["read"]).get("read")
            ref = whole.lookup_postings(["read"])["read"]
            keep = (ref.doc_ids >= lo) & (ref.doc_ids < lo + width)
            assert np.array_equal(tp.doc_ids + lo, ref.doc_ids[keep])
            # collection statistics are the whole index's
            assert e.n_docs == whole.n_docs and e.avgdl == whole.avgdl
            assert e._df("read", tp.df) == ref.df

    @pytest.mark.parametrize("q,fq", [
        ("read", "{!join from=repo to=repo}lang:go"),
        ("{!parent which=lang:go}def", None),
        ("read", "{!child of=lang:go}def"),
    ])
    def test_cross_range_query_without_stats_names_them(self, idx, q, fq):
        """A join or block join matches over the whole index, which a
        range engine reaches only through ``collection_stats``: without
        them it raises a ValueError naming them, not an AttributeError."""
        engine = SearchEngine(idx, doc_range=1)
        with pytest.raises(ValueError, match="collection_stats"):
            engine.search(q, k=5, fq=fq)

    def test_score_buffers_have_range_width(self, idx, monkeypatch):
        """Every dense buffer a range engine allocates while scoring is
        as wide as its range, not the whole doc-id space."""
        whole = SearchEngine(idx)
        r = 1
        engine = dict(_range_engines(idx, [r]))[r]
        width = engine.doc_space
        assert width < whole.doc_space
        sizes = []
        real_zeros = np.zeros

        def spy(shape, *a, **kw):
            caller = sys._getframe(1).f_globals.get("__name__")
            if caller == search_mod.__name__ and isinstance(
                    shape, (int, np.integer)):
                sizes.append(int(shape))
            return real_zeros(shape, *a, **kw)

        monkeypatch.setattr(search_mod.np, "zeros", spy)
        got = engine.search("read merge", k=10, fl=["doc_id"])
        monkeypatch.undo()
        assert width in sizes  # the score buffer
        assert max(sizes) == width
        lo = r * DPR
        ref = [(d, s) for d, s in _pairs(whole.search(
            "read merge", k=whole.doc_space, fl=["doc_id"]))
            if lo <= d < lo + width][:10]
        assert [(d + lo, s) for d, s in _pairs(got)] == ref

    def test_driver_never_evaluates_fq(self, idx, monkeypatch):
        """A selective fq is applied inside each range task: the driver
        process builds no fq mask and runs no match."""
        calls = []

        def trap(name):
            def f(self, *a, **kw):
                calls.append(name)
                raise AssertionError(f"driver called {name}")
            return f

        eng = SearchEngine(idx)
        fq = ["lang:go"]
        ref = _pairs(eng.search("read", k=10, fl=["doc_id"], fq=fq))
        assert ref
        for name in ("_merge_fq_mask", "match_ids", "_excluded_mask"):
            monkeypatch.setattr(SearchEngine, name, trap(name))
        assert _pairs(search_partitioned(idx, "read", k=10, fq=fq)) == ref
        assert calls == []
