"""End-to-end: index build over the synthetic corpus + BM25 search,
verified rank-identical against the brute-force Lucene-faithful oracle."""

import hashlib
import os

import numpy as np
import pyarrow.dataset as pads
import pytest

from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import SearchEngine

QUERIES = [
    # stop-word-heavy (df ~ N) — exercises salting/skew machinery
    "def",
    "the",
    # multi-term OR
    "parse index query",
    # code sub-token (only produced by the code analyzer)
    "buffer merge",
    # fielded filter + terms
    "lang:python def return",
    "repo:org0/proj0 index",
    # conjunction
    "index AND merge",
    # negation
    "index -merge",
    # zero-hit
    "zzzzqqqq",
    # pure filter
    "lang:go",
]


@pytest.fixture(scope="module")
def engine(built_index):
    index_dir, _ = built_index
    return SearchEngine(index_dir)


@pytest.fixture(scope="module")
def oracle(small_corpus):
    import pyarrow as pa

    corpus = small_corpus.append_column(
        "doc_id", pa.array(range(small_corpus.num_rows), pa.int64())
    )
    return BruteForceBM25(corpus)


class TestBuildArtifacts:
    def test_stats(self, built_index, small_corpus, oracle):
        _, stats = built_index
        assert stats["n_docs"] == small_corpus.num_rows
        assert stats["sum_dl"] == oracle.sum_dl
        assert stats["avgdl"] == pytest.approx(oracle.avgdl)

    def test_docs_table_sha256_invariant(self, built_index, small_corpus):
        """Per-row integrity: sha256(content) in the docs table equals an
        independently computed hash (BASELINE.json input_hint)."""
        index_dir, _ = built_index
        docs = (
            pads.dataset(os.path.join(index_dir, "docs"))
            .to_table()
            .sort_by("doc_id")
        )
        contents = small_corpus["content"].to_pylist()
        shas = docs["sha256"].to_pylist()
        ids = docs["doc_id"].to_pylist()
        assert ids == list(range(small_corpus.num_rows))
        for i in (0, 1, 7, 42, len(contents) - 1):
            expect = hashlib.sha256(contents[i].encode()).hexdigest()
            assert shas[i] == expect

    def test_doc_ids_deterministic_and_dense(self, built_index):
        index_dir, stats = built_index
        docs = pads.dataset(os.path.join(index_dir, "docs")).to_table()
        ids = np.sort(docs["doc_id"].to_numpy())
        assert (ids == np.arange(stats["n_docs"])).all()

    def test_postings_df_matches_oracle(self, engine, oracle):
        for term in ["def", "the", "index", "merge", "nonexistenttoken"]:
            tp = engine.lookup_postings([term]).get(term)
            df = tp.df if tp else 0
            assert df == oracle.df.get(term, 0), term

    def test_posting_lists_sorted(self, engine):
        for term, tp in engine.lookup_postings(["def", "index"]).items():
            assert (np.diff(tp.doc_ids) > 0).all(), term


class TestRankIdentity:
    """Engine top-k must be rank-identical (ids AND float64 scores) to the
    brute-force oracle — the core north-rule correctness gate."""

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("k", [10, 100])
    def test_taat_vs_oracle(self, engine, oracle, query, k):
        got = engine.search(query, k=k, fl=["doc_id"])
        expect = oracle.search(query, k=k)
        got_pairs = list(zip(got["doc_id"].to_pylist(), got["score"].to_pylist()))
        assert [d for d, _ in got_pairs] == [d for d, _ in expect], query
        for (gd, gs), (ed, es) in zip(got_pairs, expect):
            assert gs == pytest.approx(es, rel=1e-12, abs=1e-12), (query, gd)

    @pytest.mark.parametrize(
        "query",
        ["def", "parse index query", "lang:python def return",
         "index AND merge", "index -merge", "zzzzqqqq"],
    )
    def test_partitioned_vs_taat(self, engine, built_index, query):
        """Distributed per-range fan-out == single-process TAAT, bit-exact
        (the built_index fixture spans 3 doc ranges)."""
        from solr_indexer_ray.pipelines.search import search_partitioned

        index_dir, _ = built_index
        a = engine.search(query, k=10, fl=["doc_id"])
        b = search_partitioned(index_dir, query, k=10)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), query
        assert a["score"].to_pylist() == b["score"].to_pylist(), query

    def test_tie_break_by_doc_id(self, engine, oracle):
        """Docs with identical content tie on score -> ascending doc_id."""
        got = engine.search("def parse", k=300, fl=["doc_id"])
        scores = got["score"].to_pylist()
        ids = got["doc_id"].to_pylist()
        for i in range(1, len(scores)):
            if scores[i] == scores[i - 1]:
                assert ids[i] > ids[i - 1]


class TestSearchAPI:
    def test_default_k_is_10(self, engine):
        assert engine.search("def").num_rows <= 10

    def test_fl_projection(self, engine):
        t = engine.search("def", fl=["doc_id", "repo", "path"])
        assert t.column_names == ["doc_id", "repo", "path", "score"]

    def test_realtime_get(self, engine):
        row = engine.get(0)
        assert row["doc_id"] == 0
        assert len(row["sha256"]) == 64
        assert engine.get(10**9) is None

    def test_count_and_status(self, engine, built_index):
        _, stats = built_index
        assert engine.count() == stats["n_docs"]
        st = engine.status()
        assert st["committed"] is True
        assert st["live_docs"] == stats["n_docs"]


class TestFlTransformers:
    """Solr fl field transformers ``field:[json]`` / ``field:[xml]``
    (reference SOLR_FL / SOLR_MMD_FL, solrindexer/search.py:46-47)."""

    @pytest.fixture(scope="class")
    def jidx(self, tmp_path_factory, ray_session):
        import json

        import pyarrow as pa
        import pyarrow.parquet as pq

        from solr_indexer_ray.config import IndexConfig
        from solr_indexer_ray.pipelines.build import build_index
        from solr_indexer_ray.sources.corpus import generate_corpus

        d = tmp_path_factory.mktemp("flidx")
        corpus = generate_corpus(40, seed=5, mean_tokens=30)
        langs = corpus["lang"].to_pylist()
        meta = [
            json.dumps({"lang": langs[i], "n": i}, sort_keys=True)
            for i in range(corpus.num_rows)
        ]
        bad = list(meta)
        bad[3] = "{not json"  # unparseable row -> whole column stays raw
        xml = [
            f'<doc id="{i}"><lang>{langs[i]}</lang></doc>'
            for i in range(corpus.num_rows)
        ]
        corpus = corpus.append_column("meta_json", pa.array(meta))
        corpus = corpus.append_column("meta_bad", pa.array(bad))
        corpus = corpus.append_column("doc_xml", pa.array(xml))
        pq.write_table(corpus, str(d / "c.parquet"))
        build_index(
            str(d / "c.parquet"), str(d / "idx"),
            config=IndexConfig(
                concurrency=1,
                extra_stored=("meta_json", "meta_bad", "doc_xml"),
            ),
        )
        return str(d / "idx")

    def test_json_roundtrip(self, jidx):
        import pyarrow as pa

        eng = SearchEngine(jidx)
        t = eng.search("", k=40, fl=["doc_id", "meta_json:[json]"],
                       sort="doc_id asc")
        assert t.column_names == ["doc_id", "meta_json", "score"]
        assert pa.types.is_struct(t.schema.field("meta_json").type)
        for row in t.to_pylist():
            assert row["meta_json"]["n"] == row["doc_id"]

    def test_json_fallback_on_bad_value(self, jidx):
        """A single unparseable value keeps the whole column raw (Solr
        raw-value behavior; never a crash)."""
        import pyarrow as pa

        eng = SearchEngine(jidx)
        t = eng.search("", k=40, fl=["meta_bad:[json]"], sort="doc_id asc")
        assert t.num_rows == 40
        assert pa.types.is_string(t.schema.field("meta_bad").type)
        assert t["meta_bad"].to_pylist()[3] == "{not json"

    def test_xml_passthrough(self, jidx):
        eng = SearchEngine(jidx)
        t = eng.search("", k=5, fl=["doc_id", "doc_xml:[xml]"],
                       sort="doc_id asc")
        rows = t.to_pylist()
        assert rows[0]["doc_xml"] == '<doc id="0"><lang>' \
            + rows[0]["doc_xml"].split("<lang>")[1]
        assert all(r["doc_xml"].startswith("<doc id=") for r in rows)

    def test_star_expands_stored_fields(self, jidx):
        eng = SearchEngine(jidx)
        t = eng.search("def", k=3, fl=["*"])
        for f in eng.stored_fields:
            assert f in t.column_names

    def test_cli_pretty_xml_formatter(self):
        from solr_indexer_ray.cli import _format_xml_display

        out = _format_xml_display("<a><b>x</b></a>")
        assert "<a>" in out and "  <b>x</b>" in out
        assert _format_xml_display("not <xml") == "not <xml"
        assert _format_xml_display("") == ""


class TestPostingsCacheBudget:
    """Byte-aware eviction of the decoded-postings cache: results stay
    identical under a tiny budget, the hot (LRU-touched) term survives,
    and resident bytes stay bounded."""

    def test_byte_budget_bounds_cache_and_keeps_results(
        self, tmp_path, ray_session
    ):
        import pyarrow.parquet as pq

        from solr_indexer_ray.config import IndexConfig
        from solr_indexer_ray.pipelines.build import build_index
        from solr_indexer_ray.pipelines.search import SearchEngine
        from solr_indexer_ray.sources.corpus import generate_corpus

        corpus = generate_corpus(150, seed=2, mean_tokens=40)
        pq.write_table(corpus, str(tmp_path / "c.parquet"))
        build_index(str(tmp_path / "c.parquet"), str(tmp_path / "idx"),
                    config=IndexConfig(store_positions=True))
        ref = SearchEngine(str(tmp_path / "idx"))
        eng = SearchEngine(str(tmp_path / "idx"))
        eng.term_cache_bytes = 4096  # tiny: force constant eviction
        qs = ["def read", '"def index"', "parse return^2",
              "import", '"def index"~2', "write def read"]
        postings = eng._cache.maps["postings"]
        for q in qs * 2:
            a = eng.search(q, k=10, fl=["doc_id"])
            b = ref.search(q, k=10, fl=["doc_id"])
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q
            total = sum(
                tp.nbytes() for tp, _, _ in postings.values()
                if tp is not None
            )
            # bound: budget + the current query's own (kept) terms
            kept = [tp for tp, _, _ in postings.values()
                    if tp is not None]
            assert len(postings) <= 8
            assert total <= 4096 + sum(tp.nbytes() for tp in kept[-6:])

    def test_lru_touch_keeps_hot_term(self, tmp_path, ray_session):
        import pyarrow.parquet as pq

        from solr_indexer_ray.pipelines.build import build_index
        from solr_indexer_ray.pipelines.search import SearchEngine
        from solr_indexer_ray.sources.corpus import generate_corpus

        corpus = generate_corpus(80, seed=4, mean_tokens=30)
        pq.write_table(corpus, str(tmp_path / "c.parquet"))
        build_index(str(tmp_path / "c.parquet"), str(tmp_path / "idx"))
        eng = SearchEngine(str(tmp_path / "idx"))
        eng.term_cache_size = 3
        eng.search("def", k=5, fl=["doc_id"])
        eng.search("read", k=5, fl=["doc_id"])
        eng.search("def", k=5, fl=["doc_id"])    # touch: def newest
        eng.search("parse", k=5, fl=["doc_id"])
        eng.search("import", k=5, fl=["doc_id"])  # evicts oldest
        postings = eng._cache.maps["postings"]
        assert "def" in postings        # touched -> survived
        assert "read" not in postings   # untouched -> evicted


class TestSingleKeySortFastPath:
    """The partition-based single-numeric-key sort must page identically
    to the multi-key pandas mergesort path (appending the implicit
    doc_id tiebreak as an explicit second key forces that path)."""

    def test_fast_path_matches_pandas_path(self, tmp_path, ray_session):
        import pyarrow.parquet as pq

        from solr_indexer_ray.pipelines.build import build_index
        from solr_indexer_ray.pipelines.search import SearchEngine
        from solr_indexer_ray.sources.corpus import generate_corpus

        pq.write_table(generate_corpus(300, seed=6, mean_tokens=35),
                       str(tmp_path / "c.parquet"))
        build_index(str(tmp_path / "c.parquet"), str(tmp_path / "idx"))
        eng = SearchEngine(str(tmp_path / "idx"))
        for q in ("def read", "read"):
            for sort in ("doclen desc", "doclen asc", "score desc",
                         "doc_id asc"):
                for start in (0, 3, 17):
                    a = eng.search(q, k=10, start=start, fl=["doc_id"],
                                   sort=sort)
                    b = eng.search(q, k=10, start=start, fl=["doc_id"],
                                   sort=sort + ", doc_id asc")
                    assert (a["doc_id"].to_pylist()
                            == b["doc_id"].to_pylist()), (q, sort, start)
