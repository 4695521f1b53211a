"""MoreLikeThis — Lucene MLT term selection (tf·(1+ln(N/df)), min tf/df
gates, max_query_terms cap) + unboosted BM25 OR query, source excluded."""

import math

import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import SearchEngine
from solr_indexer_ray.sources.corpus import generate_corpus

CFG = IndexConfig(docs_per_range=64, store_content=True)


@pytest.fixture(scope="module")
def midx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("midx")
    corpus = generate_corpus(120, seed=19, mean_tokens=35,
                             with_edge_rows=False)
    pq.write_table(corpus, str(d / "c.parquet"), row_group_size=32)
    build_index(str(d / "c.parquet"), str(d / "idx"), config=CFG)
    import pyarrow as pa

    ids = pa.array(range(corpus.num_rows), pa.int64())
    return str(d / "idx"), corpus.append_column("doc_id", ids)


def mlt_expected(oracle, src, k=10, max_terms=25, min_tf=2, min_df=5):
    """Independent re-derivation: select terms, run the oracle OR query."""
    tfm = oracle.tf[src]
    scored = []
    for t, c in tfm.items():
        df = oracle.df.get(t, 0)
        if c >= min_tf and df >= min_df:
            sc = round(c * (1.0 + math.log(oracle.n_docs / df)), 6)
            scored.append((-sc, t))
    scored.sort()
    sel = [t for _, t in scored[:max_terms]]
    hits = [h for h in oracle.search(" ".join(sel), k=10**9)
            if h[0] != src]
    return sel, hits[:k]


class TestMLT:
    def test_rank_identity_vs_oracle(self, midx):
        idx, corpus = midx
        oracle = BruteForceBM25(corpus)
        eng = SearchEngine(idx)
        for src in (0, 17, 55, 111):
            got = eng.more_like_this(src, k=10, fl=["doc_id"])
            sel, exp = mlt_expected(oracle, src)
            assert sel, src  # the corpus must yield interesting terms
            assert got["doc_id"].to_pylist() == [d for d, _ in exp], src
            assert got["score"].to_pylist() == pytest.approx(
                [s for _, s in exp]
            ), src

    def test_source_doc_excluded(self, midx):
        idx, _ = midx
        eng = SearchEngine(idx)
        for src in (0, 17):
            assert src not in eng.more_like_this(
                src, k=50, fl=["doc_id"]
            )["doc_id"].to_pylist()

    def test_param_gates(self, midx):
        idx, corpus = midx
        oracle = BruteForceBM25(corpus)
        eng = SearchEngine(idx)
        # impossible gates -> no interesting terms -> empty
        t = eng.more_like_this(0, k=5, min_term_freq=10**6)
        assert t.num_rows == 0
        # max_query_terms=1 uses only the single top term
        got = eng.more_like_this(17, k=5, fl=["doc_id"], max_query_terms=1)
        sel, exp = mlt_expected(oracle, 17, max_terms=1)
        assert got["doc_id"].to_pylist() == [d for d, _ in exp[:5]]

    def test_missing_doc_and_no_content(self, midx, tmp_path, ray_session):
        idx, _ = midx
        with pytest.raises(ValueError, match="not found"):
            SearchEngine(idx).more_like_this(10**9)
        corpus = generate_corpus(30, seed=3, mean_tokens=15)
        pq.write_table(corpus, str(tmp_path / "c.parquet"))
        build_index(str(tmp_path / "c.parquet"), str(tmp_path / "idx"),
                    config=IndexConfig(docs_per_range=64))
        with pytest.raises(ValueError, match="store_content"):
            SearchEngine(str(tmp_path / "idx")).more_like_this(0)


class TestTermVectors:
    """Solr TermVectorComponent (/tvrh): per-doc term vector re-derived
    from the stored body — tf/positions vs direct tokenization, df vs
    the index's postings."""

    def test_tf_and_positions_match_analyzer(self, midx):
        idx, corpus = midx
        eng = SearchEngine(idx)
        for did in (0, 7, 63):
            row = corpus.slice(did, 1).to_pylist()[0]
            toks = eng.registry.tokenize(row["content"], row["lang"])
            t = eng.term_vectors(did, with_positions=True)
            assert t["term"].to_pylist() == sorted(set(toks))
            for term, tf, ps in zip(t["term"].to_pylist(),
                                    t["tf"].to_pylist(),
                                    t["positions"].to_pylist()):
                want = [i for i, x in enumerate(toks) if x == term]
                assert tf == len(want)
                assert ps == ",".join(map(str, want))

    def test_df_matches_postings(self, midx):
        idx, _ = midx
        eng = SearchEngine(idx)
        t = eng.term_vectors(5)
        terms = t["term"].to_pylist()
        postings = eng.lookup_postings(terms)
        for term, df in zip(terms, t["df"].to_pylist()):
            assert df == postings[term].df

    def test_no_positions_column_by_default(self, midx):
        idx, _ = midx
        t = SearchEngine(idx).term_vectors(3)
        assert t.column_names == ["term", "tf", "df"]

    def test_missing_doc_raises(self, midx):
        idx, _ = midx
        with pytest.raises(ValueError, match="not found"):
            SearchEngine(idx).term_vectors(10**9)

    def test_requires_stored_content(self, built_index):
        idx, _ = built_index  # session index: store_content=False
        with pytest.raises(ValueError, match="stored content"):
            SearchEngine(idx).term_vectors(0)
