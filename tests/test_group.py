"""Result grouping (Solr group=true): groups ordered by best-doc
relevance, per-group top docs, null-group handling."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import SearchEngine
from solr_indexer_ray.sources.corpus import generate_corpus


@pytest.fixture(scope="module")
def gidx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("gidx")
    corpus = generate_corpus(150, seed=11, mean_tokens=40)
    pq.write_table(corpus, str(d / "c.parquet"), row_group_size=32)
    cfg = IndexConfig(docs_per_range=64, store_positions=True)
    build_index(str(d / "c.parquet"), str(d / "idx"), config=cfg)
    ids = pa.array(range(corpus.num_rows), pa.int64())
    return str(d / "idx"), corpus.append_column("doc_id", ids)


def brute_group(corpus, oracle, q, fld, kg, gl):
    hits = oracle.search(q, k=10**9)  # (doc, score) by (-score, id)
    vals = dict(zip(corpus["doc_id"].to_pylist(), corpus[fld].to_pylist()))
    groups: dict = {}
    order = []
    for d, s in hits:
        g = vals[d]
        if g not in groups:
            groups[g] = []
            order.append(g)
        groups[g].append((d, s))
    rows = []
    for gr, g in enumerate(order[:kg]):
        for pos, (d, s) in enumerate(groups[g][:gl]):
            rows.append((g, gr, pos, d, s))
    return rows


class TestGroup:
    @pytest.mark.parametrize("q,fld,kg,gl", [
        ("def read", "lang", 4, 2),
        ("merge", "repo", 3, 3),
        ('"def index"', "lang", 5, 1),
        ("pars*", "lang", 6, 2),
    ])
    def test_vs_brute_force(self, gidx, q, fld, kg, gl):
        idx, corpus = gidx
        oracle = BruteForceBM25(corpus)
        t = SearchEngine(idx).group_search(q, fld, k_groups=kg,
                                           group_limit=gl)
        got = list(zip(t["group"].to_pylist(), t["group_rank"].to_pylist(),
                       t["position"].to_pylist(), t["doc_id"].to_pylist()))
        exp = [(g, gr, p, d)
               for g, gr, p, d, _ in brute_group(corpus, oracle, q, fld,
                                                 kg, gl)]
        assert got == exp, (q, fld)
        exp_scores = [s for *_, s in brute_group(corpus, oracle, q, fld,
                                                 kg, gl)]
        assert t["score"].to_pylist() == exp_scores

    def test_group_limit_one_is_collapse(self, gidx):
        idx, _ = gidx
        t = SearchEngine(idx).group_search("def", "lang", k_groups=10,
                                           group_limit=1)
        groups = t["group"].to_pylist()
        assert len(groups) == len(set(groups))  # one doc per group
        assert t["position"].to_pylist() == [0] * t.num_rows

    def test_bad_field(self, gidx):
        idx, _ = gidx
        with pytest.raises(ValueError, match="group"):
            SearchEngine(idx).group_search("def", "nosuch")

    def test_no_matches(self, gidx):
        idx, _ = gidx
        assert SearchEngine(idx).group_search("zzqq", "lang").num_rows == 0
