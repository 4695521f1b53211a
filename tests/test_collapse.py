"""Field collapsing (Solr CollapsingQParser {!collapse field=F} +
ExpandComponent): one doc per group value ranked by relevance, null
policies, expand members, the fq surface, and distributed identity."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import (
    SearchEngine,
    collapse_partitioned,
)
from solr_indexer_ray.sources.corpus import generate_corpus


@pytest.fixture(scope="module")
def cidx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("cidx")
    corpus = generate_corpus(160, seed=13, mean_tokens=40)
    # null out lang on a sprinkling of rows for nullPolicy coverage
    lang = corpus["lang"].to_pylist()
    for i in range(0, len(lang), 17):
        lang[i] = None
    corpus = corpus.set_column(
        corpus.schema.get_field_index("lang"), "lang",
        pa.array(lang, pa.string()),
    )
    pq.write_table(corpus, str(d / "c.parquet"), row_group_size=32)
    cfg = IndexConfig(docs_per_range=64,
                      store_positions=True)
    build_index(str(d / "c.parquet"), str(d / "idx"), config=cfg)
    ids = pa.array(range(corpus.num_rows), pa.int64())
    return str(d / "idx"), corpus.append_column("doc_id", ids)


def brute_collapse(corpus, oracle, q, fld, k, policy, expand_limit):
    hits = oracle.search(q, k=10**9)  # (doc, score) by (-score, id)
    vals = dict(zip(corpus["doc_id"].to_pylist(),
                    corpus[fld].to_pylist()))
    groups: dict = {}
    order = []
    for d, s in hits:
        g = vals[d]
        if g is None:
            if policy == "ignore":
                continue
            g = ("\x00", d) if policy == "expand" else "\x00"
        if g not in groups:
            groups[g] = []
            order.append(g)
        groups[g].append((d, s))
    rows = []
    for rank, g in enumerate(order[:k]):
        for pos, (d, s) in enumerate(groups[g][: expand_limit + 1]):
            gv = None if (g == "\x00" or isinstance(g, tuple)) else g
            rows.append((rank, pos, d, gv))
    return rows


CASES = [
    ("def read", "lang", 5, "ignore", 0),
    ("def read", "lang", 5, "expand", 0),
    ("def read", "lang", 4, "collapse", 2),
    ("merge", "repo", 3, "ignore", 3),
    ('"def index" OR pars*', "repo", 6, "ignore", 1),
    ("value -return", "lang", 8, "expand", 2),
]


class TestCollapse:
    @pytest.mark.parametrize("q,fld,k,policy,el", CASES)
    def test_vs_brute_force(self, cidx, q, fld, k, policy, el):
        idx, corpus = cidx
        oracle = BruteForceBM25(corpus)
        t = SearchEngine(idx).collapse_search(
            q, fld, k=k, null_policy=policy, expand_limit=el
        )
        got = list(zip(t["rank"].to_pylist(), t["position"].to_pylist(),
                       t["doc_id"].to_pylist(), t["group"].to_pylist()))
        exp = brute_collapse(corpus, oracle, q, fld, k, policy, el)
        assert got == exp

    def test_heads_unique_per_group(self, cidx):
        idx, _ = cidx
        t = SearchEngine(idx).collapse_search("def", "repo", k=100)
        groups = t["group"].to_pylist()
        assert len(groups) == len(set(groups))
        # heads ranked by strictly non-increasing score
        scores = t["score"].to_pylist()
        assert scores == sorted(scores, reverse=True)

    def test_expand_members_share_group(self, cidx):
        idx, corpus = cidx
        t = SearchEngine(idx).collapse_search(
            "def read", "lang", k=3, expand_limit=4
        )
        vals = dict(zip(corpus["doc_id"].to_pylist(),
                        corpus["lang"].to_pylist()))
        by_rank: dict = {}
        for r in t.to_pylist():
            by_rank.setdefault(r["rank"], []).append(r)
        for rows in by_rank.values():
            rows.sort(key=lambda r: r["position"])
            g = rows[0]["group"]
            assert [r["position"] for r in rows] == list(range(len(rows)))
            for r in rows:
                assert vals[r["doc_id"]] == g
                assert r["group"] == g
            # members ordered by descending score after the head
            ss = [r["score"] for r in rows]
            assert ss == sorted(ss, reverse=True)

    def test_fq_surface_matches_method(self, cidx):
        idx, _ = cidx
        eng = SearchEngine(idx)
        t = eng.search("def read", k=5, fq=["{!collapse field=lang}"])
        heads = eng.collapse_search("def read", "lang", k=5)
        assert t["doc_id"].to_pylist() == heads["doc_id"].to_pylist()
        assert t["score"].to_pylist() == heads["score"].to_pylist()
        # nullPolicy + paging through the fq surface
        t2 = eng.search(
            "def read", k=3, start=2,
            fq=["{!collapse field=lang nullPolicy=expand}"],
        )
        heads2 = eng.collapse_search("def read", "lang", k=5,
                                     null_policy="expand")
        assert t2["doc_id"].to_pylist() == heads2["doc_id"].to_pylist()[2:5]

    def test_fq_surface_composes_with_plain_fq(self, cidx):
        idx, corpus = cidx
        eng = SearchEngine(idx)
        t = eng.search("def read", k=10,
                       fq=["lang:python", "{!collapse field=repo}"])
        vals = dict(zip(corpus["doc_id"].to_pylist(),
                        corpus["lang"].to_pylist()))
        assert t.num_rows > 0
        assert all(vals[d] == "python" for d in t["doc_id"].to_pylist())
        repos = dict(zip(corpus["doc_id"].to_pylist(),
                         corpus["repo"].to_pylist()))
        seen = [repos[d] for d in t["doc_id"].to_pylist()]
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("q,fld,policy,el", [
        ("def read", "lang", "ignore", 0),
        ("def read", "lang", "expand", 2),
        ("merge pars*", "repo", "collapse", 1),
        ('"def index"', "repo", "ignore", 2),
    ])
    def test_distributed_identity(self, cidx, q, fld, policy, el):
        idx, _ = cidx
        single = SearchEngine(idx).collapse_search(
            q, fld, k=5, null_policy=policy, expand_limit=el
        )
        dist = collapse_partitioned(idx, q, fld, k=5, null_policy=policy,
                                    expand_limit=el)
        assert single.to_pylist() == dist.to_pylist()

    def test_errors(self, cidx):
        idx, _ = cidx
        eng = SearchEngine(idx)
        with pytest.raises(ValueError, match="cannot collapse"):
            eng.collapse_search("def", "doc_id")
        with pytest.raises(ValueError, match="nullPolicy"):
            eng.collapse_search("def", "lang", null_policy="nope")
        with pytest.raises(ValueError, match="at most one"):
            eng.search("def", fq=["{!collapse field=lang}",
                                  "{!collapse field=repo}"])
        with pytest.raises(ValueError, match="requires field"):
            eng.search("def", fq=["{!collapse nullPolicy=expand}"])
        with pytest.raises(ValueError, match="relevance ranking only"):
            eng.search("def", fq=["{!collapse field=lang}"],
                       sort="doclen desc")

    def test_empty_match(self, cidx):
        idx, _ = cidx
        t = SearchEngine(idx).collapse_search("zzznotaterm", "lang")
        assert t.num_rows == 0
        assert t.column_names == ["rank", "position", "doc_id", "score",
                                  "group"]


def test_heads_fast_path_matches_sorted_path():
    """expand_limit=0 takes the scatter-reduction fast path; its heads
    must equal position-0 rows of the sorted (expand) path under score
    ties, null policies and every k."""
    import numpy as np

    from solr_indexer_ray.pipelines.search import _collapse_codes

    rng = np.random.default_rng(11)
    uniq = [f"g{i}" for i in range(6)]
    for trial in range(60):
        n = int(rng.integers(1, 400))
        ids = rng.permutation(10_000)[:n].astype(np.int64)
        scores = rng.choice(np.round(rng.random(12), 2), n)
        codes = rng.integers(-1, 6, n)
        for npol in ("ignore", "expand", "collapse"):
            k = int(rng.integers(1, 8))
            a = _collapse_codes(ids, scores, codes, uniq, k, npol, 0, None)
            b = _collapse_codes(ids, scores, codes, uniq, k, npol, 3, None)
            heads = b.filter(
                np.array([p == 0 for p in b["position"].to_pylist()])
            )
            assert a.num_rows == heads.num_rows, (trial, npol)
            for col in ("rank", "doc_id", "score", "group"):
                assert a[col].to_pylist() == heads[col].to_pylist(), (
                    trial, npol, col,
                )
