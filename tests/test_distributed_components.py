"""Distributed variants of the query components — per-range partials +
small driver merges (no shuffle, no full-match-set materialization):
stats_partitioned / group_partitioned / sorted_partitioned must be
identical to the single-engine implementations, tombstones included."""

import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines import mutate
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.search import (
    SearchEngine,
    group_partitioned,
    sorted_partitioned,
    stats_partitioned,
)
from solr_indexer_ray.sources.corpus import generate_corpus

QUERIES = ["def read", '"def index"', "pars*", "doclen:[30 TO 90] def",
           "read AND merge", "zzqq"]


@pytest.fixture(scope="module")
def didx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("didx")
    corpus = generate_corpus(150, seed=11, mean_tokens=40)
    pq.write_table(corpus, str(d / "c.parquet"), row_group_size=32)
    cfg = IndexConfig(docs_per_range=64, store_positions=True)
    build_index(str(d / "c.parquet"), str(d / "idx"), config=cfg)
    return str(d / "idx")


class TestDistributedComponents:
    def test_stats(self, didx):
        eng = SearchEngine(didx)
        for q in QUERIES:
            assert stats_partitioned(didx, q, "doclen") == eng.field_stats(
                q, "doclen"
            ), q

    def test_group(self, didx):
        eng = SearchEngine(didx)
        for q in QUERIES[:4]:
            a = eng.group_search(q, "lang", k_groups=4, group_limit=2)
            b = group_partitioned(didx, q, "lang", k_groups=4, group_limit=2)
            assert a.equals(b), q

    def test_sorted(self, didx):
        eng = SearchEngine(didx)
        for q, spec in [("def", "doclen desc"),
                        ("def read", "lang asc, doclen desc"),
                        ("merge", "path asc"),
                        ("*:* zzqq", "doclen asc")]:
            a = eng.search(q, k=8, fl=["doc_id"], sort=spec)
            b = sorted_partitioned(didx, q, spec, k=8)
            assert b["doc_id"].to_pylist() == a["doc_id"].to_pylist(), q
            assert b["score"].to_pylist() == a["score"].to_pylist(), q


def test_distributed_respect_tombstones(tmp_path, ray_session):
    corpus = generate_corpus(100, seed=4, mean_tokens=25)
    pq.write_table(corpus, str(tmp_path / "c.parquet"), row_group_size=32)
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c.parquet"), idx,
                config=IndexConfig(docs_per_range=64))
    mutate.delete_by_query(idx, "lang:go")
    eng = SearchEngine(idx)
    assert stats_partitioned(idx, "def", "doclen") == eng.field_stats(
        "def", "doclen"
    )
    assert group_partitioned(idx, "def", "lang", 5, 2).equals(
        eng.group_search("def", "lang", 5, 2)
    )
    a = eng.search("def", k=8, fl=["doc_id"], sort="doclen asc")
    b = sorted_partitioned(idx, "def", "doclen asc", k=8)
    assert b["doc_id"].to_pylist() == a["doc_id"].to_pylist()


class TestDistributedFq:
    """Every range engine applies the fq itself: every distributed
    component with an fq parameter matches its single-engine twin."""

    FQS = [["lang:python"], ["doclen:[40 TO 200]", "-lang:go"]]

    def test_search_partitioned_fq(self, didx):
        from solr_indexer_ray.pipelines.search import (
            SearchEngine,
            search_partitioned,
        )

        idx = didx
        eng = SearchEngine(idx)
        for fq in self.FQS:
            for q in ("def read", "merge value", "pars*"):
                single = eng.search(q, k=10, fl=["doc_id"], fq=fq)
                dist = search_partitioned(idx, q, k=10, fq=fq)
                assert (single["doc_id"].to_pylist()
                        == dist["doc_id"].to_pylist()), (q, fq)
                assert (single["score"].to_pylist()
                        == dist["score"].to_pylist())

    def test_components_fq(self, didx):
        from solr_indexer_ray.pipelines.search import (
            SearchEngine,
            collapse_partitioned,
            facet_partitioned,
            group_partitioned,
            sorted_partitioned,
            stats_partitioned,
        )

        idx = didx
        eng = SearchEngine(idx)
        fq = ["lang:python"]
        q = "def read"
        assert (facet_partitioned(idx, q, ["repo"], fq=fq)
                == eng.facet(q, ["repo"], fq=fq))
        assert (stats_partitioned(idx, q, "doclen", fq=fq)
                == eng.field_stats(q, "doclen", fq=fq))
        assert (stats_partitioned(idx, q, "doclen",
                                  percentiles=[25, 50, 75], fq=fq)
                == eng.field_stats(q, "doclen",
                                   percentiles=[25, 50, 75], fq=fq))
        assert (group_partitioned(idx, q, "repo", k_groups=4,
                                  group_limit=2, fq=fq).to_pylist()
                == eng.group_search(q, "repo", k_groups=4,
                                    group_limit=2, fq=fq).to_pylist())
        assert (collapse_partitioned(idx, q, "repo", k=5,
                                     fq=fq).to_pylist()
                == eng.collapse_search(q, "repo", k=5,
                                       fq=fq).to_pylist())
        assert (sorted_partitioned(idx, q, "doclen desc", k=8,
                                   fq=fq)["doc_id"].to_pylist()
                == eng.search(q, k=8, fl=["doc_id"], sort="doclen desc",
                              fq=fq)["doc_id"].to_pylist())


class TestDistributedTombstones:
    """Tombstones ship per range and apply BEFORE the local top-k: a
    range whose top-k would fill with deleted docs must still surface
    its live matches (regression: the driver-side post-filter lost
    them)."""

    def test_search_after_heavy_deletes(self, tmp_path, ray_session):
        import pyarrow.parquet as pq

        from solr_indexer_ray.pipelines.mutate import delete_by_id
        from solr_indexer_ray.pipelines.search import (
            SearchEngine,
            search_partitioned,
        )
        from solr_indexer_ray.sources.corpus import generate_corpus

        d = str(tmp_path)
        corpus = generate_corpus(150, seed=29, mean_tokens=40)
        pq.write_table(corpus, d + "/c.parquet", row_group_size=32)
        build_index(d + "/c.parquet", d + "/idx",
                    config=IndexConfig(docs_per_range=64,
                                       store_positions=True))
        top = SearchEngine(d + "/idx").search(
            "def read", k=5, fl=["doc_id"]
        )["doc_id"].to_pylist()
        delete_by_id(d + "/idx", top)
        eng = SearchEngine(d + "/idx")
        for q in ("def read", "(def OR read) AND value", "merge pars*",
                  '"def index"'):
            s = eng.search(q, k=3, fl=["doc_id"])
            p = search_partitioned(d + "/idx", q, k=3)
            assert s["doc_id"].to_pylist() == p["doc_id"].to_pylist(), q
            assert s["score"].to_pylist() == p["score"].to_pylist(), q
            for did in top:
                assert did not in p["doc_id"].to_pylist()


class TestDistributedMatchAllAndTreeFq:
    """Match-all / pure-filter queries (per-range first-k at score 0.0)
    and grouped-boolean queries combined with fq (each range engine
    applies the fq) distribute like every other shape."""

    MATCH_ALL = [
        ("", None),                       # bare match-all
        ("lang:python", None),            # pure metadata filter
        ("-lang:go", None),               # pure negative filter
        ("doclen:[30 TO 90]", None),      # pure range filter
        ("", "lang:python"),              # match-all + fq
        ("-merge", None),                 # pure prohibited term
    ]

    def test_match_all_distributed_identity(self, didx):
        from solr_indexer_ray.pipelines.search import search_partitioned

        eng = SearchEngine(didx)
        for q, fq in self.MATCH_ALL:
            a = eng.search(q, k=12, fl=["doc_id"], fq=fq)
            b = search_partitioned(didx, q, k=12, fq=fq)
            assert b["doc_id"].to_pylist() == a["doc_id"].to_pylist(), (q, fq)
            assert b["score"].to_pylist() == a["score"].to_pylist(), (q, fq)

    def test_match_all_respects_tombstones(self, didx, tmp_path):
        import shutil

        from solr_indexer_ray.pipelines.search import search_partitioned

        idx2 = str(tmp_path / "idx2")
        shutil.copytree(didx, idx2)
        eng = SearchEngine(idx2)
        first = eng.search("", k=3, fl=["doc_id"])["doc_id"].to_pylist()
        mutate.delete_by_id(idx2, first)
        eng2 = SearchEngine(idx2)
        a = eng2.search("", k=10, fl=["doc_id"])
        b = search_partitioned(idx2, "", k=10)
        assert b["doc_id"].to_pylist() == a["doc_id"].to_pylist()
        assert not set(first) & set(b["doc_id"].to_pylist())

    def test_grouped_boolean_with_fq_distributed(self, didx):
        from solr_indexer_ray.pipelines.search import search_partitioned

        eng = SearchEngine(didx)
        for q, fq in [
            ("(def OR merge) AND read", "lang:python"),
            ("(read AND def) OR parse", "doclen:[20 TO 200]"),
        ]:
            a = eng.search(q, k=10, fl=["doc_id"], fq=fq)
            b = search_partitioned(didx, q, k=10, fq=fq)
            assert b["doc_id"].to_pylist() == a["doc_id"].to_pylist(), (q, fq)
            assert b["score"].to_pylist() == a["score"].to_pylist(), (q, fq)

    def test_remaining_fallback_is_positional_rebuild_error(self, tmp_path,
                                                            ray_session):
        """A positional exclusion on a NON-positional index —
        distributed must surface the same clear rebuild error the single
        engine raises."""
        import pyarrow.parquet as pq2
        import pytest as _pytest

        from solr_indexer_ray.pipelines.build import build_index as _bi
        from solr_indexer_ray.pipelines.search import search_partitioned
        from solr_indexer_ray.sources.corpus import generate_corpus as _gc

        pq2.write_table(_gc(40, seed=3, mean_tokens=20),
                        str(tmp_path / "c.parquet"))
        idx = str(tmp_path / "idx_nopos")
        _bi(str(tmp_path / "c.parquet"), idx,
            config=IndexConfig(docs_per_range=64))
        with _pytest.raises(ValueError, match="store_positions"):
            search_partitioned(idx, '-"def index"', k=5)


@pytest.fixture(scope="module")
def nidx(tmp_path_factory, ray_session):
    """300 docs over five doc ranges with an int stored field ``stars``
    that holds nulls: every 7th doc and docs 130–189, most of range 2."""
    import pyarrow as pa

    d = tmp_path_factory.mktemp("nidx")
    corpus = generate_corpus(300, seed=17, mean_tokens=40)
    stars = [None if i % 7 == 0 or 130 <= i < 190 else i % 5
             for i in range(corpus.num_rows)]
    corpus = corpus.append_column("stars", pa.array(stars, pa.int64()))
    pq.write_table(corpus, str(d / "c.parquet"), row_group_size=64)
    build_index(str(d / "c.parquet"), str(d / "idx"),
                config=IndexConfig(docs_per_range=64,
                                   extra_stored=("stars",)))
    return str(d / "idx")


class TestIntWithNulls:
    """Group labels, collapse heads and sort order on an int field with
    nulls equal the single engine: the ranges run the engine's own
    collectors, so no range types the column differently."""

    QUERIES = ["def read", "pars* merge", "*:*"]

    def test_group(self, nidx):
        eng = SearchEngine(nidx)
        for q in self.QUERIES:
            for kg, gl in ((3, 1), (10, 2)):
                a = eng.group_search(q, "stars", k_groups=kg,
                                     group_limit=gl)
                b = group_partitioned(nidx, q, "stars", k_groups=kg,
                                      group_limit=gl)
                assert b.equals(a), (q, kg, gl)
            # all five values and the null group
            assert len(set(a["group"].to_pylist())) == 6, q

    @pytest.mark.parametrize("policy", ["ignore", "expand", "collapse"])
    @pytest.mark.parametrize("el", [0, 2])
    def test_collapse(self, nidx, policy, el):
        from solr_indexer_ray.pipelines.search import collapse_partitioned

        eng = SearchEngine(nidx)
        for q in self.QUERIES:
            for rs in (None, 1):
                a = eng.collapse_search(q, "stars", k=6, null_policy=policy,
                                        expand_limit=el, round_scores=rs)
                b = collapse_partitioned(nidx, q, "stars", k=6,
                                         null_policy=policy,
                                         expand_limit=el, round_scores=rs)
                assert b.equals(a), (q, rs)

    def test_sorted(self, nidx):
        eng = SearchEngine(nidx)
        for q in self.QUERIES:
            for spec in ("stars desc", "stars asc", "stars desc, lang asc",
                         "stars asc, score desc"):
                a = eng.search(q, k=12, fl=["doc_id"], sort=spec)
                b = sorted_partitioned(nidx, q, spec, k=12)
                assert b.equals(a), (q, spec)

    def test_collapse_fq_search(self, nidx):
        from solr_indexer_ray.pipelines.search import search_partitioned
        from solr_indexer_ray.pipelines.serving import (
            PartitionedSearchService,
        )

        eng = SearchEngine(nidx)
        cases = [(q, f"{{!collapse field=stars nullPolicy={p}}}")
                 for q in self.QUERIES
                 for p in ("ignore", "expand", "collapse")]
        with PartitionedSearchService(nidx, pool=2) as svc:
            for q, fq in cases:
                a = eng.search(q, k=7, fl=["doc_id"], fq=fq)
                assert search_partitioned(nidx, q, k=7, fq=fq).equals(a), fq
                assert svc.search(q, k=7, fq=fq).equals(a), fq
