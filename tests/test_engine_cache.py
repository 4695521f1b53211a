"""The engine's one cache registry (``_Caches``): every cache an LRU with
exact byte accounting under ``term_cache_bytes``, cleared by what it is
derived from, reported by ``cache_stats()``; plus the read-side argument
checks that ride on it (negative ``k``, expansion memos keyed by the cap).

Every read is checked against a freshly opened engine on the same index,
so a stale or mis-evicted entry shows as a wrong answer, not only as a
counter.
"""

import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines import mutate
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.search import (
    SearchEngine,
    _nbytes,
    collapse_partitioned,
    group_partitioned,
    rerank_partitioned,
    search_partitioned,
    sorted_partitioned,
)
from solr_indexer_ray.pipelines.serving import PartitionedSearchService
from solr_indexer_ray.sources.corpus import generate_corpus

GEO = "{!geofilt sfield=lat,lon pt=10,20 d=4000}"
JOIN = "{!join from=repo to=repo}lang:go"
ENV = "{!intersects sfield=bbox}ENVELOPE(-60, 60, 50, -50)"
BF = "recip(doclen,1,1000,1000)"


@pytest.fixture(scope="module")
def cidx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("cacheidx")
    corpus = generate_corpus(200, seed=5, mean_tokens=40)
    n = corpus.num_rows
    lat = [((i * 37) % 1700) / 10.0 - 85.0 for i in range(n)]
    lon = [((i * 73) % 3600) / 10.0 - 180.0 for i in range(n)]
    bbox = [f"ENVELOPE({lo - 5}, {lo + 5}, {min(la + 5, 90.0)}, "
            f"{max(la - 5, -90.0)})" if abs(lo) < 170 else None
            for la, lo in zip(lat, lon)]
    corpus = corpus.append_column("lat", pa.array(lat, pa.float64()))
    corpus = corpus.append_column("lon", pa.array(lon, pa.float64()))
    corpus = corpus.append_column("bbox", pa.array(bbox, pa.string()))
    pq.write_table(corpus, str(d / "c.parquet"))
    build_index(str(d / "c.parquet"), str(d / "idx"),
                config=IndexConfig(docs_per_range=64, store_positions=True,
                                   extra_stored=("lat", "lon", "bbox")))
    return str(d / "idx")


def _copy(idx, tmp_path) -> str:
    dst = str(tmp_path / "idx")
    shutil.copytree(idx, dst)
    return dst


#: (method, query, keyword arguments): terms, phrases, wildcards, fuzzy,
#: fq (term, spatial, envelope, join), a spatial main query, negation,
#: facets, sort= and bf
STREAM = [
    ("search", "def read", {}),
    ("search", '"def index"', {}),
    ("search", "pars*", {}),
    ("search", "*ea*", {}),
    ("search", "read~1", {}),
    ("search", "def", {"fq": "lang:python"}),
    ("search", "def -read", {}),
    ("search", "def", {"sort": "doclen desc", "k": 15}),
    ("search", "def read", {"bf": BF}),
    ("facet", "def", {"fields": ["lang", "repo"]}),
    ("search", "read", {"fq": GEO}),
    ("search", GEO, {"k": 5}),
    ("search", "read", {"fq": ENV}),
    ("search", "read", {"fq": JOIN}),
    ("search", "import -def", {"fq": ["lang:go", GEO]}),
    ("search", "write", {"sort": "path asc"}),
]


def _call(eng, method, q, kw):
    kw = dict(kw)
    if method == "facet":
        return eng.facet(q, kw.pop("fields"), **kw)
    return eng.search(q, **{"k": 10, **kw}).to_pydict()


def _sizes(eng) -> int:
    return sum(_nbytes(e[0]) for m in eng._cache.maps.values()
               for e in m.values())


# --------------------------------------------------------------------- #
# one budget, exact bytes
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("budget", [2_000, 12_000])
def test_small_budget_answers_like_default(cidx, budget):
    """A tiny byte budget evicts constantly across every cache, yet each
    answer equals a default engine's; after every call the total equals
    the sum of the entries' sizes and stays within the budget plus the
    current query's pinned postings."""
    ref = SearchEngine(cidx)
    eng = SearchEngine(cidx)
    eng.term_cache_bytes = budget
    cache = eng._cache
    for i, (method, q, kw) in enumerate(STREAM * 3):
        assert _call(eng, method, q, kw) == _call(ref, method, q, kw), i
        stats = eng.cache_stats()
        total = sum(s["bytes"] for s in stats.values())
        assert total == cache.nbytes == _sizes(eng), i
        pinned = sum(_nbytes(e[0])
                     for k, e in cache.maps["postings"].items()
                     if k in cache.pinned)
        assert total <= budget + pinned, i
        # the last postings lookup's entries are never evicted
        assert cache.pinned <= cache.maps["postings"].keys(), i
        assert all(s["entries"] <= (cache.caps[n] or s["entries"])
                   for n, s in stats.items())
    stats = eng.cache_stats()
    evicted = {n for n, s in stats.items() if s["evictions"]}
    assert {"postings", "fq"} <= evicted
    assert sum(s["hits"] for s in stats.values()) > 0


def test_default_engine_counts_hits_and_misses(cidx):
    eng = SearchEngine(cidx)
    for method, q, kw in STREAM:
        _call(eng, method, q, kw)
    first = eng.cache_stats()
    for method, q, kw in STREAM:
        _call(eng, method, q, kw)
    again = eng.cache_stats()
    for name in ("postings", "patterns", "fuzzy", "fq", "masks", "geo",
                 "dense_fields", "field_codes", "func"):
        assert first[name]["entries"] > 0, name
        assert again[name]["hits"] > first[name]["hits"], name
        assert again[name]["misses"] == first[name]["misses"], name
        assert again[name]["evictions"] == 0, name
    assert eng._cache.nbytes == _sizes(eng)


# --------------------------------------------------------------------- #
# refresh() clears by dependency
# --------------------------------------------------------------------- #
SURVIVE = ("postings", "patterns", "fuzzy", "geo", "dense_fields", "fq",
           "masks")
REBUILT = ("joins",)


def test_delete_keeps_derived_caches_and_masks(cidx, tmp_path):
    """A delete-only commit clears only the caches derived from the
    tombstones or overlays (function columns, and join fq masks);
    expansions, spatial arrays, postings, sort fields and the fq
    (spatial fqs included) and filter masks survive, since reads OR the
    deleted docs in — and every read still equals a fresh engine's."""
    idx = _copy(cidx, tmp_path)
    eng = SearchEngine(idx)
    for method, q, kw in STREAM:
        _call(eng, method, q, kw)
    victim = eng.search("def read", k=1, fl=["doc_id"])["doc_id"][0].as_py()
    before = eng.cache_stats()
    mutate.delete_by_id(idx, [victim])
    assert eng.refresh()
    cleared = eng.cache_stats()
    for name in SURVIVE:
        assert cleared[name]["entries"] == before[name]["entries"], name
    for name in (*REBUILT, "func"):
        assert cleared[name]["entries"] == 0, name
    assert cleared["filters"]["entries"] == before["filters"]["entries"] > 0
    assert {GEO, ENV} <= eng._cache.maps["fq"].keys()
    fresh = SearchEngine(idx)
    for method, q, kw in STREAM:
        assert _call(eng, method, q, kw) == _call(fresh, method, q, kw), q
    after = eng.cache_stats()
    for name in SURVIVE:
        assert after[name]["misses"] == before[name]["misses"], name
        assert after[name]["hits"] > before[name]["hits"], name
    for name in REBUILT:
        assert after[name]["misses"] > before[name]["misses"], name
    assert victim not in eng.search("def read", k=50,
                                    fl=["doc_id"])["doc_id"].to_pylist()
    assert eng._cache.nbytes == _sizes(eng)


def test_atomic_update_rebuilds_function_columns(cidx, tmp_path):
    idx = _copy(cidx, tmp_path)
    eng = SearchEngine(idx)
    doc = eng.search("def read", k=1, fl=["doc_id"])["doc_id"][0].as_py()
    base = eng.search("def read", k=20, bf=BF).to_pydict()
    mutate.atomic_update(idx, [{"doc_id": doc, "doclen": {"set": 1}}])
    assert eng.refresh()
    assert eng.cache_stats()["func"]["entries"] == 0
    got = eng.search("def read", k=20, bf=BF).to_pydict()
    assert got == SearchEngine(idx).search("def read", k=20,
                                           bf=BF).to_pydict()
    assert got != base


def test_new_generation_keeps_only_file_state(cidx, tmp_path):
    """An extend clears every cache derived from the statistics or the
    whole index; decoded postings and filter masks, kept per file, stay
    and grow — and every read still equals a fresh engine's."""
    idx = _copy(cidx, tmp_path)
    eng = SearchEngine(idx)
    for method, q, kw in STREAM:
        _call(eng, method, q, kw)
    more = generate_corpus(40, seed=9, mean_tokens=40,
                           with_edge_rows=False)
    n = more.num_rows
    for name, vals in (("lat", [1.0] * n), ("lon", [2.0] * n),
                       ("bbox", ["ENVELOPE(0, 5, 5, 0)"] * n)):
        more = more.append_column(name, pa.array(vals))
    pq.write_table(more, str(tmp_path / "more.parquet"))
    from solr_indexer_ray.pipelines.build import extend_index

    before = eng.cache_stats()
    extend_index(str(tmp_path / "more.parquet"), idx)
    assert eng.refresh()
    after = eng.cache_stats()
    assert all(s["entries"] == 0 and s["bytes"] == 0
               for name, s in after.items()
               if name not in ("postings", "filters"))
    assert after["postings"]["entries"] == before["postings"]["entries"] > 0
    assert after["filters"]["entries"] == before["filters"]["entries"] > 0
    assert eng._cache.nbytes == _sizes(eng)
    fresh = SearchEngine(idx)
    for method, q, kw in STREAM:
        assert _call(eng, method, q, kw) == _call(fresh, method, q, kw), q
    # the reads brought the postings they used to the new files
    assert eng.refresh_stats()["postings_extended"] > 0
    eng.cache_stats()  # measures the handed-out postings again
    assert eng._cache.nbytes == _sizes(eng)


# --------------------------------------------------------------------- #
# expansion memos are keyed by the cap
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("query", ["*e*", "def~2"])
def test_expansion_memo_honours_a_lowered_cap(cidx, query):
    eng = SearchEngine(cidx)
    full = eng.search(query, k=20).to_pydict()
    eng.max_expansions = 2
    with pytest.raises(ValueError, match="max_expansions"):
        eng.search(query, k=20)
    fresh = SearchEngine(cidx)
    fresh.max_expansions = 2
    with pytest.raises(ValueError, match="max_expansions"):
        fresh.search(query, k=20)
    eng.max_expansions = 1024
    assert eng.search(query, k=20).to_pydict() == full


# --------------------------------------------------------------------- #
# negative k
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("k", [-1, -3])
@pytest.mark.parametrize("query,kw", [
    ("*:*", {}),
    ("lang:python", {}),
    ("def", {"sort": "doclen desc"}),
    ("{!join from=repo to=repo}def", {}),
    ("def read", {}),
    ("def", {"fq": "{!collapse field=lang}"}),
])
def test_negative_k_rejected(cidx, query, kw, k):
    with pytest.raises(ValueError, match="k must be >= 0"):
        SearchEngine(cidx).search(query, k=k, **kw)


def test_negative_k_rejected_distributed(cidx):
    with pytest.raises(ValueError, match="k must be >= 0"):
        search_partitioned(cidx, "def read", k=-1)
    with pytest.raises(ValueError, match="k must be >= 0"):
        sorted_partitioned(cidx, "def", "doclen desc", k=-1)
    with pytest.raises(ValueError, match="k must be >= 0"):
        rerank_partitioned(cidx, "def read", "merge", k=-1)
    assert rerank_partitioned(cidx, "def read", "merge", k=0).num_rows == 0
    with PartitionedSearchService(cidx, pool=1) as svc:
        with pytest.raises(ValueError, match="k must be >= 0"):
            svc.search("def read", k=-1)
        assert svc.search("def read", k=0).num_rows == 0
    assert SearchEngine(cidx).search("def read", k=0).num_rows == 0


def test_negative_k_rejected_more_like_this(tmp_path, ray_session):
    corpus = generate_corpus(60, seed=5, mean_tokens=40)
    pq.write_table(corpus, str(tmp_path / "c.parquet"))
    build_index(str(tmp_path / "c.parquet"), str(tmp_path / "idx"),
                config=IndexConfig(store_content=True))
    eng = SearchEngine(str(tmp_path / "idx"))
    with pytest.raises(ValueError, match="k must be >= 0"):
        eng.more_like_this(3, k=-1, min_doc_freq=1)
    assert eng.more_like_this(3, k=0, min_doc_freq=1).num_rows == 0
    assert eng.more_like_this(3, k=5, min_doc_freq=1).num_rows == 5


@pytest.mark.parametrize("k", [-1, -3])
def test_negative_group_and_collapse_sizes_rejected(cidx, k):
    """Grouping and collapsing reject a negative group count or size, in
    process and per job, as ``search()`` does; 0 stays an empty page."""
    eng = SearchEngine(cidx)
    calls = [
        lambda n: eng.group_search("def", "lang", k_groups=n),
        lambda n: eng.collapse_search("def", "lang", k=n),
        lambda n: group_partitioned(cidx, "def", "lang", k_groups=n),
        lambda n: collapse_partitioned(cidx, "def", "lang", k=n),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="k must be >= 0"):
            call(k)
        assert call(0).num_rows == 0
