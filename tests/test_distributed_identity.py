"""Distributed search answers exactly like the single engine.

``search_partitioned`` and ``PartitionedSearchService.search`` score every
doc range with the engine itself, so their ``(doc_id, score)`` rows must
equal ``SearchEngine.search``'s by ``==`` — over every query shape, on an
index whose ``lang`` is null on every tenth row and which has deletes.
The null rows also pin the positive-filter fix: ``lang:python`` never
matches a doc without a ``lang``, on the scored path or the pure-filter
one, while ``-lang:python`` keeps those docs."""

from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines import mutate
from solr_indexer_ray.pipelines.build import build_index, extend_index
from solr_indexer_ray.pipelines.search import (
    SearchEngine,
    facet_partitioned,
    search_partitioned,
)
from solr_indexer_ray.pipelines.serving import PartitionedSearchService
from solr_indexer_ray.sources.corpus import generate_corpus
from solr_indexer_ray.state.manifest import segment_range

DELETED = [3, 10, 57, 128, 129, 200, 255]
#: block joins over blocks of 7 rows (a parent, then six children that
#: reference it); the blocks at 126 and 252 straddle a doc-range boundary
PARENT = "{!parent which='ptype:parent' key=nodekey ref=pref}"
CHILD = "{!child of='ptype:parent' key=nodekey ref=pref}"

#: (query, search parameters) — every shape the distributed path ships
SHAPES = [
    ("read", {}),
    ("read merge", {}),
    ("read AND merge", {}),
    ("read^3 merge", {}),
    ("pars*", {}),
    ("me?ge read", {}),
    ("merg~1", {}),
    ('"def read"', {}),
    ('"def read"~3', {}),
    ("read -merge", {}),
    ("read -pars*", {}),
    ('read -"def read"', {}),
    ("read merge def", {"mm": "2"}),
    ("read merge", {"pf": "content^2"}),
    ("read merge", {"bf": "recip(doclen,1,1000,1000)"}),
    ("read merge", {"boost": "log(sum(doclen,10))"}),
    ("read merge", {"bq": "lang:python^2"}),
    ("read merge", {"qf": "content^1.5"}),
    ("read", {"fq": ["lang:python"]}),
    ("read", {"fq": ["-lang:go"]}),
    ("*:*", {}),
    ("*:*", {"fq": ["lang:java"]}),
    ("lang:go", {"k": 50}),
    ("lang:python", {}),
    ("-lang:go", {}),
    ("doclen:[30 TO 90]", {}),
    ("doclen:[30 TO 90] read", {}),
    ("read lang:[a TO q]", {}),
    ("(read OR merge) AND lang:python", {}),
    ("(read AND merge) OR (pars* -def)", {}),
    ("merge", {"k": 1000}),
    ("zzqqx", {}),
    # joins link docs across doc ranges: matched over the whole index
    ("read", {"fq": ["{!join from=repo to=repo}lang:go"]}),
    ("read", {"fq": [PARENT + "def"]}),
    ("read merge", {"fq": [CHILD + "usage"]}),
    ("{!join from=repo to=repo}lang:go", {"k": 50}),
    (PARENT + "def", {"k": 50}),
    (CHILD + "usage", {"k": 50, "fq": ["lang:python"]}),
    # collapse keeps one head per group over every range
    ("read", {"fq": ["{!collapse field=lang}"]}),
    ("read merge", {"fq": ["{!collapse field=repo}", "-lang:go"]}),
    ("read", {"k": 20, "fq": ["{!collapse field=lang nullPolicy=expand}"]}),
    ("read", {"fq": ["{!collapse field=lang nullPolicy=collapse}"]}),
]


def _corpus():
    t = generate_corpus(300, seed=7, mean_tokens=60)
    lang = [None if i % 10 == 0 else v
            for i, v in enumerate(t["lang"].to_pylist())]
    t = t.set_column(t.schema.get_field_index("lang"), "lang",
                     pa.array(lang, pa.string()))
    n = t.num_rows
    for name, vals in (
        ("ptype", ["parent" if i % 7 == 0 else "child" for i in range(n)]),
        ("nodekey", [f"n{i}" for i in range(n)]),
        ("pref", [None if i % 7 == 0 else f"n{i - i % 7}"
                  for i in range(n)]),
    ):
        t = t.append_column(name, pa.array(vals, pa.string()))
    return t


@pytest.fixture(scope="module")
def nulls(tmp_path_factory, ray_session):
    """The null-``lang`` index, before and after a delete_by_id."""
    d = tmp_path_factory.mktemp("nulls")
    pq.write_table(_corpus(), str(d / "c.parquet"), row_group_size=64)
    cfg = IndexConfig(docs_per_range=128, store_positions=True,
                      extra_stored=("ptype", "nodekey", "pref"))
    for name in ("idx", "deleted"):
        build_index(str(d / "c.parquet"), str(d / name), config=cfg)
    mutate.delete_by_id(str(d / "deleted"), DELETED)
    return str(d / "idx"), str(d / "deleted")


@pytest.fixture(scope="module")
def segmented(tmp_path_factory, ray_session):
    """The null-``lang`` corpus with deletes, built from its first 100
    rows and then extended four times: ranges 0 and 1 hold several
    postings segments each."""
    d = tmp_path_factory.mktemp("segmented")
    t = _corpus()
    cfg = IndexConfig(docs_per_range=128, store_positions=True,
                      extra_stored=("ptype", "nodekey", "pref"))
    bounds = [0, 100, 140, 180, 230, t.num_rows]
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        path = str(d / f"part-{i}.parquet")
        pq.write_table(t.slice(lo, hi - lo), path, row_group_size=64)
        if i == 0:
            build_index(path, str(d / "idx"), config=cfg)
        else:
            extend_index(path, str(d / "idx"), config=cfg)
    mutate.delete_by_id(str(d / "idx"), DELETED)
    return str(d / "idx")


def _pairs(t):
    return list(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))


def _null_lang(eng):
    return {d for d, v in zip(*(c.to_pylist() for c in eng._field_table(
        "lang").columns)) if v is None}


class TestNullMetadataFilters:
    @pytest.mark.parametrize("q", [
        "read lang:python", "lang:python", "(read OR merge) AND lang:python",
        "read lang:[a TO q]", "lang:[a TO q]",
    ])
    def test_positive_filter_skips_null_field(self, nulls, q):
        idx, _ = nulls
        eng = SearchEngine(idx)
        null = _null_lang(eng)
        assert len(null) > 20
        ref = _pairs(eng.search(q, k=1000, fl=["doc_id"]))
        assert ref and not {d for d, _ in ref} & null, q
        assert _pairs(search_partitioned(idx, q, k=1000)) == ref, q

    def test_scored_range_filter_equals_boolean_form(self, nulls):
        eng = SearchEngine(nulls[0])
        flat = eng.search("read lang:[a TO q]", k=1000, fl=["doc_id"])
        grouped = eng.search("(read) AND lang:[a TO q]", k=1000,
                             fl=["doc_id"])
        assert flat.num_rows == grouped.num_rows == 178
        assert set(flat["doc_id"].to_pylist()) == set(
            grouped["doc_id"].to_pylist())
        assert eng.search("read lang:python", k=1000).num_rows == 25

    def test_null_exclusion_only_for_nullable_fields(self, nulls):
        """The null-row exclusion is added only for a field some docs
        file holds nulls in (read from the parquet footers)."""
        eng = SearchEngine(nulls[0])
        eng.search("read lang:python doclen:[1 TO 500]", k=5)
        assert eng._null_cols == {"lang": True, "doclen": False}

    @pytest.mark.parametrize("q", ["read -lang:python", "read -lang:[a TO q]"])
    def test_negative_filter_keeps_null_field(self, nulls, q):
        idx, _ = nulls
        eng = SearchEngine(idx)
        got = {d for d, _ in _pairs(eng.search(q, k=1000, fl=["doc_id"]))}
        with_read = set(eng.match_ids("read").tolist())
        assert got & _null_lang(eng) == with_read & _null_lang(eng) != set()

    def test_facet_has_no_null_bucket(self, nulls):
        idx, _ = nulls
        eng = SearchEngine(idx)
        ref = eng.facet("read lang:python", ["lang"])
        assert dict(ref["lang"]).get("None") == 0
        assert dict(ref["lang"])["python"] == 25
        assert facet_partitioned(idx, "read lang:python", ["lang"]) == ref


class TestDistributedIdentityMatrix:
    def test_matrix(self, nulls):
        _, idx = nulls
        eng = SearchEngine(idx)
        assert eng.tombstones == set(DELETED)
        bad = []
        with PartitionedSearchService(idx, pool=2) as svc:
            for q, kw in SHAPES:
                kw = dict(kw)
                k = kw.pop("k", 10)
                ref = _pairs(eng.search(q, k=k, fl=["doc_id"], **kw))
                if _pairs(search_partitioned(idx, q, k=k, **kw)) != ref:
                    bad.append(("search_partitioned", q, kw))
                if _pairs(svc.search(q, k=k, **kw)) != ref:
                    bad.append(("PartitionedSearchService", q, kw))
        assert bad == []

    def test_matrix_over_segments(self, segmented, nulls):
        """Doc-range engines over ranges of several postings segments
        answer like the whole engine, and like the index built in one
        go."""
        eng = SearchEngine(segmented)
        ranges = Counter(segment_range(f.split("/")[1])
                         for f in eng.stats["postings_files"])
        shards = int(eng.stats["n_shards"])
        assert ranges[0] > shards and ranges[1] > 2 * shards
        built = SearchEngine(nulls[1])
        bad = []
        for q, kw in SHAPES:
            kw = dict(kw)
            k = kw.pop("k", 10)
            ref = _pairs(eng.search(q, k=k, fl=["doc_id"], **kw))
            if _pairs(search_partitioned(segmented, q, k=k, **kw)) != ref:
                bad.append(("search_partitioned", q, kw))
            if _pairs(built.search(q, k=k, fl=["doc_id"], **kw)) != ref:
                bad.append(("one build", q, kw))
        assert bad == []

    def test_joins_cross_ranges(self, nulls):
        """The join shapes above need another range's docs: a doc joined
        through a ``lang:go`` repo-mate that sits only in other ranges,
        a child whose parent sits in the previous range, and a parent
        whose matching child sits in the next."""
        _, idx = nulls
        eng = SearchEngine(idx)
        t = _corpus()
        repo, pref = t["repo"].to_pylist(), t["pref"].to_pylist()
        go = eng.match_ids("lang:go").tolist()
        joined = eng.match_ids("{!join from=repo to=repo}lang:go").tolist()
        assert any(
            not [g for g in go if g // 128 == d // 128 and repo[g] == repo[d]]
            for d in joined
        )
        kids = eng.match_ids(CHILD + "usage").tolist()
        assert any(int(pref[d][1:]) // 128 != d // 128 for d in kids)
        parents = eng.match_ids(PARENT + "def").tolist()
        assert any(pref[c] == f"n{p}" and c // 128 != p // 128
                   for p in parents for c in eng.match_ids("def").tolist())

    @pytest.mark.parametrize("fq", [
        "{!join from=repo to=repo}lang:go", PARENT + "def", CHILD + "usage",
    ])
    def test_facet_with_join_fq(self, nulls, fq):
        _, idx = nulls
        ref = SearchEngine(idx).facet("read", ["lang", "repo"], fq=[fq])
        assert facet_partitioned(idx, "read", ["lang", "repo"],
                                 fq=[fq]) == ref

    def test_pure_filter_at_k50(self, nulls):
        """The parent's one divergence: ``lang:go`` at k=50 returned the
        null-``lang`` docs 0, 10, 20, ... from the distributed path."""
        _, idx = nulls
        ref = _pairs(SearchEngine(idx).search("lang:go", k=50,
                                              fl=["doc_id"]))
        got = _pairs(search_partitioned(idx, "lang:go", k=50))
        assert got == ref and len(got) < 50
