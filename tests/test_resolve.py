"""Stored-field resolve by doc-id position (``SearchEngine._resolve``).

Stored fields are gathered by docs-table row position from columns kept
in memory per index generation.  These tests pin the gather to the
filtered docs-table scan it replaced (bit-identical tables), keep the
per-read scan from coming back, and cover the edges around it: ``k=0``
(Solr ``rows=0``), realtime ``get`` and per-field caches after a
commit."""

import json
import random
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index, extend_index
from solr_indexer_ray.pipelines.mutate import apply_overlay, delete_by_id
from solr_indexer_ray.pipelines.search import (
    SearchEngine,
    group_partitioned,
    search_partitioned,
)
from solr_indexer_ray.sources.corpus import generate_corpus

CFG = IndexConfig(
    docs_per_range=64, block_size=16, concurrency=2, validate=True,
    store_content=True, store_positions=True, extra_stored=("meta_json",),
)

FLS = [
    None,
    ["*"],
    ["doc_id", "lang"],
    ["path", "doclen"],
    ["lang"],
    ["doc_id", "meta_json:[json]"],
    ["meta_json:[json]", "repo"],
    ["content", "doc_id"],
]


def _with_meta(corpus: pa.Table, base: int) -> pa.Table:
    meta = [json.dumps({"n": base + i}) for i in range(corpus.num_rows)]
    return corpus.append_column("meta_json", pa.array(meta))


def _write(corpus: pa.Table, path: str) -> str:
    pq.write_table(corpus, path, row_group_size=48)
    return path


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("resolve")
    a = _with_meta(generate_corpus(220, seed=13, mean_tokens=40), 0)
    b = _with_meta(
        generate_corpus(90, seed=14, mean_tokens=40, with_edge_rows=False),
        a.num_rows,
    )
    return _write(a, str(root / "a.parquet")), _write(b, str(root / "b.parquet"))


@pytest.fixture(scope="module")
def base_index(corpora, tmp_path_factory):
    index_dir = str(tmp_path_factory.mktemp("resolve_idx") / "idx")
    build_index(corpora[0], index_dir, config=CFG)
    return index_dir


@pytest.fixture
def index_copy(base_index, tmp_path):
    """A private copy of the base index (tests below mutate it)."""
    dst = str(tmp_path / "idx")
    shutil.copytree(base_index, dst)
    return dst


def _scan_resolve(eng, hits, fl=None) -> pa.Table:
    """The filtered docs-table scan the positional gather replaced."""
    fl = list(fl) if fl else eng.stored_fields
    fl, fl_transforms = eng._parse_fl(fl)
    ids = [d for d, _ in hits]
    scores = {d: s for d, s in hits}
    cols = sorted(set(fl) | {"doc_id"})
    if not ids:
        t = eng._docs_ds.to_table(columns=cols,
                                  filter=pc.field("doc_id") == -1)
        t = t.append_column("score", pa.array([], pa.float64())).select(
            [*fl, "score"]
        )
        return eng._apply_fl_transforms(t, fl_transforms)
    t = eng._docs_ds.to_table(columns=cols,
                              filter=pc.field("doc_id").isin(ids))
    pos = {d: i for i, d in enumerate(ids)}
    t = t.take(np.argsort([pos[d] for d in t["doc_id"].to_pylist()]))
    t = t.append_column(
        "score", pa.array([scores[d] for d in t["doc_id"].to_pylist()])
    )
    t = eng._apply_overlays(t)
    return eng._apply_fl_transforms(t.select([*fl, "score"]), fl_transforms)


def _scan_get(eng, doc_id, fl=None):
    """The filtered-scan realtime get the locator gather replaced."""
    if doc_id in eng.tombstones:
        return None
    t = eng._docs_ds.to_table(filter=pc.field("doc_id") == doc_id)
    if t.num_rows == 0:
        return None
    row = eng._apply_overlays(t).to_pylist()[0]
    if fl:
        row = {k: v for k, v in row.items() if k in fl}
    return row


def _random_hits(rng, eng):
    holes = np.flatnonzero(~eng.present).tolist()
    pool = list(range(-3, eng.doc_space + 3))
    n = rng.choice([0, 1, 3, 10, 25])
    ids = rng.sample(pool, n)
    if holes and n:
        ids[rng.randrange(n)] = rng.choice(holes)
    if n > 2 and rng.random() < 0.3:
        ids.append(ids[0])  # a repeated id keeps its last hit
    return [(d, round(rng.uniform(0.0, 20.0), 6)) for d in ids]


def _assert_resolve_equivalent(eng, seed: int, rounds: int = 60):
    rng = random.Random(seed)
    for r in range(rounds):
        hits = _random_hits(rng, eng)
        fl = FLS[r % len(FLS)]
        want = _scan_resolve(eng, hits, fl)
        got = eng._resolve(hits, fl)
        assert got.equals(want), (hits, fl)
        assert got.schema == want.schema, (hits, fl)


class TestResolveEquivalence:
    def test_index_shape(self, base_index):
        eng = SearchEngine(base_index)
        assert len(eng._docs_ds.files) > 1
        assert (~eng.present).any()  # inline-validation holes

    def test_randomized_hits(self, base_index):
        _assert_resolve_equivalent(SearchEngine(base_index), seed=1)

    def test_empty_hits(self, base_index):
        eng = SearchEngine(base_index)
        for fl in FLS:
            got = eng._resolve([], fl)
            assert got.num_rows == 0
            assert got.equals(_scan_resolve(eng, [], fl))

    def test_holes_only(self, base_index):
        eng = SearchEngine(base_index)
        holes = np.flatnonzero(~eng.present).tolist()
        hits = [(d, 1.0) for d in [*holes, -1, eng.doc_space]]
        got = eng._resolve(hits)
        assert got.num_rows == 0
        assert got.equals(_scan_resolve(eng, hits))

    def test_search_results(self, base_index):
        eng = SearchEngine(base_index)
        for q in ["def index", "parse merge", "lang:python read", ""]:
            hits = [(d, s) for d, s in zip(
                *eng.search(q, k=15, fl=["doc_id"]).to_pydict().values()
            )]
            for fl in FLS:
                assert eng.search(q, k=15, fl=fl).equals(
                    _scan_resolve(eng, hits, fl)
                ), (q, fl)

    def test_overlays(self, index_copy):
        apply_overlay(index_copy, [
            {"doc_id": 4, "column": "lang", "value": "cobol"},
            {"doc_id": 9, "column": "doclen", "value": 7},
            {"doc_id": 11, "column": "tag", "value": "x"},
        ])
        eng = SearchEngine(index_copy)
        _assert_resolve_equivalent(eng, seed=2)
        hits = [(9, 2.0), (4, 1.5), (11, 1.0)]
        for fl in (None, ["doc_id", "lang", "doclen"], ["doc_id"]):
            got = eng._resolve(hits, fl)
            assert got.equals(_scan_resolve(eng, hits, fl)), fl
        assert eng._resolve(hits, ["lang"])["lang"].to_pylist()[1] == "cobol"

    def test_unknown_field_same_error(self, base_index):
        eng = SearchEngine(base_index)
        for hits in ([(1, 1.0), (2, 0.5)], []):
            with pytest.raises(pa.ArrowInvalid):
                _scan_resolve(eng, hits, ["doc_id", "nope"])
            with pytest.raises(pa.ArrowInvalid):
                eng._resolve(hits, ["doc_id", "nope"])

    def test_after_extend_and_refresh(self, index_copy, corpora):
        eng = SearchEngine(index_copy)
        _assert_resolve_equivalent(eng, seed=3, rounds=16)
        extend_index(corpora[1], index_copy, config=CFG)
        assert eng.refresh()
        _assert_resolve_equivalent(eng, seed=4)
        fresh = SearchEngine(index_copy)
        hits = [(d, 1.0) for d in range(eng.doc_space - 30, eng.doc_space)]
        assert eng._resolve(hits).equals(fresh._resolve(hits))


class _CountingDataset:
    """Delegating docs dataset that counts ``to_table`` calls."""

    def __init__(self, ds):
        self._ds = ds
        self.reads = 0

    def to_table(self, *args, **kwargs):
        self.reads += 1
        return self._ds.to_table(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ds, name)


class TestResolvePerfGuard:
    def test_no_docs_reads_after_first_search(self, base_index):
        eng = SearchEngine(base_index)
        terms = ["def", "index", "parse", "merge", "read", "buffer",
                 "write", "return", "class", "import"]
        eng.search("def index", k=10)
        counting = _CountingDataset(eng._docs_ds)
        eng._docs_ds = counting
        for i in range(50):
            q = f"{terms[i % len(terms)]} {terms[(3 * i + 1) % len(terms)]}"
            assert eng.search(q, k=10).num_rows > 0
        assert counting.reads == 0


class TestRowsZero:
    def test_ranked(self, base_index):
        eng = SearchEngine(base_index)
        for q in ["def index", "(def OR index) AND read", '"def index"',
                  "lang:python def"]:
            for fl in (None, ["doc_id"]):
                t = eng.search(q, k=0, fl=fl)
                assert t.num_rows == 0, q
                assert t.schema == eng.search(q, k=3, fl=fl).schema, q
        t = eng.search("def", k=0, fq=["lang:python"])
        assert t.num_rows == 0

    def test_sorted(self, base_index):
        eng = SearchEngine(base_index)
        for sort in ("doclen desc", "doc_id asc", "score desc",
                     "lang asc, doclen desc"):
            for start in (0, 3):
                t = eng.search("def", k=0, sort=sort, start=start)
                assert t.num_rows == 0, sort
                assert t.schema == eng.search(
                    "def", k=3, sort=sort).schema, sort

    def test_grouped(self, base_index):
        eng = SearchEngine(base_index)
        ref = eng.group_search("def", "lang", k_groups=3)
        for kg, lim in ((0, 1), (3, 0)):
            t = eng.group_search("def", "lang", k_groups=kg, group_limit=lim)
            assert t.num_rows == 0
            assert t.schema == ref.schema

    def test_partitioned(self, base_index):
        t = search_partitioned(base_index, "def index", k=0)
        assert t.num_rows == 0
        assert t.schema == search_partitioned(base_index, "def index",
                                              k=3).schema
        g = group_partitioned(base_index, "def", "lang", k_groups=0)
        assert g.num_rows == 0


class TestRealtimeGet:
    def test_matches_filtered_scan(self, index_copy):
        apply_overlay(index_copy, [
            {"doc_id": 5, "column": "lang", "value": "cobol"},
            {"doc_id": 6, "column": "tag", "value": "x"},
        ])
        delete_by_id(index_copy, [7, 8])
        eng = SearchEngine(index_copy)
        for d in range(-2, eng.doc_space + 2):
            for fl in (None, ["doc_id", "lang"], ["tag", "path"],
                       ["content"]):
                got, want = eng.get(d, fl), _scan_get(eng, d, fl)
                assert got == want, (d, fl)
                assert list(got or ()) == list(want or ()), (d, fl)

    def test_edges(self, index_copy):
        apply_overlay(index_copy,
                      [{"doc_id": 5, "column": "lang", "value": "cobol"}])
        delete_by_id(index_copy, [7])
        eng = SearchEngine(index_copy)
        hole = int(np.flatnonzero(~eng.present)[0])
        assert eng.get(7) is None                   # tombstoned
        assert eng.get(hole) is None                # validation hole
        assert eng.get(eng.doc_space + 5) is None   # outside the id space
        assert eng.get(5)["lang"] == "cobol"        # overlay applied
        assert set(eng.get(5, fl=["lang", "path"])) == {"lang", "path"}
        assert eng.get(4)["content"]


class TestRefreshAfterExtend:
    def test_refreshed_engine_matches_fresh(self, index_copy, corpora):
        eng = SearchEngine(index_copy)
        q = "def"
        # warm every per-field and dictionary cache on the old generation
        eng.facet(q, ["lang", "repo"])
        eng.search(q, k=10, sort="doclen desc")
        eng.search(q, k=10, sort="lang asc, doclen desc")
        eng.search("pars*", k=10)
        eng.lookup_dfs(["def", "index", "zzz"])
        eng.search(q, k=10)
        eng.group_search(q, "lang", k_groups=3)

        extend_index(corpora[1], index_copy, config=CFG)
        assert eng.refresh()
        fresh = SearchEngine(index_copy)

        assert eng.facet(q, ["lang", "repo"]) == fresh.facet(q, ["lang",
                                                               "repo"])
        for sort in ("doclen desc", "lang asc, doclen desc"):
            assert eng.search(q, k=25, sort=sort).equals(
                fresh.search(q, k=25, sort=sort)), sort
        assert eng.search("pars*", k=25).equals(fresh.search("pars*", k=25))
        assert eng.lookup_dfs(["def", "index", "zzz"]) == fresh.lookup_dfs(
            ["def", "index", "zzz"])
        assert eng.search(q, k=25).equals(fresh.search(q, k=25))
        assert eng.group_search(q, "lang", k_groups=3).equals(
            fresh.group_search(q, "lang", k_groups=3))
