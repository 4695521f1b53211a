"""What ``SearchEngine.refresh()`` reuses across a commit.

A refresh opens the new generation keeping everything derived from the
files it shares with the old one: the resident docs state grows by the
new docs files' rows, term-dictionary shards whose files did not change
are kept, decoded postings keep their rows from unchanged files, and
filter masks — evaluated over the resident docs columns — grow by the
new rows.  These tests count what a refresh and the reads after it
actually read, and check the resident filter evaluation against the
parquet scan it replaced.
"""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.functions.queryparse import RangeFilter, SpatialFilter
from solr_indexer_ray.pipelines import mutate
from solr_indexer_ray.pipelines import search as search_mod
from solr_indexer_ray.pipelines.build import build_index, extend_index
from solr_indexer_ray.pipelines.search import (
    SearchEngine,
    _spatial_nonmatch_expr,
    _spatial_pred_expr,
)
from solr_indexer_ray.sources.corpus import generate_corpus
from solr_indexer_ray.state.manifest import BuildManifest

#: ranked, filtered and resolved reads over every per-file state kind
READS = [
    ("def read", {"fq": "lang:python"}),
    ("lang:python def", {}),
    ("def -lang:go", {"fl": ["doc_id", "lang", "path"]}),
    ("read lang:py*", {}),
    ("read doclen:[10 TO 200]", {"fq": ["lang:[a TO q]"]}),
    ('bbox:"Intersects(ENVELOPE(-60, 60, 50, -50))" def', {}),
    ("import -def", {"fq": "lang:go"}),
    ("lang:go", {"k": 30}),
]


@pytest.fixture
def idx(commit_corpus, tmp_path):
    dst = str(tmp_path / "idx")
    shutil.copytree(commit_corpus[0], dst)
    return dst


def _read_all(eng) -> list:
    return [eng.search(q, **{"k": 10, **kw}) for q, kw in READS]


class _Counting:
    """Delegating dataset that records the files of every ``to_table``
    call."""

    def __init__(self, ds, seen):
        self._ds, self._seen = ds, seen

    def to_table(self, *args, **kwargs):
        self._seen.update(getattr(self._ds, "files", ()))
        return self._ds.to_table(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ds, name)


@pytest.fixture
def docs_reads(monkeypatch):
    """The docs files every dataset scan of the engine reads, from the
    moment the test calls ``start()``."""
    seen: set = set()
    real = pads.dataset

    def start():
        monkeypatch.setattr(search_mod.pads, "dataset",
                            lambda *a, **kw: _Counting(real(*a, **kw), seen))
        seen.clear()

    def docs():
        return {os.path.basename(p) for p in seen
                if os.sep + "docs" + os.sep in p}

    start.docs = docs
    return start


def _decompressed(eng) -> dict:
    return {f.key: f.decompressed
            for fs in eng._postings_files.values() for f in fs}


def _docs_files(index_dir) -> set:
    return set(os.listdir(os.path.join(index_dir, "docs")))


class TestRefreshReadsOnlyWhatTheCommitWrote:
    def test_extend(self, idx, commit_corpus, docs_reads):
        eng = SearchEngine(idx)
        _read_all(eng)
        docs_before = _docs_files(idx)
        groups = _decompressed(eng)
        tdict = eng._term_dict
        cached = eng.cache_stats()["postings"]["entries"]
        extend_index(commit_corpus[1][0], idx)
        docs_reads()
        assert eng.refresh()
        stale = eng._n_stale()
        assert stale and eng.refresh_stats()["postings_kept"] + stale == cached
        got = _read_all(eng)
        eng.lookup_dfs(["def", "read"])  # builds the shards they hash to
        stats = eng.refresh_stats()
        new_docs = _docs_files(idx) - docs_before
        assert len(new_docs) == 1
        assert docs_reads.docs() == new_docs
        after = _decompressed(eng)
        kept = [k for k in after if k in groups]
        new = [k for k in after if k not in groups]
        assert kept and new
        assert all(after[k] == groups[k] for k in kept)
        assert eng._term_dict is not tdict
        for s, st in eng._term_dict._shards.items():
            old = tdict._shards.get(s)  # kept only if its files stayed
            assert (st is old) == (old is not None and [
                f.serial for f in st.files] == [f.serial for f in old.files])
        assert stats["generation"] == 2
        assert (stats["docs_files_read"], stats["docs_files_kept"]) == (
            1, len(docs_before))
        assert stats["postings_files_kept"] == len(kept)
        assert stats["postings_files_opened"] == len(new)
        assert stats["term_shards_built"] == eng._term_dict.builds > 0
        assert stats["term_shards_kept"] + stats["term_shards_built"] \
            == len(eng._term_dict._shards)
        assert stats["postings_extended"] > 0
        fresh = SearchEngine(idx)
        for t, want in zip(got, _read_all(fresh)):
            assert t.equals(want)

    @pytest.mark.parametrize("commit", ["delete", "update", "generation"])
    def test_commit_without_new_files(self, idx, docs_reads, commit):
        eng = SearchEngine(idx)
        _read_all(eng)
        groups = _decompressed(eng)
        tdict, builds = eng._term_dict, eng._term_dict.builds
        masks = eng.cache_stats()["fq"]["entries"]
        if commit == "delete":
            mutate.delete_by_id(idx, [3, 60, 61])
        elif commit == "update":
            mutate.atomic_update(idx, [{"doc_id": 4, "lang": "cobol"}])
        else:  # a new generation that changes no file
            m = BuildManifest(idx)
            st = m.read_stats()
            m.commit(dict(st, generation=st["generation"] + 1))
        docs_reads()
        assert eng.refresh()
        got = _read_all(eng)
        assert docs_reads.docs() == set()
        assert _decompressed(eng) == groups
        assert eng._term_dict is tdict and tdict.builds == builds
        stats = eng.refresh_stats()
        assert stats["docs_files_read"] == stats["postings_files_opened"] \
            == stats["postings_extended"] == stats["postings_dropped"] == 0
        if commit != "generation":  # a new generation drops the fq masks
            assert eng.cache_stats()["fq"]["entries"] == masks
        fresh = SearchEngine(idx)
        for t, want in zip(got, _read_all(fresh)):
            assert t.equals(want)

    def test_compact(self, idx, docs_reads):
        eng = SearchEngine(idx)
        _read_all(eng)
        groups = _decompressed(eng)
        mutate.delete_by_id(idx, [3, 60, 61, 150])
        mutate.compact_index(idx)
        docs_reads()
        assert eng.refresh()
        got = _read_all(eng)
        assert docs_reads.docs() == _docs_files(idx)
        after = _decompressed(eng)
        assert not set(after) & set(groups)
        assert sum(after.values()) > 0
        stats = eng.refresh_stats()
        assert stats["docs_files_kept"] == stats["postings_files_kept"] == 0
        fresh = SearchEngine(idx)
        for t, want in zip(got, _read_all(fresh)):
            assert t.equals(want)


def test_changed_shards_rebuilt_unchanged_kept(idx, commit_corpus):
    """After an extend, a shard whose files all stayed is the same object
    and reads nothing; a shard with a new or rewritten file is built
    again from all its files on first use."""
    eng = SearchEngine(idx)
    shards = range(int(eng.stats["n_shards"]))
    for s in shards:
        eng._terms_dict().shard(s)
    for batch in commit_corpus[1][:2]:
        before = dict(eng._term_dict._shards)
        extend_index(batch, idx)
        assert eng.refresh()
        for s in shards:
            st = eng._terms_dict().shard(s)
            same = [f.serial for f in st.files] == [
                f.serial for f in before[s].files]
            assert (st is before[s]) == same
        stats = eng.refresh_stats()
        assert stats["term_shards_kept"] + stats["term_shards_built"] \
            == len(shards)
        assert stats["term_shards_built"] > 0
        fresh = SearchEngine(idx)
        assert eng.lookup_dfs(["def", "read", "lang"]) == \
            fresh.lookup_dfs(["def", "read", "lang"])


def test_partial_carry_across_commits(tmp_path):
    """When a shard's new postings file holds more than one row group, a
    lookup brings over only the cached entries whose new rows sit in the
    row groups it decompresses; the rest stay pending through a second
    commit, and then every cached entry equals a fresh engine's."""
    rng = np.random.default_rng(11)
    letters = np.array(list("bcdfghjkmnpqrtvwxz"))  # no stemmer suffixes
    vocab = sorted({"".join(w) for w in rng.choice(letters, (9000, 6))})
    t = generate_corpus(360, seed=3, with_edge_rows=False)
    t = t.set_column(t.schema.get_field_index("content"), "content",
                     pa.array([" ".join(rng.choice(vocab, 60))
                               for _ in range(t.num_rows)]))
    paths = [str(tmp_path / f"{n}.parquet") for n in ("base", "b1", "b2")]
    for path, part in zip(paths, (t.slice(0, 300), t.slice(300, 30),
                                  t.slice(330))):
        pq.write_table(part, path)
    idx = str(tmp_path / "idx")
    # the first extend fills doc range 0, the second starts range 1
    build_index(paths[0], idx, config=IndexConfig(docs_per_range=330))
    eng = SearchEngine(idx)
    eng.lookup_postings(vocab)
    cached = list(eng._cache.maps["postings"])
    extend_index(paths[1], idx)
    assert eng.refresh()
    eng.lookup_postings(cached[:3])
    stats = eng.refresh_stats()
    assert stats["postings_extended"] > 0
    assert eng._n_stale() > 0  # others wait for their row groups
    extend_index(paths[2], idx)
    assert eng.refresh()
    got = eng.lookup_postings(cached)
    want = SearchEngine(idx).lookup_postings(cached)
    assert got.keys() == want.keys()
    for term, tp in want.items():
        assert np.array_equal(got[term].doc_ids, tp.doc_ids), term
        assert np.array_equal(got[term].tfs, tp.tfs), term
    assert eng._n_stale() == 0


def test_extend_with_another_column_type(idx, commit_corpus, tmp_path):
    """A batch whose stored ``lat`` is int64, not float64, is read with
    the docs table's schema at refresh, as a fresh engine reads it."""
    t = pq.read_table(commit_corpus[1][0])
    t = t.set_column(t.schema.get_field_index("lat"), "lat",
                     pc.cast(pc.round(t["lat"]), pa.int64()))
    path = str(tmp_path / "int-lat.parquet")
    pq.write_table(t, path)
    q, kw = "lat:[0 TO 50]", {"k": 300, "fl": ["doc_id", "lat"]}
    eng = SearchEngine(idx)
    before = eng.search(q, **kw)
    extend_index(path, idx)
    assert eng.refresh()
    got = eng.search(q, **kw)
    assert got.num_rows > before.num_rows
    assert got.equals(SearchEngine(idx).search(q, **kw))


# --------------------------------------------------------------------- #
# filters over the resident docs columns
# --------------------------------------------------------------------- #
def _scan(eng, expr) -> np.ndarray:
    """The docs rows a parquet scan filter keeps (the replaced path)."""
    ids = eng._docs_ds.to_table(columns=["doc_id"], filter=expr)
    return np.sort(ids["doc_id"].to_numpy())


def _clauses(eng):
    """(key, expression factory, columns) of filter clauses over null
    and non-null rows: equality, prefix, ranges, envelopes."""
    env = SpatialFilter("bbox", "Intersects", -60.0, 60.0, -50.0, 50.0)
    within = SpatialFilter("bbox", "IsWithin", -120.0, 120.0, -60.0, 60.0)
    out = []
    for fld, val in (("lang", "python"), ("lang", "py*"), ("repo", "r*")):
        e = eng._filter_value_expr(fld, val)
        out.append((("in", fld, val), lambda e=e: e, [fld]))
        out.append((("out", fld, val),
                    lambda e=e, f=fld: eng._or_null(~e, f), [fld]))
    for rf in (RangeFilter("lang", "a", "q"), RangeFilter("doclen", "20", None),
               RangeFilter("lang", None, None)):
        e = eng._range_expr(rf)
        out.append((("in", rf), lambda e=e: e, [rf.field]))
        out.append((("out", rf),
                    lambda e=e, f=rf.field: eng._or_null(~e, f), [rf.field]))
    for sf in (env, within):
        cols = [f"bbox_{p}" for p in ("west", "east", "south", "north")]
        out.append((("in", sf), lambda sf=sf: _spatial_pred_expr(sf), cols))
        out.append((("out", sf), lambda sf=sf: _spatial_nonmatch_expr(sf),
                    cols))
    return out


def test_resident_filters_equal_the_parquet_scan(idx, commit_corpus):
    """Every clause's rows, evaluated over the resident columns, equal the
    parquet scan's on a multi-file docs table with null rows — at open,
    and grown over the rows of two extends."""
    eng = SearchEngine(idx)
    assert len(eng._docs_files) == 5
    for rnd in range(3):
        nulls = pc.sum(pc.is_null(eng._field_table("lang")["lang"])).as_py()
        assert nulls > 0
        for key, expr, cols in _clauses(eng):
            mask = eng._filter_rows(key, expr, cols)
            assert mask.size == eng.doc_space
            assert np.array_equal(np.flatnonzero(mask), _scan(eng, expr())), \
                (rnd, key)
        if rnd < 2:
            extend_index(commit_corpus[1][rnd], idx)
            assert eng.refresh()
            assert eng.refresh_stats()["docs_files_read"] == 1
