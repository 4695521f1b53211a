"""The resident term dictionary (``_TermDict``) that serves every postings
and df read of a ``SearchEngine``.

The reference is the read path it replaced: one filtered scan of the hive
postings dataset per cache miss, kept here verbatim (``scan_postings``,
``scan_dfs``, ``scan_terms``, ``scan_n_terms``).  Every read through the
dictionary must equal it exactly — same arrays, dtypes, df and cf — on a
multi-range index with positions, bigrams and an extra analyzed field,
and across extend, delete + compact and a commit that changes no file.
The row groups those reads decompress stay resident, shared by the
engines of a process and trimmed to the reading engine's byte budget;
the tests at the end check the sharing, the budget and the isolation
between engines.
"""

import gc
import os
import random
import shutil
import sys
import threading

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.functions.hashing import term_shard
from solr_indexer_ray.functions.varint import decode_doc_ids, varint_decode
from solr_indexer_ray.pipelines import mutate
from solr_indexer_ray.pipelines.build import build_index, extend_index
from solr_indexer_ray.pipelines.search import (
    _RESIDENT,
    _SYNTHETIC_TERM_RE,
    SearchEngine,
    _range_engines,
    _resident_nbytes,
)
from solr_indexer_ray.sources.corpus import generate_corpus
from solr_indexer_ray.state.manifest import BuildManifest

CFG = IndexConfig(docs_per_range=48, concurrency=2,
                  store_positions=True, store_bigrams=True,
                  analyzed_fields=("path_text:path",))


# --------------------------------------------------------------------- #
# the dataset-scan reads the dictionary replaced (reference)
# --------------------------------------------------------------------- #
def new_generation(index_dir) -> None:
    """A commit that changes no file: the same stats, one generation
    on."""
    m = BuildManifest(index_dir)
    stats = m.read_stats()
    m.commit(dict(stats, generation=stats["generation"] + 1))


def postings_ds(eng):
    """The hive dataset of the postings files the engine's generation
    lists."""
    root = os.path.join(eng.index_dir, "postings")
    return pads.dataset(
        [os.path.join(root, f)
         for f in eng.manifest.committed_files(eng.stats, "postings")],
        partitioning="hive", partition_base_dir=root)


def scan_postings(eng, terms, with_positions=False) -> dict:
    """term -> (df, cf, doc_ids, tfs, [(n, blob, tfs)] or None) from one
    filtered scan of the engine's postings dataset."""
    terms = sorted(set(terms))
    shards = sorted({term_shard(t, int(eng.stats["n_shards"]))
                     for t in terms})
    cols = ["term", "range_id", "doc_ids", "tfs"]
    if with_positions:
        cols.append("positions")
    tbl = postings_ds(eng).to_table(
        columns=cols,
        filter=pc.field("shard").isin(shards) & pc.field("term").isin(terms),
    )
    by_term: dict = {}
    cells = {c: tbl[c].to_pylist() for c in cols}
    for i in range(tbl.num_rows):
        by_term.setdefault(cells["term"][i], []).append((
            cells["range_id"][i],
            decode_doc_ids(cells["doc_ids"][i]),
            varint_decode(cells["tfs"][i]).astype(np.int64),
            (cells["positions"][i] or b"") if with_positions else None,
        ))
    out = {}
    for term, rows in by_term.items():
        rows.sort(key=lambda r: (r[0], r[1][0]))  # range, then segment
        out[term] = (
            int(sum(len(r[1]) for r in rows)),
            int(sum(int(r[2].sum()) for r in rows)),
            *(np.concatenate([r[k] for r in rows]) for k in range(1, 3)),
            [(len(r[2]), r[3], r[2]) for r in rows]
            if with_positions else None,
        )
    return out


def scan_dfs(eng, terms) -> dict:
    terms = sorted(set(terms))
    shards = sorted({term_shard(t, int(eng.stats["n_shards"]))
                     for t in terms})
    tbl = postings_ds(eng).to_table(
        columns=["term", "df"],
        filter=pc.field("shard").isin(shards) & pc.field("term").isin(terms),
    )
    agg = pa.TableGroupBy(tbl, "term").aggregate([("df", "sum")])
    return {t: int(d) for t, d in sorted(zip(agg["term"].to_pylist(),
                                             agg["df_sum"].to_pylist()))}


def _default_field(eng, t):
    if eng.scored_fields or eng.has_bigrams:
        t = t.filter(pc.invert(
            pc.match_substring_regex(t["term"], _SYNTHETIC_TERM_RE)
        ))
    return t


def scan_terms(eng, prefix="", limit=10, mincount=1, sort="count"):
    flt = None
    if prefix:
        hi = prefix[:-1] + chr(ord(prefix[-1]) + 1)
        flt = (pc.field("term") >= prefix) & (pc.field("term") < hi)
    t = _default_field(eng, postings_ds(eng).to_table(columns=["term", "df"],
                                                     filter=flt))
    agg = pa.TableGroupBy(t, "term").aggregate([("df", "sum")])
    rows = sorted(
        zip(agg["term"].to_pylist(), agg["df_sum"].to_pylist()),
        key=(lambda r: (-r[1], r[0])) if sort == "count"
        else (lambda r: r[0]),
    )
    return [(t_, int(c)) for t_, c in rows if c >= mincount][:limit]


def scan_n_terms(eng) -> int:
    t = _default_field(eng, postings_ds(eng).to_table(columns=["term"]))
    return len(pc.unique(t["term"]))


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #
def assert_same(got: dict, exp: dict, with_positions: bool):
    """``got`` (TermPostings) equals the scan's ``exp``, which must be
    read with positions.  A read without positions may still hand out a
    cached entry that has them; its blobs must match too."""
    assert sorted(got) == sorted(exp)
    for term, tp in got.items():
        df, cf, ids, tfs, pos = exp[term]
        assert (tp.term, tp.df, tp.cf) == (term, df, cf), term
        for a, b in ((tp.doc_ids, ids), (tp.tfs, tfs)):
            assert a.dtype == b.dtype and np.array_equal(a, b), term
        if with_positions:
            assert tp.pos_raw is not None, term
        if tp.pos_raw is not None:
            assert len(tp.pos_raw) == len(pos), term
            for (n, blob, rtfs, ends), (n2, blob2, rtfs2) in zip(tp.pos_raw,
                                                                 pos):
                assert (n, blob, ends) == (n2, blob2, None), term
                assert rtfs.dtype == rtfs2.dtype
                assert np.array_equal(rtfs, rtfs2), term


def all_terms(index_dir) -> list:
    t = pads.dataset(os.path.join(index_dir, "postings"),
                     partitioning="hive").to_table(columns=["term"])
    return sorted(set(t["term"].to_pylist()))


def term_sets(index_dir, n, seed) -> list:
    """Random lookups: present terms of every kind (default-field,
    fielded ``fld\\x1fterm``, bigram ``a\\x1eb``) mixed with absent
    ones."""
    rng = random.Random(seed)
    vocab = all_terms(index_dir)
    kinds = [[t for t in vocab if "\x1f" in t],
             [t for t in vocab if "\x1e" in t],
             [t for t in vocab if "\x1e" not in t and "\x1f" not in t]]
    assert all(kinds)
    absent = ["zzqx", "path_text\x1fzzqx", "def\x1ezzqx", "", "ü"]
    out = []
    for _ in range(n):
        ts = [rng.choice(rng.choice(kinds)) for _ in range(rng.randint(1, 6))]
        ts += rng.sample(absent, rng.randint(0, 2))
        out.append(ts)
    return out


def files_of(eng) -> list:
    """The engine's postings files (:class:`_PostingsFile`)."""
    return [f for fs in eng._postings_files.values() for f in fs]


def check_reads(eng, index_dir, n=25, seed=0):
    for i, ts in enumerate(term_sets(index_dir, n, seed)):
        wp = bool(i % 2)
        assert_same(eng.lookup_postings(ts, with_positions=wp),
                    scan_postings(eng, ts, True), wp)
        assert eng.lookup_dfs(ts) == scan_dfs(eng, ts)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    d = tmp_path_factory.mktemp("tdict")
    full = generate_corpus(260, seed=5, mean_tokens=40, with_edge_rows=False)
    paths = []
    for name, part in (("a", full.slice(0, 170)), ("b", full.slice(170))):
        paths.append(str(d / f"{name}.parquet"))
        pq.write_table(part, paths[-1], row_group_size=40)
    build_index(paths[0], str(d / "idx"), config=CFG)
    return str(d), paths


@pytest.fixture
def index_copy(corpora, tmp_path):
    root, _ = corpora
    dst = str(tmp_path / "idx")
    shutil.copytree(os.path.join(root, "idx"), dst)
    return dst


# --------------------------------------------------------------------- #
# equality with the dataset scan
# --------------------------------------------------------------------- #
class TestEqualsScan:
    def test_random_term_sets(self, index_copy):
        eng = SearchEngine(index_copy)
        assert len(postings_ds(eng).files) > 8  # several shards x ranges
        check_reads(eng, index_copy, n=60, seed=1)

    def test_cold_reads(self, index_copy):
        """Each set on a fresh engine: the dictionary build itself."""
        for ts in term_sets(index_copy, 6, seed=2):
            got = SearchEngine(index_copy).lookup_postings(ts)
            assert all(tp.pos_raw is None for tp in got.values())
            assert_same(got, scan_postings(SearchEngine(index_copy), ts,
                                           True), False)

    def test_positions_upgrade(self, index_copy):
        eng = SearchEngine(index_copy)
        ts = term_sets(index_copy, 1, seed=3)[0]
        eng.lookup_postings(ts)
        assert_same(eng.lookup_postings(ts, with_positions=True),
                    scan_postings(eng, ts, True), True)

    def test_absent_terms_cached_as_none(self, index_copy):
        eng = SearchEngine(index_copy)
        assert eng.lookup_postings(["zzqx", "def"]).keys() == {"def"}
        assert eng._cache.maps["postings"]["zzqx"][0] is None
        assert eng.lookup_dfs(["zzqx"]) == {}

    @pytest.mark.parametrize("kw", [
        {}, {"prefix": "de"}, {"prefix": "p", "limit": 50},
        {"mincount": 30, "limit": 100}, {"sort": "index", "limit": 40},
        {"prefix": "re", "sort": "index", "mincount": 3},
        {"prefix": "zzz"}, {"limit": 10_000},
    ])
    def test_terms_component(self, index_copy, kw):
        eng = SearchEngine(index_copy)
        got = eng.terms(**kw)
        assert got == scan_terms(eng, **kw)
        assert all(type(t) is str and type(c) is int for t, c in got)

    def test_luke_distinct_terms(self, index_copy):
        eng = SearchEngine(index_copy)
        assert eng.luke()["n_terms"] == scan_n_terms(eng)


# --------------------------------------------------------------------- #
# index generations
# --------------------------------------------------------------------- #
class TestGenerations:
    def test_after_extend_and_refresh(self, index_copy, corpora):
        eng = SearchEngine(index_copy)
        check_reads(eng, index_copy, n=6, seed=4)
        before = [f for fs in eng._postings_files.values() for f in fs]
        extend_index(corpora[1][1], index_copy, config=CFG)
        assert eng.refresh()
        check_reads(eng, index_copy, n=30, seed=5)
        assert eng.terms(limit=30) == scan_terms(eng, limit=30)
        # files the extend left alone are reused, rewritten ones reread
        after = [f for fs in eng._postings_files.values() for f in fs]
        reused = [f for f in after if any(f is b for b in before)]
        assert 0 < len(reused) < len(after)

    def test_extend_without_refresh_pins_old_generation(self, index_copy,
                                                        corpora):
        """A built dictionary keeps reading the bytes its row positions
        came from, even though extend replaces boundary range files
        under the same name."""
        eng = SearchEngine(index_copy)
        sets = term_sets(index_copy, 12, seed=6)
        before = [scan_postings(eng, ts, True) for ts in sets]
        dfs_before = [scan_dfs(eng, ts) for ts in sets]
        eng.lookup_dfs(["def"])  # builds the dictionary
        extend_index(corpora[1][1], index_copy, config=CFG)
        for ts, exp, dfs in zip(sets, before, dfs_before):
            assert_same(eng.lookup_postings(ts, with_positions=True), exp,
                        True)
            assert eng.lookup_dfs(ts) == dfs
        # the new generation really differs from the pinned one
        fresh = SearchEngine(index_copy)
        assert any(scan_dfs(fresh, ts) != dfs
                   for ts, dfs in zip(sets, dfs_before))

    def test_extend_before_first_read_without_refresh(self, index_copy,
                                                      corpora):
        """An engine opened before an extend and first read after it
        still reads the generation it opened: its postings handles were
        taken at open."""
        eng = SearchEngine(index_copy)
        sets = term_sets(index_copy, 12, seed=7)
        before = [scan_postings(eng, ts, True) for ts in sets]
        extend_index(corpora[1][1], index_copy, config=CFG)
        for ts, exp in zip(sets, before):
            assert_same(eng.lookup_postings(ts, with_positions=True), exp,
                        True)
        eng.search('"def index" read', k=5)
        eng.search("def read", k=5, fl=["doc_id", "path"])
        fresh = SearchEngine(index_copy)
        assert eng.refresh()
        assert eng.search("def read", k=5).equals(
            fresh.search("def read", k=5))

    def test_commit_keeps_untouched_files_resident(self, index_copy,
                                                   corpora):
        """After extend + refresh, the files the extend left alone answer
        from their resident row groups (no decompression), new and
        rewritten ones are read from disk, and every read equals the
        dataset scan."""
        eng = SearchEngine(index_copy)
        eng.lookup_postings(all_terms(index_copy), with_positions=True)
        before = {f.key for f in files_of(eng)}
        extend_index(corpora[1][1], index_copy, config=CFG)
        assert eng.refresh()
        done = {id(f): f.decompressed for f in files_of(eng)}
        vocab = all_terms(index_copy)
        assert_same(eng.lookup_postings(vocab, with_positions=True),
                    scan_postings(eng, vocab, True), True)
        kept = [f for f in files_of(eng) if f.key in before]
        read = [f for f in files_of(eng) if f.key not in before]
        assert kept and read
        assert all(f.decompressed == done[id(f)] for f in kept)
        assert all(f.decompressed > done[id(f)] for f in read)
        check_reads(eng, index_copy, n=10, seed=14)

    def test_after_delete_and_compact(self, index_copy):
        eng = SearchEngine(index_copy)
        check_reads(eng, index_copy, n=4, seed=8)
        mutate.delete_by_id(index_copy, [1, 2, 3, 50, 51, 99, 120])
        mutate.compact_index(index_copy)
        assert eng.refresh()
        check_reads(eng, index_copy, n=30, seed=9)
        assert eng.luke()["n_terms"] == scan_n_terms(eng)

    def test_after_commit_without_postings_changes(self, index_copy):
        eng = SearchEngine(index_copy)
        check_reads(eng, index_copy, n=4, seed=10)
        new_generation(index_copy)
        assert eng.refresh()
        check_reads(eng, index_copy, n=20, seed=11)

    def test_long_lived_engine_equals_fresh_through_every_commit(
            self, commit_corpus, tmp_path):
        """One engine refreshed through a seeded run of every kind of
        commit answers every read shape — ranked with fq, negation,
        in-query, null-field, prefix, range and spatial filters, joins,
        facets, pivot and range facets, stats, facet stats, sort,
        highlighting, match_ids — exactly as an engine opened on
        the same generation, and so do two long-lived doc-range
        engines."""
        idx = str(tmp_path / "idx")
        shutil.copytree(commit_corpus[0], idx)
        rng = random.Random(21)
        geo = "{!geofilt sfield=lat,lon pt=10,20 d=4000}"
        reads = [
            ("search", "def read", {"fq": "lang:python"}),
            ("search", "def -read", {"fq": ["lang:go", geo]}),
            ("search", "lang:python def", {}),
            ("search", "read -lang:python", {}),
            ("search", "read lang:py*", {"fl": ["doc_id", "lang"]}),
            ("search", "def doclen:[20 TO 300]", {"fq": "lang:[a TO q]"}),
            ("search", 'bbox:"Intersects(ENVELOPE(-60, 60, 50, -50))" def',
             {}),
            ("search", "read", {"fq": '-bbox:"IsWithin(ENVELOPE('
                                      '-120, 120, 60, -60))"'}),
            ("search", "lang:go", {"k": 40}),
            ("search", "(def OR read) AND -lang:rust", {}),
            ("search", "def", {"sort": "doclen desc", "k": 15}),
            ("search", '"def index" read', {"hl": True}),
            ("facet", "def", {"fields": ["lang", "repo"]}),
            ("range_facet", "def", {"field": "doclen", "start": 0,
                                    "end": 400, "gap": 50}),
            ("pivot_facet", "read", {"fields": ["repo", "lang"]}),
            ("field_stats", "def", {"field": "doclen",
                                    "percentiles": [5, 50, 95]}),
            ("facet_stats", "read", {"by": "lang", "metrics": {
                "len": "avg(doclen)", "north": "max(lat)"}}),
            ("search", "read", {"fq": "{!join from=repo to=repo}lang:go"}),
            ("match_ids", "read -lang:python", {}),
            ("match_ids", "lang:[a TO q] -def", {}),
            ("match_ids", geo, {}),
            ("match_ids", "{!bbox sfield=lat,lon pt=30,-60 d=3000}", {}),
        ]

        def answers(e):
            out = []
            for method, q, kw in reads:
                got = getattr(e, method)(q, **kw)
                out.append(got.tolist() if method == "match_ids" else got)
            return out

        def range_reads(e):
            return [e.search(q, k=50, fl=["doc_id"]) for q in
                    ("def read", "lang:python", "read -lang:go")] + [
                e.match_ids("def lang:[a TO q]").tolist()]

        eng = SearchEngine(idx)
        ranges = {r: SearchEngine(idx, doc_range=r) for r in (1, 3)}
        answers(eng)
        for e in ranges.values():
            range_reads(e)
        steps = ["extend", "delete", "update", "extend", "delete",
                 "compact", "extend", "update", "generation"]
        batches = iter(commit_corpus[1])
        for step in steps:
            live = [int(d) for d in np.flatnonzero(eng.present)
                    if int(d) not in eng.tombstones]
            if step == "extend":
                extend_index(next(batches), idx)
            elif step == "delete":
                mutate.delete_by_id(idx, rng.sample(live, 4))
            elif step == "update":
                mutate.atomic_update(idx, [
                    {"doc_id": d, "lang": {"set": rng.choice(["go", "x"])}}
                    for d in rng.sample(live, 3)])
            elif step == "compact":
                mutate.compact_index(idx)
            else:
                new_generation(idx)
            assert eng.refresh(), step
            fresh = SearchEngine(idx)
            for (method, q, kw), got, want in zip(reads, answers(eng),
                                                  answers(fresh)):
                assert got == want, (step, method, q, kw)
            for r, e in ranges.items():
                assert e.refresh(), step
                assert range_reads(e) == range_reads(
                    SearchEngine(idx, doc_range=r)), (step, r)


# --------------------------------------------------------------------- #
# one dictionary serves every read
# --------------------------------------------------------------------- #
def test_no_dataset_scans_after_dictionary_build(index_copy, monkeypatch):
    eng = SearchEngine(index_copy)
    opened = []
    dataset = pads.dataset
    monkeypatch.setattr(pads, "dataset", lambda src, *a, **kw: (
        opened.append(src), dataset(src, *a, **kw))[1])
    eng.lookup_dfs(["def"])
    tdict = eng._term_dict
    for q in ["def read", "def AND read -index", '"def index"',
              '"read the"~2', "path_text:src def", "pars* read", "re?d",
              "read~1 merge", "lang:python read", "parse^2 buffer"]:
        eng.search(q, k=10, fl=["doc_id"])
    eng.lookup_dfs(["def", "read\x1ethe", "path_text\x1fsrc", "zzqx"])
    eng.lookup_postings(["merge", "def\x1eindex"], with_positions=True)
    eng.terms(prefix="re", limit=20)
    eng.terms(sort="index")
    eng.luke()
    eng.suggest("reed")
    assert not [src for src in opened if "postings" in str(src)]
    assert eng._term_dict is tdict  # built once
    assert tdict.reads > 0


# --------------------------------------------------------------------- #
# the postings cache's running byte total
# --------------------------------------------------------------------- #
def test_term_cache_byte_total_is_exact(index_copy):
    """Insert, touch, positions upgrade, growth of handed-out entries,
    count- and byte-budget eviction in random order: the running total
    always equals the sum of the cached entries' sizes, and each entry's
    recorded size its size."""
    rng = random.Random(12)
    eng = SearchEngine(index_copy)
    eng.term_cache_size = 40
    eng.term_cache_bytes = 30_000
    cache = eng._cache
    postings = cache.maps["postings"]
    vocab = [t for t in all_terms(index_copy) if "\x1e" not in t]
    last: dict = {}
    evicted = False
    for step in range(300):
        op = rng.random()
        if op < 0.2 and last:
            # entries grow after they are handed out (score vectors)
            for tp in last.values():
                eng._term_score_vec(tp)
            continue
        if op < 0.4 and postings:
            ts = rng.sample(list(postings), min(3, len(postings)))
        else:
            ts = rng.sample(vocab, rng.randint(1, 5)) + ["zzqx"] * (op > 0.9)
        before = set(postings)
        last = eng.lookup_postings(ts, with_positions=rng.random() < 0.3)
        evicted |= not before <= set(postings)
        assert cache.nbytes == cache.counts["postings"]["bytes"] == sum(
            tp.nbytes() for tp, _, _ in postings.values() if tp is not None
        ), step
        assert all(n == (0 if tp is None else tp.nbytes())
                   for tp, n, _ in postings.values()), step
        assert len(postings) <= eng.term_cache_size
    assert evicted


# --------------------------------------------------------------------- #
# resident row groups, shared by the engines of a process
# --------------------------------------------------------------------- #
class TestResidentRowGroups:
    def test_two_engines_decompress_each_group_once(self, index_copy):
        a, b = SearchEngine(index_copy), SearchEngine(index_copy)
        assert all(x is y for x, y in zip(files_of(a), files_of(b)))
        vocab = all_terms(index_copy)
        exp = scan_postings(a, vocab, True)
        assert_same(a.lookup_postings(vocab, with_positions=True), exp, True)
        groups = sum(len(f.rg_starts) - 1 for f in files_of(a))
        assert sum(f.decompressed for f in files_of(a)) == groups
        assert_same(b.lookup_postings(vocab, with_positions=True), exp, True)
        assert b._term_dict.reads == 0
        assert sum(f.decompressed for f in files_of(a)) == groups
        for q in ["def read", '"def index"', "path_text:src def"]:
            assert a.search(q, k=10).equals(b.search(q, k=10)), q

    def test_old_and_new_generation_side_by_side(self, index_copy,
                                                 corpora):
        """An engine pinned to the generation before an extend and one
        opened after it share the files the extend left alone, and each
        reads its own generation."""
        old = SearchEngine(index_copy)
        sets = term_sets(index_copy, 12, seed=15)
        exp_old = [scan_postings(old, ts, True) for ts in sets]
        dfs_old = [scan_dfs(old, ts) for ts in sets]
        old.lookup_dfs(["def"])  # builds the dictionary
        extend_index(corpora[1][1], index_copy, config=CFG)
        new = SearchEngine(index_copy)
        shared = {id(f) for f in files_of(old)} & {
            id(f) for f in files_of(new)}
        assert 0 < len(shared) < len(files_of(new))
        exp_new = [scan_postings(new, ts, True) for ts in sets]
        dfs_new = [scan_dfs(new, ts) for ts in sets]
        assert dfs_old != dfs_new
        for i in range(len(sets)):
            for eng, exp, dfs in ((old, exp_old, dfs_old),
                                  (new, exp_new, dfs_new)):
                wp = bool(i % 2)
                assert_same(eng.lookup_postings(sets[i], with_positions=wp),
                            exp[i], wp)
                assert eng.lookup_dfs(sets[i]) == dfs[i]

    def test_range_and_whole_engines_interleaved(self, index_copy):
        """A doc-range engine shifts the ids it decodes; reading the same
        resident row groups interleaved with the whole-index engine, each
        answers as it does alone, so no write reaches a shared buffer."""
        qs = ["def read", '"def index" read', "path_text:src def",
              "pars* read", "read^2 merge -def"]

        def whole():
            return SearchEngine(index_copy)

        def doc_range():
            return dict(_range_engines(index_copy, [2]))[2]

        def alone(make):
            eng = make()
            out = [eng.search(q, k=20, fl=["doc_id"]) for q in qs]
            del eng
            gc.collect()
            return out

        exp_w, exp_r = alone(whole), alone(doc_range)
        assert all(t.num_rows for t in exp_r)
        w, r = whole(), doc_range()
        assert {id(f) for f in files_of(r)} < {id(f) for f in files_of(w)}
        for _ in range(2):
            for q, ew, er in zip(qs, exp_w, exp_r):
                assert r.search(q, k=20, fl=["doc_id"]).equals(er), q
                assert w.search(q, k=20, fl=["doc_id"]).equals(ew), q


def test_resident_bytes_stay_under_budget(index_copy):
    """With a small ``term_cache_bytes`` every read trims the process's
    resident row groups to it, whole groups least recently used first;
    the byte total stays exact, and every search answers like an engine
    with the default budget."""
    rng = random.Random(16)
    vocab = all_terms(index_copy)
    plain = [t for t in vocab if "\x1e" not in t and "\x1f" not in t]
    pairs = [t.replace("\x1e", " ") for t in vocab if "\x1e" in t]
    qs = [" ".join(rng.sample(plain, 2)) for _ in range(20)]
    qs += [f'"{p}"' for p in rng.sample(pairs, 10)]
    ref = SearchEngine(index_copy)
    exp = {q: ref.search(q, k=10) for q in qs}
    eng = SearchEngine(index_copy)
    budget = eng.term_cache_bytes = 30_000
    evicted = False
    for step in range(200):
        before = {(f.serial, g) for f in files_of(eng) for g in f.groups}
        if rng.random() < 0.5:
            eng.lookup_postings(rng.sample(vocab, rng.randint(1, 6)),
                                with_positions=rng.random() < 0.3)
        else:
            q = rng.choice(qs)
            assert eng.search(q, k=10).equals(exp[q]), (step, q)
        after = {(f.serial, g) for f in files_of(eng) for g in f.groups}
        evicted |= not before <= after
        assert _RESIDENT.nbytes <= budget, step
        assert _RESIDENT.nbytes == sum(n for _, n in _RESIDENT.lru.values())
        for f in files_of(eng):
            for g, cols in f.groups.items():
                assert _RESIDENT.lru[(f.serial, g)][1] == sum(
                    _resident_nbytes(c) for c in cols.values()), step
        assert after == {k for k in _RESIDENT.lru
                         if k[0] in {f.serial for f in files_of(eng)}}
    assert evicted


def test_engines_on_threads_share_row_groups(index_copy):
    """Engines on more threads than cores, each trimming to a small
    budget, read the row groups they share: every read equals the
    dataset scan, and each resident group's size is counted once."""
    sets = term_sets(index_copy, 30, seed=17)
    exp = [scan_postings(SearchEngine(index_copy), ts, True) for ts in sets]
    engines = [SearchEngine(index_copy) for _ in range(8)]
    errors = []

    def work(eng, seed):
        eng.term_cache_bytes = 20_000
        rng = random.Random(seed)
        try:
            for _ in range(40):
                i = rng.randrange(len(sets))
                wp = rng.random() < 0.5
                assert_same(eng.lookup_postings(sets[i], with_positions=wp),
                            exp[i], wp)
        except Exception as e:  # reported below, with the thread's seed
            errors.append((seed, e))

    threads = [threading.Thread(target=work, args=(e, s))
               for s, e in enumerate(engines)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    assert _RESIDENT.nbytes == sum(n for _, n in _RESIDENT.lru.values())
    for f in files_of(engines[0]):
        assert f.groups.keys() == {g for s, g in _RESIDENT.lru
                                   if s == f.serial}
        for g, cols in f.groups.items():
            assert _RESIDENT.lru[(f.serial, g)][1] == sum(
                _resident_nbytes(c) for c in cols.values())
