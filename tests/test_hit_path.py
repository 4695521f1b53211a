"""Every hit producer's response table against a reference built the
list-of-tuples way: ``(doc_id, score)`` hits ranked by a plain Python
sort of the match set, resolved by a filtered docs-table scan.  The
engine's collectors hand ``(ids, scores)`` arrays to one ``take`` over
the resident stored-fields table; the tables must be equal, schema
included, for ranked reads (``start``, cursor), ``sort``,
``{!collapse}``, elevation pins, ``rerank``, ``more_like_this`` and
``get``, under every ``fl`` shape, with an overlay, for ``k=0`` and an
empty match set, and again after an extend and ``refresh()``."""

import json
import math
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.functions.queryparse import ParsedQuery
from solr_indexer_ray.pipelines.build import build_index, extend_index
from solr_indexer_ray.pipelines.mutate import apply_overlay
from solr_indexer_ray.pipelines.search import (
    SearchEngine,
    _round_half_away,
    _sort_keys,
    _sort_top,
)
from solr_indexer_ray.sources.corpus import generate_corpus

CFG = IndexConfig(docs_per_range=64, validate=True, store_content=True,
                  extra_stored=("meta_json",))

FLS = [None, ["doc_id"], ["*"], ["doc_id", "lang", "doclen"],
       ["meta_json:[json]", "repo"], ["content", "doc_id"]]

QUERIES = ["def index", "read merge parse", "lang:python def",
           "def AND read", "read -lang:go", "zzzznotaword"]

ELEVATED = "read merge"


def _with_meta(corpus: pa.Table, base: int) -> pa.Table:
    meta = [json.dumps({"n": base + i}) for i in range(corpus.num_rows)]
    return corpus.append_column("meta_json", pa.array(meta))


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("hitpath")
    a = _with_meta(generate_corpus(200, seed=21, mean_tokens=40), 0)
    b = _with_meta(generate_corpus(80, seed=22, mean_tokens=40,
                                   with_edge_rows=False), a.num_rows)
    paths = str(root / "a.parquet"), str(root / "b.parquet")
    for t, p in zip((a, b), paths):
        pq.write_table(t, p, row_group_size=48)
    return paths


@pytest.fixture(scope="module")
def base_index(corpora, tmp_path_factory):
    index_dir = str(tmp_path_factory.mktemp("hitpath_idx") / "idx")
    build_index(corpora[0], index_dir, config=CFG)
    return index_dir


@pytest.fixture
def index_copy(base_index, tmp_path):
    dst = str(tmp_path / "idx")
    shutil.copytree(base_index, dst)
    return dst


# ---------------------------------------------------------------------- #
# the list-of-tuples reference
# ---------------------------------------------------------------------- #
def _rank(ids, scores) -> list:
    """``(doc_id, score)`` tuples in (-score, doc_id) order."""
    return sorted(zip(ids.tolist(), scores.tolist()),
                  key=lambda h: (-h[1], h[0]))


def _ref_ranked(eng, query, n, fq=None, after=None) -> list:
    ids, scores = eng._match(eng._prepare(query), fq, after)
    hits = _rank(ids, scores)
    pins = eng._pins(query).tolist() if after is None else []
    if pins:
        organic = dict(hits)
        hits = [(d, organic[d]) for d in pins] + [
            h for h in hits if h[0] not in set(pins)]
    return hits[:n]


def _ref_sorted(eng, query, sort, n) -> list:
    keys = _sort_keys(sort, eng.stored_fields)
    ids, scores = eng._match(eng._prepare(query))
    sel = _sort_top(keys, ids, scores, eng._sort_values(keys, ids), n)
    return list(zip(ids[sel].tolist(), scores[sel].tolist()))


def _ref_rerank(eng, query, rq, k, docs, weight, start, digits) -> list:
    main = _ref_ranked(eng, query, max(docs, start + k))
    rids, rscores = eng._match(eng._prepare(rq))
    rmap = dict(zip(rids.tolist(), rscores.tolist()))

    def r(x):
        return float(_round_half_away(x, digits))

    seg = min(docs, len(main))
    head = sorted(((d, r(s) + weight * r(rmap.get(d, 0.0)))
                   for d, s in main[:seg]), key=lambda h: (-h[1], h[0]))
    return (head + [(d, r(s)) for d, s in main[seg:]])[start:start + k]


def _ref_mlt(eng, doc_id, k) -> list:
    """``more_like_this``'s hits with its defaults (25 terms, tf >= 2,
    df >= 5), ranked by the plain sort."""
    row = eng.get(doc_id)
    toks = eng.registry.tokenize(row.get("content") or "", row.get("lang"))
    tfm = {t: toks.count(t) for t in set(toks)}
    dfs = eng.lookup_dfs(sorted(t for t, c in tfm.items() if c >= 2))
    scored = sorted(
        (-round(tfm[t] * (1.0 + math.log(eng.n_docs / df)), 6), t)
        for t, df in dfs.items() if df >= 5)
    sel = [t for _, t in scored[:25]]
    if not sel:
        return []
    postings = eng.lookup_postings(sel)
    ids, scores = eng._match_score_arrays(
        ParsedQuery(terms=sel), {t: postings[t] for t in sel},
        eng._dead_mask())
    return [h for h in _rank(ids, scores) if h[0] != doc_id][:k]


def _ref_resolve(eng, hits, fl=None) -> pa.Table:
    """The response table of ``hits`` from a filtered docs-table scan."""
    fl = list(fl) if fl else eng.stored_fields
    fl, transforms = eng._parse_fl(fl)
    ids = [d for d, _ in hits]
    if set(fl) <= {"doc_id"} and not eng._load_overlays():
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "score": pa.array([s for _, s in hits], pa.float64())})
    cols = sorted(set(fl) | {"doc_id"})
    t = eng._docs_ds.to_table(columns=cols,
                              filter=pc.field("doc_id").isin(ids))
    pos = {d: i for i, d in enumerate(ids)}
    t = t.take(np.argsort([pos[d] for d in t["doc_id"].to_pylist()]))
    scores = dict(hits)
    t = t.append_column("score", pa.array(
        [scores[d] for d in t["doc_id"].to_pylist()], pa.float64()))
    t = eng._apply_overlays(t)
    return eng._apply_fl_transforms(t.select([*fl, "score"]), transforms)


def _ref_get(eng, doc_id, fl=None):
    if doc_id in eng.tombstones:
        return None
    t = eng._docs_ds.to_table(filter=pc.field("doc_id") == doc_id)
    if t.num_rows == 0:
        return None
    row = eng._apply_overlays(t).to_pylist()[0]
    return {k: v for k, v in row.items() if not fl or k in fl}


# ---------------------------------------------------------------------- #
# the cases: (engine table, reference table)
# ---------------------------------------------------------------------- #
def _cases(eng):
    """Yield ``(label, got, want)`` for every hit producer."""
    for q in QUERIES:
        for fl in FLS:
            for k, start in ((10, 0), (7, 5), (0, 0), (0, 3)):
                yield (("ranked", q, fl, k, start),
                       eng.search(q, k=k, start=start, fl=fl),
                       _ref_resolve(eng, _ref_ranked(eng, q, start + k)
                                    [start:], fl))
        first = eng.search(q, k=4, fl=["doc_id"])
        if first.num_rows:
            after = (first["score"][-1].as_py(), first["doc_id"][-1].as_py())
            yield (("cursor", q),
                   eng.search(q, k=6, search_after=after, fl=["doc_id",
                                                               "lang"]),
                   _ref_resolve(eng, _ref_ranked(eng, q, 6, after=after),
                                ["doc_id", "lang"]))
        for sort in ("doclen desc", "lang asc, doclen desc", "doc_id asc"):
            for fl in (None, ["doc_id"]):
                yield (("sort", q, sort, fl),
                       eng.search(q, k=6, start=2, sort=sort, fl=fl),
                       _ref_resolve(eng, _ref_sorted(eng, q, sort, 8)[2:],
                                    fl))
        heads = eng.collapse_search(q, "lang", k=5)
        for fl in (None, ["doc_id"]):
            yield (("collapse", q, fl),
                   eng.search(q, k=3, start=2, fq="{!collapse field=lang}",
                              fl=fl),
                   _ref_resolve(eng, list(zip(
                       heads["doc_id"].to_pylist(),
                       heads["score"].to_pylist()))[2:], fl))
        for digits in (None, 3):
            yield (("rerank", q, digits),
                   eng.rerank_search(q, "merge parse", k=5, rerank_docs=6,
                                     rerank_weight=2.5, start=1,
                                     round_scores=digits),
                   _ref_resolve(eng, _ref_rerank(
                       eng, q, "merge parse", 5, 6, 2.5, 1, digits)))
    for fl in FLS:
        yield (("elevated", fl), eng.search(ELEVATED, k=6, fl=fl),
               _ref_resolve(eng, _ref_ranked(eng, ELEVATED, 6), fl))
    for d in (3, 40, 120):
        for fl in (None, ["doc_id"]):
            yield (("mlt", d, fl), eng.more_like_this(d, k=5, fl=fl),
                   _ref_resolve(eng, _ref_mlt(eng, d, 5), fl))


def _elevate(eng):
    organic = eng.search(ELEVATED, k=8, fl=["doc_id"])["doc_id"].to_pylist()
    unmatched = int(np.flatnonzero(eng.present)[-1])
    eng.elevate = {ELEVATED: [organic[5], unmatched, organic[1]]}
    return eng


def _assert_identical(eng):
    n = 0
    for label, got, want in _cases(_elevate(eng)):
        assert got.schema == want.schema, label
        assert got.equals(want), label
        n += 1
    assert n > 200
    for d in (0, 5, 77, -1, eng.doc_space, eng.doc_space + 5):
        for fl in (None, ["lang"], ["content", "meta_json"]):
            assert eng.get(d, fl=fl) == _ref_get(eng, d, fl), (d, fl)


def test_every_producer_matches_the_tuple_reference(base_index):
    _assert_identical(SearchEngine(base_index))


def test_with_an_overlay(index_copy):
    apply_overlay(index_copy, [
        {"doc_id": 4, "column": "lang", "value": "cobol"},
        {"doc_id": 9, "column": "doclen", "value": 7},
        {"doc_id": 11, "column": "tag", "value": "x"},
    ])
    _assert_identical(SearchEngine(index_copy))


def test_after_extend_and_refresh(index_copy, corpora):
    eng = SearchEngine(index_copy)
    _assert_identical(eng)
    before = eng.doc_space
    extend_index(corpora[1], index_copy, config=CFG)
    assert eng.refresh() and eng.doc_space > before
    _assert_identical(eng)
