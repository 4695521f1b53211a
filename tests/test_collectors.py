"""Score once, then collect: every collector — ranked with ``start``,
``search_after``, sort, group, collapse (with and without ``mm``),
rerank and the per-range tasks of ``group_partitioned`` /
``collapse_partitioned`` / ``sorted_partitioned`` — reads one prepared
match set, for every query shape.  Each collector is checked against a
reference derived in plain Python from the ranked full match set (itself
checked against ``BruteForceBM25`` where the oracle has the shape), and
no collector may reach the match set through ``SearchEngine.search``."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import (
    SearchEngine,
    _range_engines,
    _range_groups,
    _range_sorted,
    collapse_partitioned,
    group_partitioned,
)
from solr_indexer_ray.sources.corpus import generate_corpus

SHAPES = {
    "flat_or": "def read",
    "flat_and": "def AND read",
    "flat_zero": "def^0 read",
    "grouped": "(def OR read) AND NOT merge",
    "match_all": "*:*",
    "pure_filter": "lang:python",
    "directive": "{!join from=repo to=repo}lang:go",
    "elevated": "read merge",
    # adjacent pairs of the fixture corpus (82 and 83 matching docs)
    "phrase": '"buffer group"',
    "near": '"count parse"~2',
}
ORACLE_SHAPES = ("flat_or", "flat_and", "flat_zero", "match_all",
                 "pure_filter", "phrase", "near")
RERANK_Q = "(merge OR buffer) -zzzz"
COLLAPSE = ["{!collapse field=lang}"]


@pytest.fixture(scope="module")
def corpus_index(tmp_path_factory):
    d = tmp_path_factory.mktemp("collectors")
    corpus = generate_corpus(240, seed=5, mean_tokens=40,
                             with_edge_rows=False)
    pq.write_table(corpus, str(d / "docs.parquet"), row_group_size=60)
    idx = str(d / "idx")
    build_index(str(d / "docs.parquet"), idx,
                config=IndexConfig(docs_per_range=64, store_positions=True))
    return corpus, idx


def ranked(e, q, **params):
    """The ranked full match set ``[(doc_id, score)]``."""
    t = e.search(q, k=e.doc_space, fl=["doc_id"], **params)
    return list(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))


@pytest.fixture(scope="module")
def refs(corpus_index):
    """Per shape: the engine that serves it (the elevated shape's pins
    one organic hit and one unmatched doc) and its reference sets."""
    _, idx = corpus_index
    plain = SearchEngine(idx)
    meta = {r["doc_id"]: r for r in plain.search(
        "*:*", k=plain.doc_space, fl=["doc_id", "doclen", "lang"]
    ).to_pylist()}
    rr = dict(ranked(plain, RERANK_Q))
    out = {}
    for shape, q in SHAPES.items():
        e = SearchEngine(idx)
        organic = ranked(e, q)
        assert organic, shape
        if shape == "elevated":
            hit = {d for d, _ in organic}
            e.elevate = {q: [organic[4][0],
                             next(d for d in meta if d not in hit)]}
        try:
            mm = ranked(e, q, mm=2)
        except ValueError:
            mm = None
        out[shape] = dict(engine=e, q=q, full=ranked(e, q),
                          organic=organic, mm=mm, meta=meta, rr=rr)
    return out


def by_score(hits):
    return sorted(hits, key=lambda h: (-h[1], h[0]))


def group_rows(hits, meta, k_groups, limit):
    groups: dict = {}
    for d, s in by_score(hits):
        groups.setdefault(meta[d]["lang"], []).append((d, s))
    return [
        {"group": g, "group_rank": gr, "position": p, "doc_id": d,
         "score": s}
        for gr, (g, members) in enumerate(list(groups.items())[:k_groups])
        for p, (d, s) in enumerate(members[:limit])
    ]


def collapse_heads(hits, meta, k):
    seen, heads = set(), []
    for d, s in by_score(hits):
        g = meta[d]["lang"]
        if g is not None and g not in seen:
            seen.add(g)
            heads.append((d, s))
    return heads[:k]


def pairs(t):
    return list(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))


# collector: (run on the engine, reference from the ranked sets, number
# of SearchEngine.search calls the run itself makes)
COLLECTORS = {
    "start": (
        lambda r: pairs(r["engine"].search(r["q"], k=5, start=3,
                                           fl=["doc_id"])),
        lambda r: r["full"][3:8], 1),
    "search_after": (
        lambda r: pairs(r["engine"].search(
            r["q"], k=5, fl=["doc_id"],
            search_after=r["organic"][4][::-1])),
        lambda r: r["organic"][5:10], 1),
    "sort_numeric": (
        lambda r: pairs(r["engine"].search(r["q"], k=10, fl=["doc_id"],
                                           sort="doclen desc")),
        lambda r: sorted(r["full"], key=lambda h: (
            -r["meta"][h[0]]["doclen"], h[0]))[:10], 1),
    "sort_multi": (
        lambda r: pairs(r["engine"].search(
            r["q"], k=10, fl=["doc_id"], sort="lang asc, doclen desc")),
        lambda r: sorted(r["full"], key=lambda h: (
            r["meta"][h[0]]["lang"] is None, r["meta"][h[0]]["lang"] or "",
            -r["meta"][h[0]]["doclen"], h[0]))[:10], 1),
    "group": (
        lambda r: r["engine"].group_search(r["q"], "lang", k_groups=3,
                                           group_limit=2).to_pylist(),
        lambda r: group_rows(r["full"], r["meta"], 3, 2), 0),
    "collapse": (
        lambda r: pairs(r["engine"].collapse_search(r["q"], "lang", k=4)),
        lambda r: collapse_heads(r["full"], r["meta"], 4), 0),
    "collapse_mm": (
        lambda r: pairs(r["engine"].search(r["q"], k=4, fl=["doc_id"],
                                           fq=COLLAPSE, mm=2)),
        lambda r: collapse_heads(r["mm"], r["meta"], 4), 1),
    "rerank": (
        lambda r: pairs(r["engine"].rerank_search(
            r["q"], RERANK_Q, k=8, rerank_docs=6, rerank_weight=2.0,
            fl=["doc_id"])),
        lambda r: (by_score([(d, s + 2.0 * r["rr"].get(d, 0.0))
                             for d, s in r["full"][:6]])
                   + r["full"][6:8]), 0),
}
# combinations the engine rejects by design
REJECTED = {("directive", "search_after"), ("directive", "sort_numeric"),
            ("directive", "sort_multi"), ("directive", "collapse_mm"),
            ("flat_and", "collapse_mm"), ("grouped", "collapse_mm")}


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
def test_full_set_matches_oracle(corpus_index, refs, shape):
    corpus, _ = corpus_index
    oracle = BruteForceBM25(corpus.append_column(
        "doc_id", pa.array(range(corpus.num_rows), pa.int64())))
    want = oracle.search(SHAPES[shape], k=corpus.num_rows)
    got = refs[shape]["full"]
    assert [d for d, _ in got] == [d for d, _ in want]
    assert [s for _, s in got] == pytest.approx([s for _, s in want])


@pytest.mark.parametrize("collector", COLLECTORS)
@pytest.mark.parametrize("shape", SHAPES)
def test_collector(refs, shape, collector):
    r = refs[shape]
    run, expect, _ = COLLECTORS[collector]
    if (shape, collector) in REJECTED:
        with pytest.raises(ValueError):
            run(r)
        return
    want = expect(r)
    assert want or collector == "search_after", "vacuous reference"
    assert run(r) == want


@pytest.mark.parametrize("shape", SHAPES)
def test_partitioned(corpus_index, refs, shape):
    """The per-range collectors equal the reference over the organic
    ranking (range engines carry no elevation)."""
    _, idx = corpus_index
    r = refs[shape]
    q = r["q"]
    assert group_partitioned(idx, q, "lang", k_groups=3,
                             group_limit=2).to_pylist() \
        == group_rows(r["organic"], r["meta"], 3, 2)
    assert pairs(collapse_partitioned(idx, q, "lang", k=4)) \
        == collapse_heads(r["organic"], r["meta"], 4)


@pytest.mark.parametrize("shape", SHAPES)
def test_no_collector_calls_search(corpus_index, refs, shape, monkeypatch):
    """Collectors read the match arrays: none reaches them through a
    (whole-match, ranked) ``SearchEngine.search``."""
    _, idx = corpus_index
    r = refs[shape]
    calls = []
    real = SearchEngine.search

    def spy(self, *args, **kwargs):
        calls.append((args, kwargs))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(SearchEngine, "search", spy)
    for name, (run, _, n_calls) in COLLECTORS.items():
        if (shape, name) in REJECTED:
            continue
        calls.clear()
        run(r)
        assert len(calls) == n_calls, (name, calls[n_calls:])
    _, engine = next(_range_engines(idx, [1]))
    calls.clear()
    _range_groups(engine, r["q"], "lang", 2, None, None)
    if (shape, "sort_multi") not in REJECTED:
        _range_sorted(engine, r["q"], "lang asc, doclen desc", 10, None)
    assert calls == []
