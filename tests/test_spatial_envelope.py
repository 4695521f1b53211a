"""Spatial envelope query filters (Solr RPT field predicates).

The reference stores ``bbox = ENVELOPE(minX, maxX, maxY, minY)`` exactly
so users can run Solr spatial filter queries against it
(``solrindexer/spatial.py:86-112``).  Here the envelope is four stored
numeric columns ``bbox_west/_east/_south/_north`` (extra_stored) and the
query surface is ``bbox:"Intersects(ENVELOPE(...))"`` (+ IsWithin /
Contains), evaluated as a parquet scan filter.  Every test cross-checks
against a brute-force numpy evaluator, including antimeridian-crossing
docs and queries and null-envelope rows.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.functions.queryparse import SpatialFilter, parse_query
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.search import SearchEngine, search_partitioned


def _with_bbox(corpus: pa.Table) -> pa.Table:
    n = corpus.num_rows
    i = np.arange(n)
    west = ((i * 37) % 320) - 170.0
    east = west + (i % 29) + 1.0
    south = ((i * 13) % 140) - 70.0
    north = south + (i % 17) + 1.0
    # antimeridian-crossing docs: west > east
    cross = (i % 41) == 7
    west[cross] = 150.0 + (i[cross] % 20)
    east[cross] = -160.0 - (i[cross] % 10)
    null = (i % 53) == 11
    mask = pa.array(~null)
    cols = {"bbox_west": west, "bbox_east": east,
            "bbox_south": south, "bbox_north": north}
    out = corpus
    for name, vals in cols.items():
        arr = pa.array(vals, pa.float64())
        arr = pa.compute.if_else(mask, arr, pa.scalar(None, pa.float64()))
        out = out.append_column(name, arr)
    return out


@pytest.fixture(scope="module")
def geo_index(small_corpus, tmp_path_factory):
    corpus = _with_bbox(small_corpus)
    root = tmp_path_factory.mktemp("geo")
    cpath = str(root / "corpus.parquet")
    pq.write_table(corpus, cpath, row_group_size=64)
    idx = str(root / "idx")
    config = IndexConfig(
        docs_per_range=128, concurrency=2,
        extra_stored=("bbox_west", "bbox_east", "bbox_south", "bbox_north"),
    )
    build_index(cpath, idx, config=config)
    return idx, corpus


def _bbox_arrays(corpus):
    return tuple(
        corpus[c].to_numpy(zero_copy_only=False)
        for c in ("bbox_west", "bbox_east", "bbox_south", "bbox_north")
    )


def _brute(corpus, op, qw, qe, qs, qn) -> np.ndarray:
    """Brute-force doc-id match set for one envelope predicate."""
    w, e, s, n = _bbox_arrays(corpus)
    valid = ~np.isnan(w)
    cross_doc = w > e

    def seg_intersect(a_lo, a_hi, b_lo, b_hi):
        return (a_hi >= b_lo) & (a_lo <= b_hi)

    if op == "Intersects":
        lat = (n >= qs) & (s <= qn)
        if qw > qe:  # crossing query: union of the two halves
            return np.flatnonzero(valid & (
                _lon_intersects(w, e, cross_doc, qw, 180.0)
                | _lon_intersects(w, e, cross_doc, -180.0, qe)
            ) & lat)
        return np.flatnonzero(
            valid & lat & _lon_intersects(w, e, cross_doc, qw, qe)
        )
    if op == "IsWithin":
        return np.flatnonzero(
            valid & ~cross_doc & (w >= qw) & (e <= qe)
            & (s >= qs) & (n <= qn)
        )
    if op == "Contains":
        lat = (s <= qs) & (n >= qn)
        lon = np.where(cross_doc, (w <= qw) | (e >= qe),
                       (w <= qw) & (e >= qe))
        return np.flatnonzero(valid & lat & lon)
    raise AssertionError(op)


def _lon_intersects(w, e, cross_doc, qw, qe):
    plain = (e >= qw) & (w <= qe)
    crossed = (e >= qw) | (w <= qe)
    return np.where(cross_doc, crossed, plain)


ENVELOPES = [
    ("Intersects", -30.0, 60.0, -20.0, 45.0),
    ("Intersects", 100.0, 179.0, -80.0, 80.0),
    ("Intersects", 160.0, -150.0, -40.0, 40.0),   # crosses the dateline
    ("IsWithin", -120.0, 40.0, -60.0, 60.0),
    ("Contains", -10.0, -5.0, 10.0, 12.0),
    ("Intersects", -180.0, 180.0, -90.0, 90.0),   # whole world
]


def _q(field, op, qw, qe, qs, qn, neg=False):
    sign = "-" if neg else ""
    return f'{sign}{field}:"{op}(ENVELOPE({qw}, {qe}, {qn}, {qs}))"'


class TestSpatialParse:
    def test_parse_envelope(self):
        p = parse_query(_q("bbox", "Intersects", -30, 60, -20, 45),
                        lambda t: [t.lower()])
        assert p.spatial_filters == [
            SpatialFilter("bbox", "Intersects", -30.0, 60.0, -20.0, 45.0)
        ]
        assert not p.terms and not p.is_match_all

    def test_parse_negated_with_terms(self):
        p = parse_query(
            "window " + _q("bbox", "Contains", -10, -5, 10, 12, neg=True),
            lambda t: [t.lower()],
        )
        assert p.must_not.spatial_filters[0].op == "Contains"
        assert not p.spatial_filters
        assert p.terms == ["window"]

    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="outside"):
            parse_query(_q("bbox", "Intersects", -200, 60, -20, 45),
                        lambda t: [t.lower()])
        with pytest.raises(ValueError, match="maxY"):
            parse_query(_q("bbox", "Intersects", -30, 60, 45, -20),
                        lambda t: [t.lower()])


class TestSpatialSearch:
    @pytest.mark.parametrize("op,qw,qe,qs,qn", ENVELOPES)
    def test_pure_spatial_matches_brute_force(self, geo_index, op, qw, qe,
                                              qs, qn):
        idx, corpus = geo_index
        eng = SearchEngine(idx)
        got = np.sort(eng.match_ids(_q("bbox", op, qw, qe, qs, qn)))
        want = _brute(corpus, op, qw, qe, qs, qn)
        np.testing.assert_array_equal(got, want)

    def test_spatial_with_scoring_terms(self, geo_index):
        idx, corpus = geo_index
        eng = SearchEngine(idx)
        q = 'def index ' + _q("bbox", "Intersects", -30, 60, -20, 45)
        t = eng.search(q, k=eng.n_docs, fl=["doc_id"])
        term_only = set(eng.search("def index", k=eng.n_docs,
                                   fl=["doc_id"])["doc_id"].to_pylist())
        spatial = set(_brute(corpus, "Intersects", -30, 60, -20, 45).tolist())
        assert set(t["doc_id"].to_pylist()) == term_only & spatial
        # scores of surviving docs unchanged by the filter (non-scoring)
        base = dict(zip(
            eng.search("def index", k=eng.n_docs,
                       fl=["doc_id"])["doc_id"].to_pylist(),
            eng.search("def index", k=eng.n_docs,
                       fl=["doc_id"])["score"].to_pylist(),
        ))
        for d, s in zip(t["doc_id"].to_pylist(), t["score"].to_pylist()):
            assert s == base[d]

    def test_negated_spatial(self, geo_index):
        idx, corpus = geo_index
        eng = SearchEngine(idx)
        q = "def " + _q("bbox", "Intersects", -30, 60, -20, 45, neg=True)
        got = set(eng.search(q, k=eng.n_docs, fl=["doc_id"])
                  ["doc_id"].to_pylist())
        term = set(eng.search("def", k=eng.n_docs,
                              fl=["doc_id"])["doc_id"].to_pylist())
        spatial = set(_brute(corpus, "Intersects", -30, 60, -20, 45).tolist())
        assert got == term - spatial
        # null-envelope docs are NOT excluded by the negation (no bbox
        # -> can't match the positive predicate)
        nulls = {i for i in term
                 if corpus["bbox_west"][i].as_py() is None}
        assert nulls <= got

    def test_null_bbox_never_matches_positive(self, geo_index):
        idx, corpus = geo_index
        eng = SearchEngine(idx)
        got = set(eng.match_ids(
            _q("bbox", "Intersects", -180, 180, -90, 90)))
        nulls = {i for i in range(corpus.num_rows)
                 if corpus["bbox_west"][i].as_py() is None}
        assert not (got & nulls) and nulls

    def test_distributed_identical(self, geo_index):
        idx, _ = geo_index
        eng = SearchEngine(idx)
        for q in ["def " + _q("bbox", "Intersects", -30, 60, -20, 45),
                  "index " + _q("bbox", "Contains", -10, -5, 10, 12, neg=True),
                  "read " + _q("bbox", "Intersects", 160, -150, -40, 40)]:
            single = eng.search(q, k=10, fl=["doc_id"])
            dist = search_partitioned(idx, q, k=10)
            assert single["doc_id"].to_pylist() == dist["doc_id"].to_pylist()
            assert single["score"].to_pylist() == dist["score"].to_pylist()

    def test_facet_respects_spatial(self, geo_index):
        idx, corpus = geo_index
        eng = SearchEngine(idx)
        q = _q("bbox", "IsWithin", -120, 40, -60, 60)
        counts = eng.facet(q, ["lang"])["lang"]
        want = _brute(corpus, "IsWithin", -120, 40, -60, 60)
        langs = [corpus["lang"][int(i)].as_py() for i in want]
        assert sum(c for _, c in counts) == len(langs)
        for val, cnt in counts:
            assert cnt == langs.count(val)

    def test_missing_columns_error(self, built_index):
        idx, _ = built_index
        eng = SearchEngine(idx)
        with pytest.raises(ValueError, match="needs stored columns"):
            eng.search(_q("bbox", "Intersects", -30, 60, -20, 45))

    def test_within_crossing_query_raises(self, geo_index):
        idx, _ = geo_index
        eng = SearchEngine(idx)
        with pytest.raises(ValueError, match="antimeridian"):
            eng.search(_q("bbox", "IsWithin", 160, -150, -40, 40))
