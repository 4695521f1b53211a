"""Resident RangeScorer caches (decoded postings + impact vectors) must
be invisible: repeated and interleaved queries through ONE scorer
instance return exactly what a fresh scorer returns, boosts multiply
after the cached product, and a shipped-idf change recomputes instead
of serving a stale vector."""

import json

import numpy as np
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.search import (
    RangeScorer,
    SearchEngine,
    _distributed_clauses,
)
from solr_indexer_ray.sources.corpus import generate_corpus

QUERIES = ["read merge", "def read", "read^2 merge", "def AND read",
           "read merge", "def read"]  # repeats on purpose


@pytest.fixture(scope="module")
def idx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("rsc")
    corpus = generate_corpus(200, seed=5, mean_tokens=40,
                             with_edge_rows=False)
    pq.write_table(corpus, str(d / "c.parquet"), row_group_size=32)
    build_index(str(d / "c.parquet"), str(d / "idx"),
                config=IndexConfig(docs_per_range=64))
    return str(d / "idx")


def _batch(eng, q, rid):
    parsed = eng._parse(q)
    cl = _distributed_clauses(eng, parsed, q)
    assert cl is not None and cl != "zero"
    (terms, idfs, phrases, prefix_groups, fuzzy_groups, near_groups,
     syn_groups, extras) = cl
    b = {
        "terms": terms, "idfs": idfs,
        "prohibited": sorted(set(parsed.prohibited)),
        "filter_keys": sorted(parsed.filters),
        "filter_vals": [parsed.filters[f] for f in sorted(parsed.filters)],
        "conjunctive": parsed.conjunctive,
        "min_should": int(parsed.min_should),
        "phrases_json": json.dumps(phrases),
        "prefix_groups_json": json.dumps(prefix_groups),
        "fuzzy_groups_json": json.dumps(fuzzy_groups),
        "near_groups_json": json.dumps(near_groups),
        "syn_groups_json": json.dumps(syn_groups),
        "extras_json": json.dumps(extras),
        "range_id": rid, "excl": [],
    }
    return {k: [v] for k, v in b.items()}


class TestResidentCaches:
    def test_repeat_and_interleaved_queries_identical(self, idx):
        eng = SearchEngine(idx)
        n_ranges = (eng.doc_space + 63) // 64
        resident = RangeScorer(idx)
        resident.k = 10
        for q in QUERIES:
            for rid in range(n_ranges):
                fresh = RangeScorer(idx)
                fresh.k = 10
                got = resident(_batch(eng, q, rid)).to_pylist()
                ref = fresh(_batch(eng, q, rid)).to_pylist()
                assert got == ref, (q, rid)
        # the caches actually populated (not silently bypassed)
        assert resident._dec_cache and resident._vec_cache

    def test_boost_applies_after_cached_vector(self, idx):
        eng = SearchEngine(idx)
        resident = RangeScorer(idx)
        resident.k = 10
        plain = resident(_batch(eng, "read merge", 0)).to_pylist()
        boosted = resident(_batch(eng, "read^3 merge", 0)).to_pylist()
        fresh = RangeScorer(idx)
        fresh.k = 10
        assert boosted == fresh(_batch(eng, "read^3 merge", 0)).to_pylist()
        assert plain == fresh(_batch(eng, "read merge", 0)).to_pylist()

    def test_changed_idf_recomputes(self, idx):
        """A cached vector built under one shipped idf must not serve a
        query shipping a different idf (the defensive w check)."""
        eng = SearchEngine(idx)
        resident = RangeScorer(idx)
        resident.k = 10
        b = _batch(eng, "read merge", 0)
        resident(b)  # populate under the true idfs
        doubled = {k: list(v) for k, v in b.items()}
        doubled["idfs"] = [[w * 2 for w in b["idfs"][0]]]
        got = resident(doubled).to_pylist()
        fresh = RangeScorer(idx)
        fresh.k = 10
        assert got == fresh(doubled).to_pylist()

    def test_prune_survives_mid_query_eviction(self, idx):
        """A term pruned from the parquet scan (cached at prune time)
        must still score correctly when LRU pressure evicts its cache
        entry before its clause runs — the pinned per-query snapshot.
        Without it, rows.get() would report the pruned term absent and
        cache a poisoned None (wrong scores that PERSIST)."""
        class EvictingScorer(RangeScorer):
            def _decoded_row(self, tbl, rows, rid, term, lo):
                out = super()._decoded_row(tbl, rows, rid, term, lo)
                # simulate extreme byte pressure: every other entry of
                # the shared cache evicted right after this build/touch
                for k in list(self._dec_cache):
                    if k != (rid, term):
                        old = self._dec_cache.pop(k)
                        if old is not None:
                            self._dec_bytes -= (old[0].nbytes
                                                + old[1].nbytes)
                return out

        eng = SearchEngine(idx)
        resident = EvictingScorer(idx)
        resident.k = 10
        fresh = RangeScorer(idx)
        fresh.k = 10
        # two prohibited terms: both pruned on the repeat, the first
        # one's cache touch evicts the second before its clause runs —
        # exactly the shape that poisoned a None pre-fix (verified to
        # diverge on every repeat with the pinned snapshot disabled)
        b = _batch(eng, "read -merge -def", 0)
        resident(b)  # populate (evictions already firing)
        for _ in range(3):  # repeat: scan-pruned terms + persistence
            assert resident(b).to_pylist() == fresh(b).to_pylist()

    def test_dec_cache_byte_accounting_non_negative(self, idx):
        eng = SearchEngine(idx)
        resident = RangeScorer(idx)
        resident.k = 10
        for q in QUERIES:
            resident(_batch(eng, q, 0))
        assert resident._dec_bytes >= 0
        assert resident._vec_bytes >= 0
        real = sum(
            v[0].nbytes + v[1].nbytes
            for v in resident._dec_cache.values() if v is not None
        )
        assert resident._dec_bytes == real
