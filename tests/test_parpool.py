"""The chunk-parallel kernel paths must be value-identical to the
inline paths.  Real corpora in the test suite sit far below the 512k
probe threshold, so these tests shrink ``parpool.CHUNK`` to force the
threaded branches (chunk boundaries included) and A/B against the
plain kernels."""

import numpy as np
import pytest

from solr_indexer_ray.functions import parpool
from solr_indexer_ray.pipelines.search import (
    _chain_survivors,
    _near2_from_keys,
    _near_freqs,
    _par_chunked,
    _par_searchsorted,
    _phrase_survivors,
    _sorted_isin,
)


@pytest.fixture
def tiny_chunks(monkeypatch):
    """Force the threaded path for arrays of a few dozen elements."""
    monkeypatch.setattr(parpool, "CHUNK", 8)
    yield


class TestParChunked:
    def test_searchsorted_identical_across_threshold(self, tiny_chunks):
        rng = np.random.default_rng(0)
        for n in (0, 1, 15, 16, 17, 100, 1000):
            probes = np.sort(rng.integers(0, 500, n)).astype(np.int64)
            target = np.sort(rng.integers(0, 500, 333)).astype(np.int64)
            for side in ("left", "right"):
                assert np.array_equal(
                    _par_searchsorted(target, probes, side=side),
                    np.searchsorted(target, probes, side=side),
                ), (n, side)

    def test_sorted_isin_identical(self, tiny_chunks):
        rng = np.random.default_rng(1)
        a = np.sort(rng.choice(10_000, 700, replace=False)).astype(np.int64)
        b = np.sort(rng.choice(10_000, 900, replace=False)).astype(np.int64)
        assert np.array_equal(_sorted_isin(a, b), np.isin(a, b))

    def test_chunk_order_preserved(self, tiny_chunks):
        arr = np.arange(100, dtype=np.int64)
        out = _par_chunked(lambda c: c * 2, arr)
        assert np.array_equal(out, arr * 2)


class TestUnionDocIds:
    """Both union strategies (bitmask scatter vs sort-based np.unique)
    must agree, and the single-list path must be read-only (it aliases
    the live postings cache)."""

    class _TP:
        def __init__(self, ids):
            self.doc_ids = np.asarray(ids, dtype=np.int64)

    class _Eng:
        from solr_indexer_ray.pipelines.search import (
            SearchEngine as _SE,
        )
        _union_doc_ids = _SE._union_doc_ids

        def __init__(self, doc_space):
            self.doc_space = doc_space

    def test_branches_agree(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            doc_space = int(rng.integers(10, 3_000_000))
            k = int(rng.integers(2, 6))
            tps = [self._TP(np.unique(rng.integers(
                0, doc_space, int(rng.integers(0, 40)))))
                for _ in range(k)]
            ref = np.unique(np.concatenate(
                [tp.doc_ids for tp in tps]))
            got = self._Eng(doc_space)._union_doc_ids(tps)
            assert np.array_equal(got, ref), doc_space

    def test_single_list_read_only(self):
        tp = self._TP([1, 5, 9])
        out = self._Eng(100)._union_doc_ids([tp])
        assert np.array_equal(out, tp.doc_ids)
        with pytest.raises(ValueError):
            out[0] = 7
        assert tp.doc_ids[0] == 1  # cache untouched


def _random_keyed_streams(rng, n_docs, maxpos, n_terms, stride):
    """Per-term sorted global key streams + aligned per-doc segments."""
    keys, segs, lens = {}, {}, {}
    for t in range(n_terms):
        parts, seg, ln = [], [], []
        for d in range(n_docs):
            p = np.sort(rng.choice(
                maxpos, size=int(rng.integers(1, 6)), replace=False))
            parts.append(d * stride + p)
            seg.append(p)
            ln.append(len(p))
        keys[t] = np.concatenate(parts).astype(np.int64)
        segs[t] = (np.concatenate(seg).astype(np.int64),
                   np.array(ln, dtype=np.int64))
    return keys, segs


class TestThreadedMatchersVsSegments:
    """Fuzz the threaded phrase/chain/near2 kernels against the segment
    matchers with CHUNK=8 so every pass crosses chunk boundaries."""

    def test_phrase_survivors_threaded(self, tiny_chunks):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n_docs = int(rng.integers(2, 12))
            maxpos = int(rng.integers(8, 30))
            n_terms = int(rng.integers(2, 4))
            stride = maxpos + n_terms + 2
            keys, segs = _random_keyed_streams(
                rng, n_docs, maxpos, n_terms, stride)
            phrase = list(range(n_terms))
            cand = _phrase_survivors(keys, phrase)
            docs = np.arange(n_docs, dtype=np.int64)
            ref_segs = {t: segs[t] for t in phrase}
            from solr_indexer_ray.pipelines.search import _phrase_freqs
            ref = _phrase_freqs(docs, ref_segs, phrase)
            got_docs, got_freqs = (
                np.unique(cand // stride, return_counts=True)
                if cand.size else (np.empty(0, np.int64),) * 2
            )
            assert np.array_equal(got_docs, ref[0])
            assert np.array_equal(got_freqs, ref[1])

    def test_chain_survivors_threaded(self, tiny_chunks):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n_docs = int(rng.integers(2, 12))
            maxpos = int(rng.integers(8, 30))
            n_terms = int(rng.integers(3, 5))  # 3+ = chain path
            slop = int(rng.integers(0, 6))
            stride = maxpos + n_terms + slop + 2
            keys, segs = _random_keyed_streams(
                rng, n_docs, maxpos, n_terms, stride)
            terms = list(range(n_terms))
            surv = _chain_survivors(
                keys, terms, slop, keys[terms[0]], stride)
            docs = np.arange(n_docs, dtype=np.int64)
            ref = _near_freqs(docs, {t: segs[t] for t in terms},
                              terms, slop)
            got_docs, got_freqs = (
                np.unique(surv // stride, return_counts=True)
                if surv.size else (np.empty(0, np.int64),) * 2
            )
            assert np.array_equal(got_docs, ref[0])
            assert np.array_equal(got_freqs, ref[1])

    def test_near2_threaded(self, tiny_chunks):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n_docs = int(rng.integers(2, 12))
            maxpos = int(rng.integers(8, 30))
            slop = int(rng.integers(0, 5))
            stride = maxpos + slop + 4
            keys, segs = _random_keyed_streams(
                rng, n_docs, maxpos, 2, stride)
            got = _near2_from_keys(keys[0], keys[1], slop, stride)
            docs = np.arange(n_docs, dtype=np.int64)
            ref = _near_freqs(docs, {0: segs[0], 1: segs[1]}, [0, 1],
                              slop)
            assert np.array_equal(got[0], ref[0])
            assert np.array_equal(got[1], ref[1])


def test_scatter_add_equivalence(tiny_chunks):
    """_scatter_add must equal the plain fancy-index add for unique ids,
    array and scalar values, across the chunked threshold."""
    from solr_indexer_ray.pipelines.search import _scatter_add

    rng = np.random.default_rng(23)
    for n in (0, 1, 15, 16, 100, 1000):
        ids = np.sort(rng.choice(5000, n, replace=False)).astype(np.int64)
        vec = rng.random(n)
        a = np.zeros(5000)
        b = np.zeros(5000)
        a[ids] += vec
        _scatter_add(b, ids, vec)
        assert np.array_equal(a, b), n
        c = np.zeros(5000, dtype=np.int32)
        d = np.zeros(5000, dtype=np.int32)
        c[ids] += 1
        _scatter_add(d, ids, 1)
        assert np.array_equal(c, d), n


class TestPoolSize:
    """The pool runs one thread per CPU the process may use, at most
    ``MAX_THREADS``."""

    def test_affinity_mask_outside_ray(self, monkeypatch):
        import sys

        monkeypatch.delitem(sys.modules, "ray", raising=False)
        for cpus, want in (({0}, 1), ({0, 5, 9}, 3),
                           (set(range(32)), 32)):
            monkeypatch.setattr(parpool.os, "sched_getaffinity",
                                lambda _pid, c=cpus: c)
            assert parpool.usable_cpus() == want
        assert min(parpool.MAX_THREADS, parpool.usable_cpus()) == 8

    def test_ray_driver_uses_affinity(self, monkeypatch):
        monkeypatch.setattr(parpool.os, "sched_getaffinity",
                            lambda _pid: {0, 1})
        assert parpool.usable_cpus() == 2

    def test_ray_worker_uses_assigned_cpus(self):
        import ray

        @ray.remote
        def sizes():
            return parpool.usable_cpus(), parpool.pool()._max_workers

        for cpus, want in ((1, 1), (0.5, 1), (2, 2)):
            assert ray.get(sizes.options(num_cpus=cpus).remote()) \
                == (want, want), cpus
