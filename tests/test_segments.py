"""Immutable postings segments.

A build or an extend writes each doc range that holds new docs as a new
segment, ``postings/shard=S/range-R-seg-G.parquet``; ``stats.json`` lists
the committed files.  No committed file is rewritten: an engine opened
before the commit keeps reading its generation, a range left with more
than ``MERGE_FACTOR`` segments is merged into one new segment, and a
compaction merges every range without the dead docs.  The spills are
deleted at every commit.  Every index here must mean what a fresh build
of the same docs means (``tools/compare_index.py --logical``) and rank
like the brute-force oracle.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines import mutate
from solr_indexer_ray.pipelines.build import (
    MERGE_FACTOR,
    build_index,
    extend_index,
)
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import SearchEngine
from solr_indexer_ray.sources.corpus import generate_corpus
from solr_indexer_ray.state.manifest import BuildManifest, segment_range

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CFG = IndexConfig(docs_per_range=256, store_positions=True)
QUERIES = ["def index", "parse merge buffer", "read AND count", "the"]
PHRASES = ['"def index"', '"read the"~2']
N_EXTENDS = 12

_spec = importlib.util.spec_from_file_location(
    "compare_index", os.path.join(REPO, "tools", "compare_index.py"))
compare_index = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_index)


def snapshot(index_dir) -> dict:
    """``(inode, size, mtime_ns)`` of every file under ``postings/``."""
    out = {}
    root = os.path.join(index_dir, "postings")
    for d, _, files in os.walk(root):
        for f in files:
            st = os.stat(os.path.join(d, f))
            out[os.path.relpath(os.path.join(d, f), root)] = (
                st.st_ino, st.st_size, st.st_mtime_ns)
    return out


def answers(eng) -> list:
    return [eng.search(q, k=20, fl=["doc_id"]).to_pylist()
            for q in QUERIES + PHRASES]


def segments_per_range(stats) -> Counter:
    return Counter((f.split("/")[0], segment_range(f.split("/")[1]))
                   for f in stats["postings_files"])


@pytest.fixture(scope="module")
def extended(tmp_path_factory):
    """One doc range grown by ``N_EXTENDS`` extends (a merge on the way),
    with what each extend left and what an engine opened between its
    stage 2 and its commit answered."""
    d = tmp_path_factory.mktemp("segments")
    full = generate_corpus(40 + 8 * N_EXTENDS, seed=12, mean_tokens=40,
                           with_edge_rows=False)
    os.makedirs(d / "all")
    pq.write_table(full.slice(0, 40), str(d / "all" / "base.parquet"),
                   row_group_size=20)
    idx = str(d / "idx")
    build_index(str(d / "all" / "base.parquet"), idx, config=CFG)
    steps = []
    commit = BuildManifest.commit

    def commit_after_a_read(self, stats):
        steps[-1]["mid"] = answers(SearchEngine(self.index_dir))
        steps[-1]["mid_generation"] = SearchEngine(
            self.index_dir).stats["generation"]
        commit(self, stats)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BuildManifest, "commit", commit_after_a_read)
        for i in range(N_EXTENDS):
            path = str(d / "all" / f"ext-{i:02d}.parquet")
            pq.write_table(full.slice(40 + 8 * i, 8), path)
            before = BuildManifest(idx).read_stats()
            steps.append({"before": before, "files": snapshot(idx),
                          "answers": answers(SearchEngine(idx))})
            steps[-1]["after"] = extend_index(path, idx, config=CFG)
            steps[-1]["left"] = snapshot(idx)
    fresh = str(d / "fresh")
    build_index(str(d / "all"), fresh, config=CFG)
    ids = pa.array(range(full.num_rows), pa.int64())
    return idx, fresh, full.append_column("doc_id", ids), steps


def test_extend_never_rewrites_or_unlinks_a_committed_file(extended):
    idx, _, _, steps = extended
    merged = 0
    for step in steps:
        kept = set(step["after"]["postings_files"])
        for rel, ident in step["files"].items():
            if rel in kept:  # still committed: the same file, untouched
                assert step["left"][rel] == ident, rel
            else:  # merged away by this extend: unlinked after its commit
                assert rel in step["before"]["postings_files"]
                assert rel not in step["left"], rel
                merged += 1
        assert sorted(step["left"]) == sorted(kept)
        assert not os.path.exists(os.path.join(idx, "postings_raw"))
    assert merged  # the merge policy ran


def test_engine_opened_before_the_commit_reads_the_previous_generation(
        extended):
    _, _, _, steps = extended
    for step in steps:
        assert step["mid_generation"] == step["before"]["generation"]
        assert step["mid"] == step["answers"]


def test_merge_policy_bounds_segments_per_range(extended):
    idx, _, _, steps = extended
    counts = [max(segments_per_range(s["after"]).values()) for s in steps]
    assert max(counts) == MERGE_FACTOR
    assert all(c <= MERGE_FACTOR for c in counts)
    assert counts[MERGE_FACTOR - 1] == 1  # the 10th extend merged
    names = {f.split("/")[1] for f in steps[-1]["after"]["postings_files"]}
    assert f"range-000000-seg-{MERGE_FACTOR + 1:06d}.parquet" in names


def test_extended_index_equals_fresh_build(extended):
    idx, fresh, corpus, _ = extended
    proc = subprocess.run(
        [sys.executable, "tools/compare_index.py", "--logical", idx, fresh],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "logically identical" in proc.stdout
    postings = compare_index.postings_table(idx)
    assert postings.num_rows > 0
    assert postings["positions"].null_count == 0
    eng, oracle = SearchEngine(idx), BruteForceBM25(corpus)
    for q in QUERIES:
        got = eng.search(q, k=15, fl=["doc_id"])
        expect = oracle.search(q, k=15)
        assert got["doc_id"].to_pylist() == [d for d, _ in expect], q
        assert got["score"].to_pylist() == pytest.approx(
            [s for _, s in expect]), q
    for q in PHRASES:
        assert eng.search(q, k=20).equals(SearchEngine(fresh).search(q, k=20))


def test_logical_compare_sees_a_difference(extended, tmp_path):
    idx, fresh, _, _ = extended
    other = str(tmp_path / "other")
    shutil.copytree(idx, other)
    mutate.delete_by_id(other, [3])
    mutate.compact_index(other)
    assert compare_index.compare_logical(other, fresh)
    proc = subprocess.run(
        [sys.executable, "tools/compare_index.py", "--logical", other, fresh],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1 and "DIFFERS: postings" in proc.stdout


def test_compact_equals_fresh_build_of_live_docs(extended, tmp_path):
    """Compaction of a segmented positional index: every range becomes
    one segment whose postings, positions included, are those of a fresh
    build of the live docs (doc ids mapped in order), and the index
    ranks like the oracle over the live docs."""
    idx, _, corpus, _ = extended
    work = str(tmp_path / "idx")
    shutil.copytree(idx, work)
    dead = [0, 7, 41, 42, 63, 100, corpus.num_rows - 1]
    mutate.delete_by_id(work, dead)
    stats = mutate.compact_index(work)["stats"]
    assert set(segments_per_range(stats).values()) == {1}
    assert all(f.endswith(f"-seg-{stats['generation']:06d}.parquet")
               for f in stats["postings_files"])
    assert not os.path.exists(os.path.join(work, "postings_raw"))
    live = np.setdiff1d(np.arange(corpus.num_rows), dead)
    pq.write_table(corpus.take(pa.array(live)).drop(["doc_id"]),
                   str(tmp_path / "live.parquet"))
    build_index(str(tmp_path / "live.parquet"), str(tmp_path / "fresh"),
                config=CFG)
    got = compare_index.postings_table(work)
    got = got.set_column(1, "doc_id", pa.array(
        np.searchsorted(live, got["doc_id"].to_numpy())))
    want = compare_index.postings_table(str(tmp_path / "fresh"))
    assert got.equals(want)
    docs = compare_index.docs_table(work).drop(["doc_id"])
    assert docs.equals(compare_index.docs_table(
        str(tmp_path / "fresh")).drop(["doc_id"]))
    eng = SearchEngine(work)
    oracle = BruteForceBM25(corpus.take(pa.array(live)))
    for q in QUERIES:
        got = eng.search(q, k=15, fl=["doc_id"])
        expect = oracle.search(q, k=15)
        assert got["doc_id"].to_pylist() == [d for d, _ in expect], q
        assert got["score"].to_pylist() == pytest.approx(
            [s for _, s in expect]), q


def test_reader_that_loses_a_race_with_an_unlink_rereads_stats(
        extended, tmp_path, monkeypatch):
    """An engine that read ``stats.json`` just before a merge's commit
    and finds a listed file unlinked opens the newer commit."""
    idx, _, _, steps = extended
    work = str(tmp_path / "idx")
    shutil.copytree(idx, work)
    stale = dict(steps[MERGE_FACTOR - 2]["after"])  # before the merge
    gone = [f for f in stale["postings_files"]
            if not os.path.exists(os.path.join(work, "postings", f))]
    assert gone
    reads = iter([stale])
    read_stats = BuildManifest.read_stats
    monkeypatch.setattr(BuildManifest, "read_stats", lambda self: next(
        reads, None) or read_stats(self))
    eng = SearchEngine(work)
    assert eng.stats["generation"] == json.load(
        open(os.path.join(work, "stats.json")))["generation"]
    assert answers(eng) == answers(SearchEngine(idx))
