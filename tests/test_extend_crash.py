"""An extend killed before its commit leaves an orphan docs part, unit
entries and spills beside the committed index.  Readers open the
committed file list, so the index stays healthy and exports hold no
uncommitted doc; the retried extend adds the docs once and answers like
a fresh build of both files."""

import importlib.util
import os
import shutil

import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index, extend_index
from solr_indexer_ray.pipelines.fsck import check_index
from solr_indexer_ray.pipelines.mutate import _existing_ids
from solr_indexer_ray.pipelines.search import SearchEngine, export_matches
from solr_indexer_ray.pipelines.streaming import compile_stream_expr
from solr_indexer_ray.sources.corpus import generate_corpus
from solr_indexer_ray.state.manifest import BuildManifest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "compare_index", os.path.join(REPO, "tools", "compare_index.py"))
compare_index = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_index)

CFG = IndexConfig(docs_per_range=64)
QUERIES = ["def index", "parse merge buffer", "read AND count", "the",
           "(def OR read) AND NOT zzz"]


@pytest.fixture(scope="module")
def crashed(tmp_path_factory):
    """``(index dir, dir with a.parquet + b.parquet)``: an 80-doc index
    whose 40-doc extend crashed at its commit."""
    d = tmp_path_factory.mktemp("extend_crash")
    full = generate_corpus(120, seed=23, mean_tokens=40,
                           with_edge_rows=False)
    inputs = d / "inputs"
    inputs.mkdir()
    pq.write_table(full.slice(0, 80), str(inputs / "a.parquet"),
                   row_group_size=40)
    pq.write_table(full.slice(80), str(inputs / "b.parquet"),
                   row_group_size=40)
    idx = str(d / "idx")
    build_index(str(inputs / "a.parquet"), idx, config=CFG)

    def crash(self, stats):
        raise RuntimeError("killed before commit")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BuildManifest, "commit", crash)
        with pytest.raises(RuntimeError, match="killed before commit"):
            extend_index(str(inputs / "b.parquet"), idx, config=CFG)
    return idx, inputs


def test_crash_leaves_an_orphan_docs_part(crashed):
    idx, _ = crashed
    stats = BuildManifest(idx).read_stats()
    listed = set(stats["docs_files"])
    on_disk = {f for f in os.listdir(os.path.join(idx, "docs"))
               if f.endswith(".parquet")}
    assert on_disk - listed, "the crash left no uncommitted docs part"
    assert stats["n_docs"] == 80 and stats["generation"] == 1


def test_readers_skip_the_orphan(crashed, tmp_path):
    idx, _ = crashed
    report = check_index(idx)
    assert report["ok"], report["problems"]
    assert _existing_ids(idx, {5, 79, 80, 100}) == {5, 79}
    out = export_matches(idx, "def", str(tmp_path / "export"))
    ids = pq.read_table(out["dest"])["doc_id"].to_pylist()
    assert ids and max(ids) < 80
    want = SearchEngine(idx)._filtered_match_ids("def").tolist()
    assert sorted(ids) == want
    rows = compile_stream_expr(
        'search(docs, q="def", fl="doc_id,score")', {"docs": idx}
    ).take_all()
    assert sorted(r["doc_id"] for r in rows) == want


def test_retry_adds_the_docs_once(crashed, tmp_path):
    idx, inputs = crashed
    retried = str(tmp_path / "retried")
    shutil.copytree(idx, retried)
    stats = extend_index(str(inputs / "b.parquet"), retried, config=CFG)
    assert stats["n_docs"] == 120
    assert stats["generation"] == 2
    assert check_index(retried)["ok"]
    fresh = str(tmp_path / "fresh")
    build_index(str(inputs), fresh, config=CFG)
    assert compare_index.compare_logical(retried, fresh) == []
    a, b = SearchEngine(retried), SearchEngine(fresh)
    for q in QUERIES:
        got = a.search(q, k=200, fl=["doc_id"])
        want = b.search(q, k=200, fl=["doc_id"])
        assert got.to_pylist() == want.to_pylist(), q
