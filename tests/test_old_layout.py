"""Indexes written in the older on-disk layouts keep working.

The first older layout carried three per-block list columns
(``block_last``, ``block_max_tf``, ``block_min_norm``) in every merged
``range-*.parquet`` and a ``norms`` list column in every raw-postings
spill file.  No reader names those columns.  The layout before postings
segments kept one ``range-R.parquet`` per shard and doc range, rewritten
in place by each commit, listed no postings files in ``stats.json`` and
kept the raw spills after the commit (or had them dropped, marked
``spills_dropped``).  An index in those layouts must search, extend,
compact and check exactly like an index built from scratch, and its
first commit deletes its leftover spills.
"""

import glob
import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines import build as build_mod
from solr_indexer_ray.pipelines.build import build_index, extend_index
from solr_indexer_ray.pipelines.fsck import check_index
from solr_indexer_ray.pipelines.mutate import compact_index, delete_by_id
from solr_indexer_ray.pipelines.search import SearchEngine, search_partitioned
from solr_indexer_ray.sources.corpus import generate_corpus

CFG = IndexConfig(docs_per_range=48, concurrency=2, store_positions=True,
                  analyzed_fields=("path_text:path",))
QUERIES = ["def", "read merge", "def AND index", '"def index"',
           "path_text:mod3 def", "pars* read", "lang:python read -merge"]
FL = ["doc_id", "path", "lang", "doclen"]
DEAD = [0, 5, 47, 48, 100, 150]


def _old_range_file(path: str) -> None:
    """Append the three per-block columns the old layout wrote."""
    t = pq.read_table(path)
    for name, typ in (("block_last", pa.int64()),
                      ("block_max_tf", pa.int32()),
                      ("block_min_norm", pa.int32())):
        t = t.append_column(name, pa.array([[7]] * t.num_rows,
                                           pa.list_(typ)))
    pq.write_table(t, path, row_group_size=512)


def _old_spill_file(path: str) -> None:
    """Insert the old layout's ``norms`` list column after ``tfs``."""
    t = pq.read_table(path)
    tfs = t["tfs"].combine_chunks()
    norms = pa.ListArray.from_arrays(
        tfs.offsets, pc.add(tfs.flatten(), 3).cast(pa.int32()))
    t = t.add_column(t.schema.get_field_index("tfs") + 1, "norms", norms)
    pq.write_table(t, path)


def _rewrite_half(index_dir: str, pattern: str, fn) -> int:
    files = sorted(glob.glob(os.path.join(index_dir, pattern)))
    for f in files[::2]:
        fn(f)
    return len(files[::2])


def _results(index_dir: str) -> list:
    eng = SearchEngine(index_dir)
    out = []
    for q in QUERIES:
        t = eng.search(q, k=15, fl=FL)
        p = search_partitioned(index_dir, q, k=15)
        out.append((t.to_pylist(), p["doc_id"].to_pylist(),
                    p["score"].to_pylist()))
    return out


def _segments_to_old_layout(index_dir: str, spills) -> None:
    """Turn a fresh build into the layout before segments: one
    ``range-R.parquet`` per shard and range, no file list in the stats,
    and the spills kept (``spills``: their copy) or dropped."""
    for f in glob.glob(f"{index_dir}/postings/shard=*/range-*-seg-*.parquet"):
        os.rename(f, f.split("-seg-")[0] + ".parquet")
    path = os.path.join(index_dir, "stats.json")
    stats = json.load(open(path))
    del stats["postings_files"]
    if spills:
        shutil.copytree(spills, os.path.join(index_dir, "postings_raw"))
    else:
        stats["spills_dropped"] = True
    json.dump(stats, open(path, "w"))


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    d = tmp_path_factory.mktemp("old_layout")
    a = generate_corpus(150, seed=31, mean_tokens=40, with_edge_rows=False)
    b = generate_corpus(60, seed=32, mean_tokens=40, with_edge_rows=False)
    pq.write_table(a, str(d / "a.parquet"), row_group_size=25)
    pq.write_table(b, str(d / "b.parquet"), row_group_size=30)
    with pytest.MonkeyPatch.context() as mp:  # keep the spills aside
        mp.setattr(build_mod, "_remove_spills", lambda i: shutil.move(
            os.path.join(i, "postings_raw"), str(d / "spills")))
        build_index(str(d / "a.parquet"), str(d / "fresh"), config=CFG)
    return d


@pytest.fixture(scope="module")
def rebuilt(corpora, tmp_path_factory):
    """Fresh builds of both corpora: as built, and with ``DEAD``
    compacted away."""
    d = tmp_path_factory.mktemp("rebuilt")
    for name in ("a.parquet", "b.parquet"):
        shutil.copy(corpora / name, d / name)
    build_index(str(d), str(d / "both"), config=CFG)
    shutil.copytree(str(d / "both"), str(d / "compacted"))
    delete_by_id(str(d / "compacted"), DEAD)
    compact_index(str(d / "compacted"))
    return str(d / "both"), str(d / "compacted")


def test_fresh_build_writes_no_block_or_norms_columns(corpora):
    idx = str(corpora / "fresh")
    files = glob.glob(f"{idx}/postings/shard=*/range-*-seg-000001.parquet")
    assert files
    for f in files:
        names = pq.read_schema(f).names
        assert not [n for n in names if n.startswith("block_")], f
    assert not os.path.exists(f"{idx}/postings_raw")
    spills = glob.glob(f"{corpora}/spills/shard=*/*.parquet")
    assert spills
    for f in spills:
        assert "norms" not in pq.read_schema(f).names, f


def _lifecycle(index_dir, corpora, rebuilt) -> None:
    """Extend, delete and compact an older-layout index: no spill or
    ``range-R.parquet`` is left, and it answers like ``rebuilt``."""
    extend_index(str(corpora / "b.parquet"), index_dir, config=CFG)
    assert not os.path.exists(os.path.join(index_dir, "postings_raw"))
    # the boundary range holds an old range file and a new segment
    assert _results(index_dir) == _results(rebuilt[0])
    stats = json.load(open(os.path.join(index_dir, "stats.json")))
    assert "spills_dropped" not in stats
    assert len(stats["postings_files"]) == len(
        glob.glob(f"{index_dir}/postings/shard=*/*.parquet"))
    delete_by_id(index_dir, DEAD)
    compact_index(index_dir)
    assert not glob.glob(f"{index_dir}/postings/shard=*/range-??????.parquet")
    res = check_index(index_dir)
    assert res["ok"], res["problems"]
    assert _results(index_dir) == _results(rebuilt[1])


def test_mixed_layout_index_lifecycle(corpora, rebuilt, tmp_path):
    fresh = str(corpora / "fresh")
    mixed = str(tmp_path / "mixed")
    shutil.copytree(fresh, mixed)
    _segments_to_old_layout(mixed, str(corpora / "spills"))
    assert _rewrite_half(mixed, "postings/shard=*/range-*.parquet",
                         _old_range_file) > 1
    assert _rewrite_half(mixed, "postings_raw/shard=*/*.parquet",
                         _old_spill_file) > 1

    assert _results(mixed) == _results(fresh)
    _lifecycle(mixed, corpora, rebuilt)


def test_old_layout_without_spills_extends_and_compacts(corpora, rebuilt,
                                                         tmp_path):
    """An index whose spills were dropped (``spills_dropped``) extends and
    compacts from its postings alone."""
    old = str(tmp_path / "old")
    shutil.copytree(str(corpora / "fresh"), old)
    _segments_to_old_layout(old, None)
    assert _rewrite_half(old, "postings/shard=*/range-*.parquet",
                         _old_range_file) > 1
    assert _results(old) == _results(str(corpora / "fresh"))
    _lifecycle(old, corpora, rebuilt)
