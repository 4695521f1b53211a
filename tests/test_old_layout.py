"""Indexes written in the older on-disk layout keep working.

That layout carried three per-block list columns (``block_last``,
``block_max_tf``, ``block_min_norm``) in every merged ``range-*.parquet``
and a ``norms`` list column in every raw-postings spill file.  No reader
names those columns, so a postings or spill directory that mixes old- and
new-layout files must search, extend, compact and check exactly like an
index built from scratch.
"""

import glob
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
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


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    d = tmp_path_factory.mktemp("old_layout")
    a = generate_corpus(150, seed=31, mean_tokens=40, with_edge_rows=False)
    b = generate_corpus(60, seed=32, mean_tokens=40, with_edge_rows=False)
    pq.write_table(a, str(d / "a.parquet"), row_group_size=25)
    pq.write_table(b, str(d / "b.parquet"), row_group_size=30)
    build_index(str(d / "a.parquet"), str(d / "fresh"), config=CFG)
    return d


def test_fresh_build_writes_no_block_or_norms_columns(corpora):
    idx = str(corpora / "fresh")
    for f in glob.glob(f"{idx}/postings/shard=*/range-*.parquet"):
        names = pq.read_schema(f).names
        assert not [n for n in names if n.startswith("block_")], f
    spills = glob.glob(f"{idx}/postings_raw/shard=*/*.parquet")
    assert spills
    for f in spills:
        assert "norms" not in pq.read_schema(f).names, f


def test_mixed_layout_index_lifecycle(corpora, tmp_path):
    fresh = str(corpora / "fresh")
    mixed = str(tmp_path / "mixed")
    shutil.copytree(fresh, mixed)
    assert _rewrite_half(mixed, "postings/shard=*/range-*.parquet",
                         _old_range_file) > 1
    assert _rewrite_half(mixed, "postings_raw/shard=*/*.parquet",
                         _old_spill_file) > 1

    assert _results(mixed) == _results(fresh)

    extend_index(str(corpora / "b.parquet"), mixed, config=CFG)
    delete_by_id(mixed, DEAD)
    compact_index(mixed)
    res = check_index(mixed)
    assert res["ok"], res["problems"]

    # a fresh build of the same rows, with the same deletes compacted
    both = str(tmp_path / "both")
    os.makedirs(both)
    for name in ("a.parquet", "b.parquet"):
        shutil.copy(corpora / name, os.path.join(both, name))
    rebuilt = str(tmp_path / "rebuilt")
    build_index(both, rebuilt, config=CFG)
    delete_by_id(rebuilt, DEAD)
    compact_index(rebuilt)
    assert _results(mixed) == _results(rebuilt)
