"""Stage-2 merge (``ShardMerger``) against an independent reference.

The reference rebuilds every ``(term, doc-range)`` row straight from the
spill rows with per-term numpy: concatenate the parts in first-doc-id
order, ``encode_doc_ids`` / ``varint_encode``, and join the pre-encoded
position blobs.  Every segment a commit writes
(``range-R-seg-G.parquet``) must equal it exactly, types included.  A
commit deletes its spills, so these tests keep a copy of them
(:func:`keeping_spills`).
"""

import glob
import os
import shutil
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines import build as build_mod
from solr_indexer_ray.pipelines.build import (
    MERGED_POSTINGS_SCHEMA,
    ShardMerger,
    build_index,
    extend_index,
)
from solr_indexer_ray.pipelines.mutate import compact_index, delete_by_id
from solr_indexer_ray.functions.varint import encode_doc_ids, varint_encode
from solr_indexer_ray.sources.corpus import generate_corpus
from solr_indexer_ray.state.manifest import segment_range

CFG = IndexConfig(docs_per_range=64, concurrency=2)
#: every unit id a test spill may carry
ALL_UNITS = range(10 ** 6)


def keeping_spills(fn, *args, spills, **kw):
    """Run ``fn`` (a build or an extend), moving its spills to
    ``spills`` instead of deleting them at the commit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(build_mod, "_remove_spills", lambda d: shutil.move(
            os.path.join(d, "postings_raw"), spills))
        return fn(*args, **kw)


def reference(spills: str, shard: int, dead=()) -> dict:
    """``{range_id: merged table}`` for one shard, from its spill rows
    without the postings of the ``dead`` doc ids (no positions then)."""
    src = os.path.join(spills, f"shard={shard}")
    groups = defaultdict(list)
    for row in pads.dataset(src).to_table().to_pylist():
        keep = [i for i, d in enumerate(row["doc_ids"]) if d not in dead]
        if dead and keep:
            row = dict(row, doc_ids=[row["doc_ids"][i] for i in keep],
                       tfs=[row["tfs"][i] for i in keep])
        if keep:
            groups[(row["range_id"], row["term"])].append(row)
    out = defaultdict(list)
    for (rid, term), parts in sorted(groups.items()):
        parts.sort(key=lambda p: p["doc_ids"][0])
        ids = np.concatenate([p["doc_ids"] for p in parts])
        tfs = np.concatenate([p["tfs"] for p in parts])
        assert (np.diff(ids) > 0).all()
        out[rid].append({
            "term": term,
            "range_id": rid,
            "df": int(ids.size),
            "cf": int(tfs.sum()),
            "doc_ids": encode_doc_ids(ids),
            "tfs": varint_encode(tfs),
            "positions": (b"".join(p["positions"] for p in parts)
                          if "positions" in parts[0] else None),
        })
    return {rid: pa.Table.from_pylist(rows, schema=MERGED_POSTINGS_SCHEMA)
            for rid, rows in out.items()}


def range_files(index_dir: str, shard: int, generation: int) -> dict:
    """``{range_id: path}`` of the segments commit ``generation`` wrote
    in one shard."""
    d = os.path.join(index_dir, "postings", f"shard={shard}")
    return {segment_range(os.path.basename(f)): f for f in glob.glob(
        os.path.join(d, f"range-*-seg-{generation:06d}.parquet"))}


def assert_matches_reference(index_dir: str, spills: str, generation=1,
                             dead=()) -> int:
    """Every shard's segments of ``generation`` equal the reference from
    ``spills``; returns term rows."""
    n_rows = 0
    for d in sorted(os.listdir(spills)):
        shard = int(d.split("=")[1])
        expect = reference(spills, shard, dead)
        files = range_files(index_dir, shard, generation)
        assert sorted(files) == sorted(expect), shard
        for rid, path in files.items():
            got = pq.read_table(path)
            assert got.schema.equals(MERGED_POSTINGS_SCHEMA), path
            assert got.equals(expect[rid]), path
            n_rows += got.num_rows
    return n_rows


def spill_rows(spills: str) -> pa.Table:
    return pads.dataset(spills, partitioning="hive").to_table()


def with_spills(index_dir: str, dst: str) -> str:
    """A copy of a fixture index at ``dst`` with its spills back in
    ``postings_raw/``, as before its commit deleted them."""
    shutil.copytree(index_dir, dst)
    shutil.copytree(index_dir + "-spills", os.path.join(dst, "postings_raw"))
    return dst


def write_corpus(path, n_docs, seed, row_group_size, **kw):
    table = generate_corpus(n_docs, seed=seed, mean_tokens=40,
                            with_edge_rows=False)
    for name, src in kw.items():
        table = table.append_column(name, table[src])
    pq.write_table(table, path, row_group_size=row_group_size)
    return str(path)


@pytest.fixture(scope="module")
def plain_index(tmp_path_factory):
    """Several units per doc range (row groups of 20 docs, ranges of 64)."""
    root = tmp_path_factory.mktemp("shard_merge")
    path = write_corpus(root / "c.parquet", 200, 5, 20)
    index_dir = str(root / "idx")
    keeping_spills(build_index, path, index_dir, config=CFG,
                   spills=index_dir + "-spills")
    return index_dir


@pytest.fixture(scope="module")
def pos_index(tmp_path_factory):
    """``plain_index``'s layout with ``store_positions``."""
    root = tmp_path_factory.mktemp("shard_merge_pos")
    path = write_corpus(root / "c.parquet", 200, 6, 20)
    index_dir = str(root / "idx")
    keeping_spills(build_index, path, index_dir, config=IndexConfig(
        docs_per_range=64, concurrency=2, store_positions=True),
        spills=index_dir + "-spills")
    return index_dir


def test_multi_unit_ranges_match_reference(plain_index):
    spills = plain_index + "-spills"
    assert assert_matches_reference(plain_index, spills) > 0
    assert not os.path.exists(os.path.join(plain_index, "postings_raw"))
    spill = spill_rows(spills)
    parts = spill.group_by(["shard", "term", "range_id"]).aggregate(
        [("term", "count")]
    )
    assert max(parts["term_count"].to_pylist()) > 1  # multi-part terms
    merged = pads.dataset(os.path.join(plain_index, "postings"),
                          partitioning="hive").to_table()
    assert merged["positions"].null_count == merged.num_rows


@pytest.mark.parametrize("fixture", ["plain_index", "pos_index"])
def test_spills_out_of_doc_order_merge_identically(fixture, request,
                                                    tmp_path):
    """Spill files read in reverse unit order: every term's parts arrive
    out of first-doc-id order (a non-identity permutation), and the merge
    must write the same bytes."""
    index_dir = with_spills(request.getfixturevalue(fixture),
                            str(tmp_path / "idx"))
    shard = 0
    src = os.path.join(index_dir, "postings_raw", f"shard={shard}")
    names = sorted(os.listdir(src))
    assert len(names) > 2
    tmp = [os.path.join(src, f"swap-{i}") for i in range(len(names))]
    for name, t in zip(names, tmp):
        os.rename(os.path.join(src, name), t)
    for name, t in zip(reversed(names), tmp):
        os.rename(t, os.path.join(src, name))
    spill = pads.dataset(src).to_table()
    firsts = defaultdict(list)  # read order of each term's parts
    for rid, term, ids in zip(spill["range_id"].to_pylist(),
                              spill["term"].to_pylist(),
                              spill["doc_ids"].to_pylist()):
        firsts[(rid, term)].append(ids[0])
    assert any(f != sorted(f) for f in firsts.values())
    before = {rid: open(f, "rb").read()
              for rid, f in range_files(index_dir, shard, 1).items()}
    for f in range_files(index_dir, shard, 1).values():
        os.unlink(f)
    ShardMerger(index_dir, ALL_UNITS, 1)._merge_shard(shard)
    after = {rid: open(f, "rb").read()
             for rid, f in range_files(index_dir, shard, 1).items()}
    assert after == before
    assert_matches_reference(index_dir,
                             os.path.join(index_dir, "postings_raw"))


def test_positions_bigrams_fields_then_extend(tmp_path):
    """``store_positions`` + ``store_bigrams`` + an analyzed field, then an
    extension: the boundary range gets a new segment of the new docs
    only, and no committed file is touched."""
    cfg = IndexConfig(docs_per_range=64, concurrency=2,
                      store_positions=True, store_bigrams=True,
                      analyzed_fields=("path_text:path_text",))
    base = write_corpus(tmp_path / "a.parquet", 150, 8, 25,
                        path_text="path")
    more = write_corpus(tmp_path / "b.parquet", 60, 9, 30,
                        path_text="path")
    index_dir = str(tmp_path / "idx")
    keeping_spills(build_index, base, index_dir, config=cfg,
                   spills=str(tmp_path / "spills-1"))
    assert assert_matches_reference(index_dir, str(tmp_path / "spills-1")) > 0
    terms = spill_rows(str(tmp_path / "spills-1"))["term"].to_pylist()
    assert any("\x1e" in t for t in terms)  # bigram rows
    assert any(t.startswith("path_text") for t in terms)  # field rows

    old = {}
    for f in glob.glob(os.path.join(index_dir, "postings", "*", "*.parquet")):
        st = os.stat(f)
        old[f] = (st.st_ino, st.st_mtime_ns, open(f, "rb").read())
    assert old
    keeping_spills(extend_index, more, index_dir, config=cfg,
                   spills=str(tmp_path / "spills-2"))
    for f, (ino, mtime, data) in old.items():
        st = os.stat(f)
        assert (st.st_ino, st.st_mtime_ns) == (ino, mtime), f
        assert open(f, "rb").read() == data, f
    # the extend's spills hold only the new docs, from the boundary
    # range (150 // 64) on
    rids = spill_rows(str(tmp_path / "spills-2"))["range_id"].to_pylist()
    assert min(rids) == 150 // 64
    assert assert_matches_reference(index_dir, str(tmp_path / "spills-2"),
                                    2) > 0


def test_delete_then_compact_matches_reference(plain_index, tmp_path):
    """Compaction merges every range's segment into one new segment
    without the dead docs' postings: the spill reference less those
    docs."""
    index_dir = str(tmp_path / "idx")
    shutil.copytree(plain_index, index_dir)
    dead = {0, 3, 64, 65, 130, 199}
    delete_by_id(index_dir, sorted(dead))
    compact_index(index_dir)
    assert not glob.glob(os.path.join(
        index_dir, "postings", "*", "range-*-seg-000001.parquet"))
    assert assert_matches_reference(index_dir, plain_index + "-spills", 2,
                                    dead) > 0


def test_empty_shard_directory(tmp_path):
    os.makedirs(tmp_path / "postings_raw" / "shard=3")
    row = ShardMerger(str(tmp_path), ALL_UNITS, 1)._merge_shard(3)
    assert row == {"shard": 3, "n_terms": 0, "files": [], "replaced": []}
    assert not os.path.exists(tmp_path / "postings" / "shard=3")
    out = ShardMerger(str(tmp_path), ALL_UNITS, 1)({"shard": np.array([3, 4])})
    assert out.to_pylist() == [
        {"shard": 3, "n_terms": 0, "files": [], "replaced": []},
        {"shard": 4, "n_terms": 0, "files": [], "replaced": []},
    ]


def test_overlapping_unit_spills_raise(plain_index, tmp_path):
    """A duplicated spill (the same doc ids twice in one range) must raise
    before any range file of the shard is written, not inflate df."""
    index_dir = with_spills(plain_index, str(tmp_path / "idx"))
    shard = 1
    src = os.path.join(index_dir, "postings_raw", f"shard={shard}")
    name = sorted(os.listdir(src))[-1]
    shutil.copy(os.path.join(src, name), os.path.join(src, "unit-999999.parquet"))
    out = os.path.join(index_dir, "postings", f"shard={shard}")
    shutil.rmtree(out)
    with pytest.raises(ValueError, match=rf"shard {shard} range \d+: term"):
        ShardMerger(index_dir, ALL_UNITS, 1)._merge_shard(shard)
    assert not os.path.exists(out) or not os.listdir(out)


def test_binary_offsets_overflow_raises():
    with pytest.raises(ValueError, match="shard 2 range 7"):
        build_mod._binary_column(b"", np.array([0, 2**31], np.int64),
                                 "shard 2 range 7")


def test_atomic_write_removes_tmp_on_failure(tmp_path, monkeypatch):
    def fail(table, where, **kw):
        with open(where, "wb") as fh:
            fh.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(build_mod.pq, "write_table", fail)
    target = tmp_path / "t.parquet"
    with pytest.raises(OSError, match="disk full"):
        build_mod._atomic_write_table(pa.table({"a": [1]}), str(target))
    assert os.listdir(tmp_path) == []
