"""Fused positional sort (VERDICT r4 item 3): the single packed-key
``np.sort`` path must produce an index bit-identical to the general
stable-argsort + lexsort path, including the position streams, across
plain and multi-field builds."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines import build as build_mod
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.search import SearchEngine
from solr_indexer_ray.sources.corpus import generate_corpus


def _build(tmp_path, name, corpus_file, config, fused: bool):
    idx = str(tmp_path / name)
    old = build_mod._FUSE_POSITIONAL
    build_mod._FUSE_POSITIONAL = fused
    try:
        build_index(corpus_file, idx, config=config)
    finally:
        build_mod._FUSE_POSITIONAL = old
    return idx


def _index_tables(idx):
    """All data-bearing parquet under an index dir, path -> table."""
    import pathlib

    out = {}
    for p in sorted(pathlib.Path(idx).rglob("*.parquet")):
        rel = str(p.relative_to(idx))
        out[rel] = pq.read_table(p)
    return out


@pytest.mark.parametrize(
    "config",
    [
        IndexConfig(docs_per_range=64, store_positions=True),
        IndexConfig(
            docs_per_range=32,
            store_positions=True,
            analyzed_fields=("path_text:path",),
        ),
    ],
    ids=["plain", "multi_field"],
)
def test_fused_positional_build_bit_identical(tmp_path, config):
    corpus = generate_corpus(120, seed=23, mean_tokens=45)
    f = str(tmp_path / "c.parquet")
    pq.write_table(corpus, f)

    idx_fused = _build(tmp_path, "idx_fused", f, config, fused=True)
    idx_plain = _build(tmp_path, "idx_plain", f, config, fused=False)

    t_fused = _index_tables(idx_fused)
    t_plain = _index_tables(idx_plain)
    assert set(t_fused) == set(t_plain)
    for rel in t_fused:
        a, b = t_fused[rel], t_plain[rel]
        if "manifest" in rel or rel.endswith("stats.parquet"):
            continue  # timings differ by construction
        assert a.schema == b.schema, rel
        assert a.equals(b), f"table mismatch in {rel}"

    # end-to-end: phrase search identical on both indexes
    eng_a, eng_b = SearchEngine(idx_fused), SearchEngine(idx_plain)
    for q in ['"the quick"', '"lorem ipsum dolor"', "zlib inflate"]:
        ra = eng_a.search(q, k=10, fl=["doc_id"])
        rb = eng_b.search(q, k=10, fl=["doc_id"])
        assert ra["doc_id"].to_pylist() == rb["doc_id"].to_pylist(), q
        assert ra["score"].to_pylist() == rb["score"].to_pylist(), q


def test_sha256_column_matches_python_hashing():
    """Buffer-sliced sha256 (stage-1 fusion) must equal the reference
    (c or "").encode() hashing for nulls, unicode, slices and chunks."""
    import hashlib

    from solr_indexer_ray.pipelines.build import _sha256_column

    col = pa.chunked_array(
        [pa.array(["abc", None, "", "héllo ✓"]), pa.array(["x" * 4096])]
    )
    expected = [
        hashlib.sha256((c or "").encode("utf-8")).hexdigest()
        for c in col.to_pylist()
    ]
    assert _sha256_column(col) == expected
    # sliced array (non-zero offset falls back to the pylist path)
    sl = col.combine_chunks().slice(1, 3)
    assert _sha256_column(sl) == expected[1:4]
