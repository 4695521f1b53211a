"""Skew handling (north rule): a stop-word-class term (df == N) must be
split across doc-range posting rows — no single shuffle group ever holds
more than ``docs_per_range`` postings — and results stay rank-identical."""

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pyarrow.compute as pc

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.functions.varint import decode_doc_ids
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import SearchEngine, search_partitioned


def test_stopword_term_is_range_salted(tmp_path, ray_session):
    # every doc contains 'the' (plus distinguishing content)
    n, dpr = 300, 32
    rows = {
        "repo": [f"org{i % 3}/p" for i in range(n)],
        "path": [f"f{i}.py" for i in range(n)],
        "commit": [f"c{i}" for i in range(n)],
        "lang": ["python"] * n,
        "content": [
            "the " * 5 + f"unique{i} shared{i % 7} tail" for i in range(n)
        ],
    }
    corpus = pa.table(rows)
    pq.write_table(corpus, str(tmp_path / "c.parquet"), row_group_size=64)
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c.parquet"), idx,
                config=IndexConfig(docs_per_range=dpr))

    # structural bound: the hot term occupies one posting row per range,
    # each row holding <= docs_per_range postings
    ds = pads.dataset(f"{idx}/postings", partitioning="hive")
    t = ds.to_table(filter=pc.field("term") == "the")
    assert t.num_rows == (n + dpr - 1) // dpr  # one row per doc range
    for i in range(t.num_rows):
        ids = decode_doc_ids(t["doc_ids"][i].as_py())
        assert len(ids) <= dpr
        rid = t["range_id"][i].as_py()
        assert all(rid * dpr <= d < (rid + 1) * dpr for d in ids)
    # df sums back to N across the salted rows
    assert int(pc.sum(t["df"]).as_py()) == n

    # ranking over the hot term is still rank-identical, single + fan-out
    oracle = BruteForceBM25(
        corpus.append_column("doc_id", pa.array(range(n), pa.int64()))
    )
    eng = SearchEngine(idx)
    for q in ("the", "the AND shared3", "the unique42"):
        got = eng.search(q, k=15, fl=["doc_id"])
        exp = oracle.search(q, k=15)
        assert got["doc_id"].to_pylist() == [d for d, _ in exp], q
        part = search_partitioned(idx, q, k=15)
        assert part["doc_id"].to_pylist() == got["doc_id"].to_pylist(), q
