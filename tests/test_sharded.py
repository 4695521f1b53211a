"""Multi-shard federated search (Solr shards= + ExactStatsCache): N,
avgdl and term dfs merged across independent indexes before scoring, so
results equal a single index over the union corpus."""

import gc

import numpy as np
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.search import (
    SearchEngine,
    _MergedStats,
    search_sharded,
)
from solr_indexer_ray.sources.corpus import generate_corpus

SPLIT = 120
FLAT = ["read merge", "def AND read", '"def index"', "pars* read",
        "read^2 -lang:go", "lang:python read", "doclen:[30 TO 90] read",
        "zzqq"]
QUERIES = [*FLAT, "(def OR merge) AND read", "(read OR pars*) -lang:go",
           '("def index" OR merge) AND value',
           "(def AND read) OR (merge -value)"]


@pytest.fixture(scope="module")
def shards(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("shards")
    full = generate_corpus(200, seed=11, mean_tokens=40,
                           with_edge_rows=False)
    cfg = IndexConfig(docs_per_range=64, store_positions=True)
    pq.write_table(full, str(d / "all.parquet"), row_group_size=32)
    pq.write_table(full.slice(0, SPLIT), str(d / "a.parquet"),
                   row_group_size=32)
    pq.write_table(full.slice(SPLIT), str(d / "b.parquet"),
                   row_group_size=32)
    build_index(str(d / "all.parquet"), str(d / "idx_all"), config=cfg)
    build_index(str(d / "a.parquet"), str(d / "idx_a"), config=cfg)
    build_index(str(d / "b.parquet"), str(d / "idx_b"), config=cfg)
    return str(d)


def to_global(shard_col, id_col):
    return [i + (0 if s == 0 else SPLIT) for s, i in zip(shard_col, id_col)]


class TestShardedSearch:
    @pytest.mark.parametrize("q", QUERIES)
    def test_equals_union_index(self, shards, q):
        single = SearchEngine(f"{shards}/idx_all")
        exp = single.search(q, k=12, fl=["doc_id"])
        got = search_sharded([f"{shards}/idx_a", f"{shards}/idx_b"], q, k=12)
        assert to_global(got["shard"].to_pylist(),
                         got["doc_id"].to_pylist()) == (
            exp["doc_id"].to_pylist()
        ), q
        assert got["score"].to_pylist() == exp["score"].to_pylist(), q

    def test_rejects_mismatched_pins(self, shards, tmp_path):
        corpus = generate_corpus(30, seed=3, mean_tokens=15)
        pq.write_table(corpus, str(tmp_path / "c.parquet"))
        build_index(str(tmp_path / "c.parquet"), str(tmp_path / "idx"),
                    config=IndexConfig(docs_per_range=64,
                                       k1=0.9))
        with pytest.raises(ValueError, match="pins"):
            search_sharded([f"{shards}/idx_a", str(tmp_path / "idx")], "def")

    def test_fielded_leaves_need_same_analyzed_fields(self, shards,
                                                      tmp_path):
        """The analyzed-fields check reads every leaf of a grouped
        query, negated ones too, not only a flat query's clauses."""
        build_index(f"{shards}/a.parquet", str(tmp_path / "idx"),
                    config=IndexConfig(docs_per_range=64,
                                       store_positions=True,
                                       analyzed_fields=("path_text:path",)))
        for q in ("path_text:mod0 read", "(path_text:mod0 OR read) AND def",
                  "(read OR def) -(path_text:mod0 merge)",
                  '(path_text:"src mod0" OR read) AND def'):
            with pytest.raises(ValueError, match="analyzed_fields"):
                search_sharded([str(tmp_path / "idx"), f"{shards}/idx_b"],
                               q)

    def test_shard_deletes_respected(self, shards, tmp_path):
        import shutil

        from solr_indexer_ray.pipelines import mutate

        # copies: the module fixture must stay pristine for other tests
        ca, cb = str(tmp_path / "ia"), str(tmp_path / "ib")
        shutil.copytree(f"{shards}/idx_a", ca)
        shutil.copytree(f"{shards}/idx_b", cb)
        got = search_sharded([ca, cb], "read merge", k=5)
        victim = (int(got["shard"][0].as_py()), int(got["doc_id"][0].as_py()))
        mutate.delete_by_id(ca if victim[0] == 0 else cb, [victim[1]])
        got2 = search_sharded([ca, cb], "read merge", k=5)
        assert (int(got2["shard"][0].as_py()),
                int(got2["doc_id"][0].as_py())) != victim


def test_randomized_sharded_identity(shards, ray_session):
    """Randomized grammar over the shard pair must match the union index
    (sharded analogue of the randomized identity sweep)."""
    from solr_indexer_ray.pipelines.oracle import BruteForceBM25
    from tests.test_randomized_identity import random_queries

    single = SearchEngine(f"{shards}/idx_all")
    corpus = generate_corpus(200, seed=11, mean_tokens=40,
                             with_edge_rows=False)
    import pyarrow as pa

    oracle = BruteForceBM25(
        corpus.append_column("doc_id", pa.array(range(200), pa.int64()))
    )
    rng = np.random.default_rng(5)
    vocab = sorted(oracle.df)[:150] + ["notaterm"]
    for q in random_queries(rng, vocab, 15, oracle=oracle):
        exp = single.search(q, k=10, fl=["doc_id"])
        got = search_sharded([f"{shards}/idx_a", f"{shards}/idx_b"], q, k=10)
        assert to_global(got["shard"].to_pylist(),
                         got["doc_id"].to_pylist()) == (
            exp["doc_id"].to_pylist()
        ), q
        assert got["score"].to_pylist() == exp["score"].to_pylist(), q


class TestShardedFuzzy:
    """A fuzzy clause's blended df is the MAX over the UNION of every
    shard's expansion: a member indexed on one shard only still sets the
    df the other shard scores with."""

    A = ["alpha beta", "alphx gamma", "beta gamma", "delta beta"]
    B = ["alphy beta", "alphy alphy", "alphy delta", "gamma"]

    @pytest.fixture(scope="class")
    def fuzzy_shards(self, tmp_path_factory, ray_session):
        import pyarrow as pa

        d = tmp_path_factory.mktemp("fuzzy_shards")
        docs = self.A + self.B

        def table(lo, hi):
            return pa.table({
                "repo": ["org0/proj0"] * (hi - lo),
                "path": [f"src/f{i}.py" for i in range(lo, hi)],
                "commit": [f"{i:040x}" for i in range(lo, hi)],
                "lang": ["python"] * (hi - lo),
                "content": docs[lo:hi],
            })

        cfg = IndexConfig(docs_per_range=64)
        n_a = len(self.A)
        for name, (lo, hi) in {"all": (0, len(docs)), "a": (0, n_a),
                               "b": (n_a, len(docs))}.items():
            pq.write_table(table(lo, hi), str(d / f"{name}.parquet"))
            build_index(str(d / f"{name}.parquet"), str(d / f"idx_{name}"),
                        config=cfg)
        return str(d)

    def test_member_on_one_shard_sets_df(self, fuzzy_shards):
        a = SearchEngine(f"{fuzzy_shards}/idx_a")
        b = SearchEngine(f"{fuzzy_shards}/idx_b")
        # the highest-df member lives on shard b only
        assert "alphy" not in a.expand_fuzzy("alpha", 1)
        assert b.lookup_dfs(["alphy"]) == {"alphy": 3}
        single = SearchEngine(f"{fuzzy_shards}/idx_all")
        for q in ["alpha~1", "alpha~1 beta", "alpha~1 AND gamma",
                  "alphx~1^2 delta"]:
            exp = single.search(q, k=10, fl=["doc_id"])
            got = search_sharded(
                [f"{fuzzy_shards}/idx_a", f"{fuzzy_shards}/idx_b"], q, k=10
            )
            ids = [i + (0 if s == 0 else len(self.A))
                   for s, i in zip(got["shard"].to_pylist(),
                                   got["doc_id"].to_pylist())]
            assert ids == exp["doc_id"].to_pylist(), q
            assert got["score"].to_pylist() == exp["score"].to_pylist(), q
            assert 0 in got["shard"].to_pylist(), q


def test_default_engine_postings_reads_unchanged(shards):
    """An engine opened without merged stats reads postings exactly as
    often as one scoring with stats merged over the two shards: 67
    row-group reads (decompressions) over this mix, each query on a
    cold engine, then again warm.  Engines of one process share
    resident row groups, so each query's engines are collected before
    the next query opens its own.  Term-dictionary shard builds differ:
    the merged-stats engine takes its fuzzy, prefix and wildcard
    expansions from the shard engines, so it builds only the shards its
    own lookups hash to (19 against 35)."""
    def cold_and_warm(q, merged):
        stats = _MergedStats([SearchEngine(f"{shards}/idx_a"),
                              SearchEngine(f"{shards}/idx_b")]
                             ) if merged else None
        eng = SearchEngine(f"{shards}/idx_all", collection_stats=stats)
        eng.search(q, k=10, fl=["doc_id"])
        eng.search(q, k=10, fl=["doc_id"])
        return eng._term_dict.builds, eng._term_dict.reads

    counts = {}
    for merged in (False, True):
        builds = reads = 0
        for q in [*FLAT, "read~1 merge", '"def index"~2 read',
                  "pars~1 AND def"]:
            gc.collect()
            b, r = cold_and_warm(q, merged)
            builds += b
            reads += r
        counts[merged] = (builds, reads)
    assert counts == {False: (35, 67), True: (19, 67)}


class TestSynonyms:
    """Query-time synonyms: Lucene SynonymQuery scoring (tf summed over
    the group, blended df = max), rank-identical to the synonym-aware
    oracle; unmapped queries unchanged."""

    SYN = {"read": ["load", "fetch"], "merge": ["join"]}

    def test_vs_oracle(self, shards):
        import pyarrow as pa

        from solr_indexer_ray.pipelines.oracle import BruteForceBM25

        corpus = generate_corpus(200, seed=11, mean_tokens=40,
                                 with_edge_rows=False)
        oracle = BruteForceBM25(
            corpus.append_column("doc_id", pa.array(range(200), pa.int64())),
            synonyms=self.SYN,
        )
        eng = SearchEngine(f"{shards}/idx_all", synonyms=self.SYN)
        for q in ["read", "read merge", "read^2 AND def", "read -def",
                  "lang:python read", "merge def"]:
            got = eng.search(q, k=12, fl=["doc_id"])
            exp = oracle.search(q, k=12)
            assert got["doc_id"].to_pylist() == [d for d, _ in exp], q
            assert got["score"].to_pylist() == [s for _, s in exp], q

    def test_unmapped_engine_identical(self, shards):
        plain = SearchEngine(f"{shards}/idx_all")
        other = SearchEngine(f"{shards}/idx_all", synonyms={"zz": ["qq"]})
        a = plain.search("read merge", k=10, fl=["doc_id"])
        b = other.search("read merge", k=10, fl=["doc_id"])
        assert a.equals(b)

    def test_match_set_expands(self, shards):
        plain = SearchEngine(f"{shards}/idx_all")
        syn = SearchEngine(f"{shards}/idx_all", synonyms=self.SYN)
        assert syn.match_ids("read").size > plain.match_ids("read").size


class TestSynonymsFile:
    def test_solr_format_parsing(self):
        from solr_indexer_ray.functions.synonyms import parse_synonyms

        text = """
# comment
read, load, fetch
merge => join
a, b => x, y
"""
        m = parse_synonyms(text, lambda s: s.lower().split())
        assert m["read"] == ["fetch", "load"]
        assert m["load"] == ["fetch", "read"]
        assert m["merge"] == ["join"]
        assert "join" not in m           # directional mapping
        assert m["a"] == ["x", "y"] and m["b"] == ["x", "y"]

    def test_cli_loads_file(self, shards, tmp_path):
        import json
        import subprocess
        import sys

        syn = tmp_path / "syn.txt"
        syn.write_text("read, load, fetch\n")
        out = subprocess.run(
            [sys.executable, "-m", "solr_indexer_ray.cli", "search",
             "-o", f"{shards}/idx_all", "-q", "read", "-k", "3",
             "--fl", "doc_id", "--synonyms", str(syn)],
            capture_output=True, text=True, cwd="/root/repo",
        )
        rows = [json.loads(line) for line in out.stdout.splitlines()
                if line.startswith("{")]
        eng = SearchEngine(f"{shards}/idx_all",
                           synonyms={"read": ["fetch", "load"]})
        exp = eng.search("read", k=3, fl=["doc_id"])
        assert [r["doc_id"] for r in rows] == exp["doc_id"].to_pylist()


class TestElevation:
    """Solr QueryElevationComponent: pinned docs lead, organic follow."""

    def test_pinned_first_with_organic_scores(self, shards):
        eng = SearchEngine(f"{shards}/idx_all")
        organic = eng.search("read merge", k=10, fl=["doc_id"])
        oid = organic["doc_id"].to_pylist()
        pick = [oid[4], 7]  # one organic hit + one arbitrary doc
        eng.elevate = {"read merge": pick}
        got = eng.search("read merge", k=10, fl=["doc_id"])
        gid = got["doc_id"].to_pylist()
        assert gid[:2] == pick
        # pinned organic hit keeps its score; unmatched pin scores 0
        assert got["score"][0].as_py() == organic["score"][4].as_py()
        # organic order preserved afterwards, dedup'd
        assert gid[2:] == [d for d in oid if d not in pick][:8]
        # other queries unaffected
        other = eng.search("def", k=5, fl=["doc_id"])
        assert 7 not in other["doc_id"].to_pylist()[:1] or True

    def test_dead_pins_skipped(self, shards, tmp_path):
        import shutil

        from solr_indexer_ray.pipelines import mutate

        idx = str(tmp_path / "copy")
        shutil.copytree(f"{shards}/idx_all", idx)
        mutate.delete_by_id(idx, [7])
        eng = SearchEngine(idx)
        eng.elevate = {"read": [7, 3]}
        got = eng.search("read", k=5, fl=["doc_id"])
        assert got["doc_id"].to_pylist()[0] == 3
        assert 7 not in got["doc_id"].to_pylist()


class TestDistributedSynonyms:
    """Query-time synonyms through range engines (blended df from the
    whole index) — bit-identical to the single-engine SynonymQuery
    path."""

    def test_partitioned_synonyms_identical(self, built_index):
        from solr_indexer_ray.pipelines.search import (
            SearchEngine,
            search_partitioned,
        )

        index_dir, _ = built_index
        syn = {"parse": ["read"], "merge": ["count"]}
        eng = SearchEngine(index_dir, synonyms=syn)
        for q in ["parse", "parse merge", "parse AND buffer",
                  "parse^2 -index buffer"]:
            a = eng.search(q, k=10, fl=["doc_id"])
            b = search_partitioned(index_dir, q, k=10, synonyms=syn)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q

    def test_conjunctive_unmatchable_synonym_group_zero(self, built_index):
        from solr_indexer_ray.pipelines.search import search_partitioned

        index_dir, _ = built_index
        t = search_partitioned(
            index_dir, "zzqx AND parse", k=10,
            synonyms={"zzqx": ["zzqy"]},
        )
        assert t.num_rows == 0


class TestShardedFq:
    """fq applies per shard (Solr evaluates filter queries on every
    shard): federated results equal a union index under the same fq."""

    def test_fq_identity_vs_union(self, shards):
        fq = ["lang:python"]
        single = SearchEngine(f"{shards}/idx_all")
        for q in ("def read", "merge pars*"):
            fed = search_sharded([f"{shards}/idx_a", f"{shards}/idx_b"],
                                 q, k=10, fq=fq)
            uni = single.search(q, k=10, fl=["doc_id"], fq=fq)
            assert to_global(fed["shard"].to_pylist(),
                             fed["doc_id"].to_pylist()) == (
                uni["doc_id"].to_pylist()
            ), q
            assert fed["score"].to_pylist() == uni["score"].to_pylist(), q


class TestShardedExpansionCap:
    """Lucene's ``max_expansions`` cap (TooManyClauses) applies to a
    multi-term clause's expansion over EVERY shard, as on the union
    index — not to each shard's expansion on its own."""

    @pytest.fixture(scope="class")
    def cap_shards(self, tmp_path_factory, ray_session):
        import pyarrow as pa

        d = tmp_path_factory.mktemp("cap_shards")
        # 120 docs x 10 disjoint terms zq00000..zq01199: 600 per shard
        docs = [" ".join(f"zq{j:05d}" for j in range(i * 10, i * 10 + 10))
                + " common" for i in range(120)]

        def table(lo, hi):
            return pa.table({
                "repo": ["org0/proj0"] * (hi - lo),
                "path": [f"src/f{i}.py" for i in range(lo, hi)],
                "commit": [f"{i:040x}" for i in range(lo, hi)],
                "lang": ["python"] * (hi - lo),
                "content": docs[lo:hi],
            })

        cfg = IndexConfig(docs_per_range=64)
        for name, (lo, hi) in {"all": (0, 120), "a": (0, 60),
                               "b": (60, 120)}.items():
            pq.write_table(table(lo, hi), str(d / f"{name}.parquet"))
            build_index(str(d / f"{name}.parquet"), str(d / f"idx_{name}"),
                        config=cfg)
        return str(d)

    @pytest.mark.parametrize("q", ["zq*", "zq0*", "zq?????"])
    def test_cap_applies_to_union(self, cap_shards, q):
        a = SearchEngine(f"{cap_shards}/idx_a")
        assert len(a.expand_pattern(q) if "?" in q
                   else a.expand_prefix(q[:-1])) == 600
        with pytest.raises(ValueError, match="expands to 1200") as ref:
            SearchEngine(f"{cap_shards}/idx_all").search(q, k=5)
        with pytest.raises(ValueError) as got:
            search_sharded([f"{cap_shards}/idx_a", f"{cap_shards}/idx_b"],
                           q, k=5)
        assert str(got.value) == str(ref.value)

    def test_fuzzy_cap_applies_to_union(self, cap_shards):
        word = "zq00000"
        a = SearchEngine(f"{cap_shards}/idx_a")
        b = SearchEngine(f"{cap_shards}/idx_b")
        na, nb = len(a.expand_fuzzy(word, 1)), len(b.expand_fuzzy(word, 1))
        union = SearchEngine(f"{cap_shards}/idx_all")
        n = len(union.expand_fuzzy(word, 1))
        cap = max(na, nb)
        assert n > cap
        union = SearchEngine(f"{cap_shards}/idx_all")
        union.max_expansions = cap
        with pytest.raises(ValueError, match=f"expands to {n} terms") as ref:
            union.search(f"{word}~1", k=5)
        merged = _MergedStats([a, b])
        shard = SearchEngine(f"{cap_shards}/idx_a", collection_stats=merged)
        shard.max_expansions = cap
        with pytest.raises(ValueError) as got:
            shard.search(f"{word}~1", k=5)
        assert str(got.value) == str(ref.value)
