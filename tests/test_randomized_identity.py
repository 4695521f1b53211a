"""Randomized rank-identity sweep: random corpora × random queries, engine
vs brute-force oracle.  Deterministic seeds (reproducible), broad coverage
of tf/df/doclen shapes the hand-written query set can't enumerate."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import SearchEngine
from solr_indexer_ray.sources.corpus import generate_corpus


def random_queries(rng, vocab, n, oracle=None):
    out = []
    for _ in range(n):
        k = int(rng.integers(1, 4))
        terms = [vocab[int(rng.integers(len(vocab)))] for _ in range(k)]
        mode = int(rng.integers(11))
        if mode == 0 and k > 1:
            out.append(" AND ".join(terms))
        elif mode == 1 and k > 1:
            out.append(" ".join(terms[:-1]) + f" -{terms[-1]}")
        elif mode == 2:
            out.append("lang:python " + " ".join(terms))
        elif mode == 3 and oracle is not None:
            # real bigram phrase from a random doc (or a miss)
            di = int(rng.integers(oracle.n_docs))
            toks = oracle.tokens[di]
            if len(toks) > 2:
                p = int(rng.integers(len(toks) - 1))
                out.append(f'"{toks[p]} {toks[p + 1]}" ' + terms[0])
            else:
                out.append(f'"{terms[0]} zzmiss"')
        elif mode == 4:
            out.append(f"{terms[0][:3]}* " + " ".join(terms[1:]))
        elif mode == 5:
            lo = int(rng.integers(1, 60))
            hi = lo + int(rng.integers(1, 120))
            br = "[" if rng.integers(2) else "{"
            kr = "]" if rng.integers(2) else "}"
            out.append(f"doclen:{br}{lo} TO {hi}{kr} " + " ".join(terms))
        elif mode == 6 and k > 1:
            out.append(f"-{terms[0][:3]}* " + " ".join(terms[1:]))
        elif mode == 7 and len(terms[0]) > 3:
            # fuzzy: typo a real vocab word (drop or swap a char)
            w = terms[0]
            j = int(rng.integers(1, len(w)))
            typo = w[:j] + w[j + 1:] if rng.integers(2) else (
                w[:j] + "q" + w[j + 1:]
            )
            e = int(rng.integers(1, 3))
            out.append(f"{typo}~{e} " + " ".join(terms[1:]))
        elif mode == 8 and len(terms[0]) > 3:
            # general wildcard: ? or infix * inside a real word
            w = terms[0]
            j = int(rng.integers(1, len(w) - 1))
            pat = (w[:j] + "?" + w[j + 1:]) if rng.integers(2) else (
                w[:j] + "*" + w[-1]
            )
            out.append(pat + " " + " ".join(terms[1:]))
        elif mode == 9 and oracle is not None:
            # proximity: near-pair from a random doc (gap <= slop)
            di = int(rng.integers(oracle.n_docs))
            toks = oracle.tokens[di]
            if len(toks) > 5:
                p = int(rng.integers(len(toks) - 4))
                g = int(rng.integers(1, 4))
                slop = int(rng.integers(1, 6))
                out.append(f'"{toks[p]} {toks[min(p + g, len(toks) - 1)]}"~{slop}')
            else:
                out.append(f'"{terms[0]} zzmiss"~2')
        else:
            out.append(" ".join(terms))
    return out


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_random_corpus_rank_identity(seed, tmp_path):
    rng = np.random.default_rng(seed)
    n_files = int(rng.integers(40, 160))
    corpus = generate_corpus(
        n_files, seed=seed, mean_tokens=int(rng.integers(15, 90))
    )
    path = str(tmp_path / "c.parquet")
    pq.write_table(corpus, path, row_group_size=max(8, n_files // 5))

    index_dir = str(tmp_path / "idx")
    config = IndexConfig(
        docs_per_range=int(rng.choice([32, 64, 1 << 20])),
        concurrency=2,
        store_positions=True,  # the random grammar includes phrases
    )
    build_index(path, index_dir, config=config)

    oracle = BruteForceBM25(
        corpus.append_column(
            "doc_id", pa.array(range(corpus.num_rows), pa.int64())
        )
    )
    engine = SearchEngine(index_dir)

    # vocabulary drawn from actual doc tokens (plus one absent term)
    vocab = sorted(oracle.df)[:200] + ["notaterm"]
    for q in random_queries(rng, vocab, 30, oracle=oracle):
        for k in (3, 10):
            got = engine.search(q, k=k, fl=["doc_id"])
            expect = oracle.search(q, k=k)
            assert got["doc_id"].to_pylist() == [d for d, _ in expect], (seed, q)
            assert got["score"].to_pylist() == pytest.approx(
                [s for _, s in expect], rel=1e-12, abs=1e-12
            ), (seed, q)


@pytest.mark.parametrize("seed", [11, 22])
def test_random_boolean_trees_match_set_algebra(seed, tmp_path):
    """Random grouped queries: the engine's tree evaluation must equal
    independent set algebra over flat per-term match sets, and the
    distributed clause-tree path must be bit-identical to the single
    engine."""
    from solr_indexer_ray.pipelines.search import search_partitioned

    rng = np.random.default_rng(seed)
    corpus = generate_corpus(120, seed=seed, mean_tokens=40)
    path = str(tmp_path / "c.parquet")
    pq.write_table(corpus, path, row_group_size=32)
    index_dir = str(tmp_path / "idx")
    build_index(path, index_dir,
                config=IndexConfig(docs_per_range=48, concurrency=2))
    engine = SearchEngine(index_dir)
    oracle = BruteForceBM25(
        corpus.append_column(
            "doc_id", pa.array(range(corpus.num_rows), pa.int64())
        )
    )
    vocab = sorted(oracle.df)[:80]

    def term():
        return vocab[int(rng.integers(len(vocab)))]

    def gen(depth):
        if depth == 0 or rng.integers(3) == 0:
            return term()
        op = " OR " if rng.integers(2) else " AND "
        kids = [gen(depth - 1) for _ in range(int(rng.integers(2, 4)))]
        neg = "-" if rng.integers(5) == 0 else ""
        return neg + "(" + op.join(kids) + ")"

    def expected(q):
        """Set algebra over the query string (balanced-paren recursive
        descent, AND > OR, '-' = MUST_NOT, same grammar)."""
        def ids(t):
            return set(engine.match_ids(t).tolist())

        everything = set(range(engine.n_docs))

        def split_top(s, sep):
            parts, depth, cur = [], 0, ""
            i = 0
            while i < len(s):
                c = s[i]
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                if depth == 0 and s[i:i + len(sep)] == sep:
                    parts.append(cur)
                    cur = ""
                    i += len(sep)
                    continue
                cur += c
                i += 1
            parts.append(cur)
            return parts

        def ev(s):
            s = s.strip()
            ors = split_top(s, " OR ")
            if len(ors) > 1:
                pos = set()
                saw_pos = False
                negs = set()
                for p in ors:
                    m, isneg = ev_and(p)
                    if isneg:
                        negs |= m
                    else:
                        pos |= m
                        saw_pos = True
                # pure-negative node matches NOTHING (Lucene; the *:*
                # wrap exists only for a top-level single negation, which
                # reaches here via ev_unary's isneg instead)
                return (pos - negs) if saw_pos else set()
            m, isneg = ev_and(s)
            return (everything - m) if isneg else m

        def ev_and(s):
            s = s.strip()
            ands = split_top(s, " AND ")
            if len(ands) > 1:
                out = None
                negs = set()
                for p in ands:
                    m, isneg = ev_unary(p)
                    if isneg:
                        negs |= m
                    elif out is None:
                        out = m
                    else:
                        out &= m
                base = out if out is not None else set()  # pure-negative
                return base - negs, False
            return ev_unary(s)

        def ev_unary(s):
            s = s.strip()
            neg = False
            while s.startswith("-"):
                neg = not neg
                s = s[1:]
            if s.startswith("("):
                inner = ev(s[1:-1])
                return inner, neg
            return ids(s), neg

        return ev(q)

    for _ in range(15):
        q = gen(2)
        if "(" not in q:
            continue
        got = set(engine.match_ids(q).tolist())
        want = expected(q)
        assert got == want, (seed, q)
        a = engine.search(q, k=10, fl=["doc_id"])
        b = search_partitioned(index_dir, q, k=10)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), (seed, q)
        assert a["score"].to_pylist() == b["score"].to_pylist(), (seed, q)


@pytest.mark.parametrize("seed", [7, 77])
def test_random_field_queries_distributed_identity(seed, tmp_path):
    """Random fielded queries (field terms/phrases, boosts, negation,
    AND, mixed content terms, dismax qf): the per-range distributed
    path must be bit-identical to the single engine (whose fielded
    scoring is separately verified against an independent brute force in
    test_field_search)."""
    from solr_indexer_ray.functions.tokenize import simple_analyzer
    from solr_indexer_ray.pipelines.search import search_partitioned

    rng = np.random.default_rng(seed)
    n_files = int(rng.integers(60, 140))
    corpus = generate_corpus(n_files, seed=seed, mean_tokens=40)
    path = str(tmp_path / "c.parquet")
    pq.write_table(corpus, path, row_group_size=32)
    index_dir = str(tmp_path / "idx")
    build_index(
        path, index_dir,
        config=IndexConfig(
            docs_per_range=int(rng.choice([32, 64])), concurrency=2,
            store_positions=True,
            analyzed_fields=("path_text:path", "repo_text:repo"),
        ),
    )
    engine = SearchEngine(index_dir)

    ptoks = sorted({
        t for p in corpus["path"].to_pylist() for t in simple_analyzer(p)
    })
    rtoks = sorted({
        t for r in corpus["repo"].to_pylist() for t in simple_analyzer(r)
    })
    ctoks = sorted({
        t for c in corpus["content"].to_pylist()[:20]
        for t in simple_analyzer(c or "")
    })[:80]
    paths = corpus["path"].to_pylist()

    def rand_query():
        parts = []
        n_cl = int(rng.integers(1, 4))
        for _ in range(n_cl):
            mode = int(rng.integers(6))
            if mode == 0:
                t = ptoks[int(rng.integers(len(ptoks)))]
                neg = "-" if rng.integers(4) == 0 else ""
                boost = f"^{int(rng.integers(2, 4))}" if (
                    not neg and rng.integers(3) == 0
                ) else ""
                parts.append(f"{neg}path_text:{t}{boost}")
            elif mode == 1:
                t = rtoks[int(rng.integers(len(rtoks)))]
                parts.append(f"repo_text:{t}")
            elif mode == 2:
                pt = simple_analyzer(paths[int(rng.integers(len(paths)))])
                if len(pt) >= 2:
                    j = int(rng.integers(len(pt) - 1))
                    neg = "-" if rng.integers(4) == 0 else ""
                    parts.append(f'{neg}path_text:"{pt[j]} {pt[j + 1]}"')
                else:
                    parts.append("path_text:zzmiss")
            elif mode == 3:
                parts.append("path_text:zzqqmiss")
            elif mode == 4 and ctoks:
                # plain boosted content term: exercises the shipped
                # (idf*impact)*boost float order
                t = ctoks[int(rng.integers(len(ctoks)))]
                parts.append(f"{t}^{int(rng.integers(2, 5))}")
            else:
                parts.append(ctoks[int(rng.integers(len(ctoks)))])
        q = " ".join(parts)
        if rng.integers(4) == 0 and not any(
            p.startswith("-") for p in parts
        ):
            q = " AND ".join(parts)
        return q

    for _ in range(25):
        q = rand_query()
        qf = None
        tie = 0.0
        if rng.integers(4) == 0 and ":" not in q and "AND" not in q:
            qf = "content^1 path_text^2"
            tie = float(rng.choice([0.0, 0.3]))
        a = engine.search(q, k=10, fl=["doc_id"], qf=qf, tie=tie)
        b = search_partitioned(index_dir, q, k=10, qf=qf, tie=tie)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), (seed, q)
        assert a["score"].to_pylist() == b["score"].to_pylist(), (seed, q)
