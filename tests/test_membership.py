"""One membership rule: a flat query's match set is decided once, by
counting the clauses each doc hits, and every reader sees that set — the
ranked full match set, ``match_ids``, the facet total, ``explain``'s
``matches`` and ``BruteForceBM25`` where the oracle has the shape.  A
``^0`` clause matches at score 0 (Lucene BoostQuery), so boosts never
move a doc in or out."""

import random

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index
from solr_indexer_ray.pipelines.oracle import BruteForceBM25
from solr_indexer_ray.pipelines.search import SearchEngine
from solr_indexer_ray.sources.corpus import generate_corpus

#: clause kind -> bare clauses (``zzz`` is absent from the index)
CLAUSES = {
    "term": ["def", "read", "merge", "class", "return", "zzz"],
    "prefix": ["pa*", "bu*", "me*"],
    "wildcard": ["*ea*", "sc?re", "t*m"],
    "fuzzy": ["parze~1", "bufer~1", "scor~1"],
    "fielded": ["path_text:py", "path_text:go", "path_text:mod1"],
}
BOOSTS = ("", "^0", "^1", "^2.5")
SHAPES = ("or", "and", "mm", "neg")
NEGATIONS = ("-merge", "-pa*")
SYNONYMS = {"read": ["write"], "parse": ["load"]}


@pytest.fixture(scope="module")
def corpus_index(tmp_path_factory):
    d = tmp_path_factory.mktemp("membership")
    corpus = generate_corpus(240, seed=5, mean_tokens=40,
                             with_edge_rows=False)
    pq.write_table(corpus, str(d / "docs.parquet"), row_group_size=60)
    idx = str(d / "idx")
    build_index(str(d / "docs.parquet"), idx, config=IndexConfig(
        docs_per_range=64, analyzed_fields=("path_text:path",)))
    return corpus.append_column(
        "doc_id", pa.array(range(corpus.num_rows), pa.int64())), idx


def _queries(seed: int, n: int) -> list:
    """``(query, mm, bare clauses, shape)`` drawn from every clause kind,
    boost and shape."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        shape = SHAPES[i % len(SHAPES)]
        n_clauses = rng.randint(2 if shape in ("and", "mm") else 1, 3)
        bare = list(dict.fromkeys(
            rng.choice(CLAUSES[rng.choice(list(CLAUSES))])
            for _ in range(n_clauses)))
        parts = [c + rng.choice(BOOSTS) for c in bare]
        q = (" AND ".join(parts) if shape == "and" else " ".join(parts))
        if shape == "neg":
            neg = rng.choice(NEGATIONS)
            q, bare = f"{q} {neg}", bare + [neg]
        out.append((q, 2 if shape == "mm" else None, bare, shape))
    return out


def _expected(e: SearchEngine, bare: list, shape: str, mm) -> set:
    """The match set from each bare clause's own ``match_ids``, combined
    by the shape's clause-count rule."""
    sets = [set(e.match_ids(c.lstrip("-")).tolist()) for c in bare]
    if shape == "neg":
        return set().union(*sets[:-1]) - sets[-1]
    if shape == "and":
        return set.intersection(*sets)
    need = min(mm or 1, len(sets))  # Solr caps mm at the clause count
    counts: dict = {}
    for s in sets:
        for d in s:
            counts[d] = counts.get(d, 0) + 1
    return {d for d, c in counts.items() if c >= need}


@pytest.mark.parametrize("synonyms", [None, SYNONYMS],
                         ids=["plain", "synonyms"])
def test_flat_queries_agree(corpus_index, synonyms):
    corpus, idx = corpus_index
    e = SearchEngine(idx, synonyms=synonyms)
    oracle = BruteForceBM25(corpus, synonyms=synonyms)
    rng = random.Random(11)
    zero_scored = 0
    for q, mm, bare, shape in _queries(7 if synonyms else 3, 48):
        t = e.search(q, k=e.doc_space, fl=["doc_id"], mm=mm)
        ranked = dict(zip(t["doc_id"].to_pylist(), t["score"].to_pylist()))
        zero_scored += sum(s == 0.0 for s in ranked.values())
        assert set(ranked) == _expected(e, bare, shape, mm), q
        if mm is not None:
            continue  # match_ids, facets and explain take no mm
        assert sorted(e.match_ids(q).tolist()) == sorted(ranked), q
        counts = e.facet(q, ["lang"], mincount=1)["lang"]
        assert sum(c for _, c in counts) == len(ranked), q
        outside = [d for d in range(e.doc_space) if d not in ranked]
        sample = (rng.sample(sorted(ranked), min(4, len(ranked)))
                  + rng.sample(outside, min(3, len(outside))))
        for d in sample:
            ex = e.explain(q, d)
            assert ex["matches"] == (d in ranked), (q, d)
            assert ex["score"] == ranked.get(d, 0.0), (q, d)
        if not any(c.startswith("path_text:") for c in bare):
            want = dict(oracle.search(q, k=corpus.num_rows))
            assert set(want) == set(ranked), q
            assert [ranked[d] for d in sorted(want)] == pytest.approx(
                [want[d] for d in sorted(want)]), q
    assert zero_scored, "no query matched a doc at score 0"


def test_match_ids_scores_once(corpus_index, monkeypatch):
    """``match_ids`` of a flat scored query reads the one accumulator
    pass that ranked search reads; no second clause walk."""
    _, idx = corpus_index
    e = SearchEngine(idx)
    calls = []
    real = SearchEngine._accumulate

    def spy(self, *args):
        calls.append(args[0])
        return real(self, *args)

    monkeypatch.setattr(SearchEngine, "_accumulate", spy)
    for q in ("def read", "def^0 read -merge", "def AND pa*"):
        calls.clear()
        ids = e.match_ids(q)
        assert ids.size and len(calls) == 1, q
