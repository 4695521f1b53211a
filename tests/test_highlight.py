"""Stored content + highlighting — Solr ``stored="true"`` body field and
``hl``: fl=content retrieval, <em>-wrapped best-effort snippets, pinned
across extensions, rejected on indexes without stored content."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from solr_indexer_ray.config import IndexConfig
from solr_indexer_ray.pipelines.build import build_index, extend_index
from solr_indexer_ray.pipelines.search import SearchEngine
from solr_indexer_ray.sources.corpus import generate_corpus

CFG = IndexConfig(docs_per_range=64, store_positions=True,
                  store_content=True)


@pytest.fixture(scope="module")
def cidx(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("cidx")
    corpus = generate_corpus(100, seed=7, mean_tokens=30,
                             with_edge_rows=False)
    pq.write_table(corpus.slice(0, 80), str(d / "a.parquet"),
                   row_group_size=32)
    pq.write_table(corpus.slice(80), str(d / "b.parquet"))
    build_index(str(d / "a.parquet"), str(d / "idx"), config=CFG)
    return str(d), corpus


class TestStoredContent:
    def test_fl_content(self, cidx):
        d, corpus = cidx
        eng = SearchEngine(f"{d}/idx")
        t = eng.search("def", k=3, fl=["doc_id", "content"])
        for row in t.to_pylist():
            assert row["content"] == corpus["content"][row["doc_id"]].as_py()

    def test_get_returns_content(self, cidx):
        d, corpus = cidx
        row = SearchEngine(f"{d}/idx").get(5)
        assert row["content"] == corpus["content"][5].as_py()

    def test_extend_pins_store_content(self, cidx):
        d, corpus = cidx
        stats = extend_index(f"{d}/b.parquet", f"{d}/idx",
                             config=IndexConfig(docs_per_range=64))
        assert stats["store_content"] is True
        row = SearchEngine(f"{d}/idx").get(90)
        assert row["content"] == corpus["content"][90].as_py()


class TestHighlight:
    def test_snippets_wrap_matches(self, cidx):
        d, _ = cidx
        t = SearchEngine(f"{d}/idx").search("def read", k=5,
                                            fl=["doc_id"], hl=True)
        assert "hl" in t.column_names
        hls = [h for h in t["hl"].to_pylist() if h]
        assert hls and all("<em>" in h for h in hls)

    def test_prefix_highlights_expansions(self, cidx):
        d, _ = cidx
        t = SearchEngine(f"{d}/idx").search("pars*", k=5,
                                            fl=["doc_id"], hl=True)
        hls = [h for h in t["hl"].to_pylist() if h]
        assert hls and all("<em>pars" in h.lower() for h in hls)

    def test_hl_with_sort_and_paging(self, cidx):
        d, _ = cidx
        eng = SearchEngine(f"{d}/idx")
        a = eng.search("def", k=3, fl=["doc_id"], sort="doclen desc", hl=True)
        b = eng.search("def", k=3, fl=["doc_id"], start=2, hl=True)
        assert "hl" in a.column_names and "hl" in b.column_names

    def test_rejected_without_content(self, tmp_path, ray_session):
        corpus = generate_corpus(30, seed=3, mean_tokens=15)
        pq.write_table(corpus, str(tmp_path / "c.parquet"))
        build_index(str(tmp_path / "c.parquet"), str(tmp_path / "idx"),
                    config=IndexConfig(docs_per_range=64))
        with pytest.raises(ValueError, match="store_content"):
            SearchEngine(str(tmp_path / "idx")).search("def", hl=True)


def test_hl_options_fragsize_snippets_tags(cidx):
    """hl as an options dict: fragsize bounds fragment length, snippets
    emits up to N fragments joined by ellipses, custom pre/post tags."""
    d, _ = cidx
    eng = SearchEngine(f"{d}/idx")
    t = eng.search("read", k=5, hl={"fragsize": 40, "snippets": 2,
                                    "pre": "[", "post": "]"})
    assert "hl" in t.column_names
    got = [s for s in t["hl"].to_pylist() if s]
    assert got, "expected at least one snippet"
    for s in got:
        assert "[read" in s.lower()
        assert "<em>" not in s
        for frag in s.split(" … "):
            # fragment body bounded by fragsize plus injected tag chars
            assert len(frag) <= 40 + s.count("[") * 2 + 8

def test_hl_true_still_default_tags(cidx):
    d, _ = cidx
    eng = SearchEngine(f"{d}/idx")
    t = eng.search("read", k=5, hl=True)
    got = [s for s in t["hl"].to_pylist() if s]
    assert any("<em>" in s for s in got)


def test_hl_fragments_disjoint_and_cover_match(cidx):
    """Multi-snippet fragments never overlap, and a fragsize smaller
    than the matched term still wraps the full match."""
    d, _ = cidx
    eng = SearchEngine(f"{d}/idx")
    t = eng.search("read", k=10, hl={"fragsize": 8, "snippets": 3,
                                     "pre": "[", "post": "]"})
    for s in t["hl"].to_pylist():
        if not s:
            continue
        for frag in s.split(" … "):
            stripped = frag.replace("[", "").replace("]", "")
            assert "read" in stripped.lower()  # full match covered
        # disjoint: total highlighted text never repeats a doc position
        # (fragments were cut from non-overlapping windows, so joining
        # them can't exceed the doc length)


@pytest.fixture(scope="module")
def tiny_idx(tmp_path_factory, ray_session):
    """Five hand-written docs; ``betamax`` holds ``beta`` as a substring
    but not as a token, so a highlight of ``beta`` shows on it."""
    d = tmp_path_factory.mktemp("hlgroup")
    content = [
        "def main is not fine",
        "read the betamax gamma notes",
        "the parser runs fast",
        "def index builds here",
        "alpha beta gamma",
    ]
    n = len(content)
    corpus = pa.table({
        "repo": ["org/r"] * n, "path": [f"f{i}.py" for i in range(n)],
        "commit": ["c"] * n, "lang": ["python"] * n, "content": content,
    })
    pq.write_table(corpus, str(d / "c.parquet"))
    build_index(str(d / "c.parquet"), str(d / "idx"), config=CFG)
    return str(d / "idx")


@pytest.mark.parametrize("query, want", [
    # the operator NOT is no word of the query
    ("(def OR read) AND NOT zzz",
     {0: "<em>def</em> main is not fine",
      1: "<em>read</em> the betamax gamma notes",
      3: "<em>def</em> index builds here"}),
    # a negated subtree highlights nothing
    ("-(alpha beta) AND gamma",
     {1: "read the betamax <em>gamma</em> notes"}),
    # a prefix leaf of a group highlights its expansions
    ('("def index" OR pars*)',
     {2: "the <em>parser</em> runs fast",
      3: "<em>def</em> <em>index</em> builds here"}),
])
def test_grouped_query_highlights_its_tree(tiny_idx, query, want):
    t = SearchEngine(tiny_idx).search(query, k=10, fl=["doc_id"], hl=True)
    assert dict(zip(t["doc_id"].to_pylist(), t["hl"].to_pylist())) == want


@pytest.fixture(scope="module")
def word_idx(tmp_path_factory, ray_session):
    """Docs whose words hold a query word as a substring but not as a
    token; ``python`` rows use the ``code`` analyzer, ``en`` rows
    ``simple``."""
    d = tmp_path_factory.mktemp("hlwords")
    rows = [
        ("python", "already ready to read"),
        ("en", "already ready to read"),
        ("python", "readFile(ready) reads betamax beta"),
        ("en", "İread Read parsers unparsed"),
    ]
    n = len(rows)
    corpus = pa.table({
        "repo": ["org/r"] * n, "path": [f"f{i}.py" for i in range(n)],
        "commit": ["c"] * n, "lang": [lang for lang, _ in rows],
        "content": [text for _, text in rows],
    })
    pq.write_table(corpus, str(d / "c.parquet"))
    build_index(str(d / "c.parquet"), str(d / "idx"), config=CFG)
    return str(d / "idx")


@pytest.mark.parametrize("query, want", [
    # whole tokens only: not the head of ready or the tail of already
    ("read", {0: "already ready to <em>read</em>",
              1: "already ready to <em>read</em>",
              2: "<em>read</em>File(ready) reads betamax beta",
              3: "İ<em>read</em> <em>Read</em> parsers unparsed"}),
    ("beta", {2: "readFile(ready) reads betamax <em>beta</em>"}),
    # a prefix wraps the tokens it expands to, from their start
    ("pars*", {3: "İread Read <em>parsers</em> unparsed"}),
    # a wildcard matches the whole token
    ("rea?y", {0: "already <em>ready</em> to read",
               1: "already <em>ready</em> to read",
               2: "readFile(<em>ready</em>) reads betamax beta"}),
])
def test_highlights_wrap_whole_tokens(word_idx, query, want):
    t = SearchEngine(word_idx).search(query, k=10, fl=["doc_id"], hl=True)
    assert dict(zip(t["doc_id"].to_pylist(), t["hl"].to_pylist())) == want


def test_qf_terms_highlight(tiny_idx):
    """``qf`` moves the free terms into dismax groups; their ``content``
    side highlights as the plain query does."""
    eng = SearchEngine(tiny_idx)
    plain = eng.search("def read", k=10, fl=["doc_id"], hl=True)
    want = dict(zip(plain["doc_id"].to_pylist(), plain["hl"].to_pylist()))
    assert want[0] == "<em>def</em> main is not fine"
    for qf in ("content", "content^2"):
        t = eng.search("def read", qf=qf, k=10, fl=["doc_id"], hl=True)
        assert dict(zip(t["doc_id"].to_pylist(), t["hl"].to_pylist())) \
            == want


def test_synonym_matches_highlight(tiny_idx):
    """A doc matched through a query-time synonym highlights it."""
    eng = SearchEngine(tiny_idx, synonyms={"read": ["parser"]})
    t = eng.search("read", k=10, fl=["doc_id"], hl=True)
    assert dict(zip(t["doc_id"].to_pylist(), t["hl"].to_pylist())) == {
        1: "<em>read</em> the betamax gamma notes",
        2: "the <em>parser</em> runs fast"}
