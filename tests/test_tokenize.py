"""Analyzer unit tests (pinned tokenization semantics)."""

import duckdb
import pytest

from solr_indexer_ray.functions.tokenize import (
    AnalyzerRegistry,
    code_analyzer,
    simple_analyzer,
)


class TestSimpleAnalyzer:
    def test_basic(self):
        assert simple_analyzer("Hello, World!") == ["hello", "world"]

    def test_empty_and_token_free(self):
        assert simple_analyzer("") == []
        assert simple_analyzer("   \n\t ") == []
        assert simple_analyzer("!!! ??? ---") == []

    def test_alnum_runs(self):
        assert simple_analyzer("foo_bar v2.0") == ["foo", "bar", "v2", "0"]

    def test_matches_duckdb_regexp_split(self):
        """The simple analyzer must match the oracle-SQL tokenization
        verbatim (FIXTURES.md §4)."""
        texts = [
            "The quick brown fox", "foo_bar  baz-qux", "a1 B2 c3!",
            "", "  ", "x", "naïve café 北京",
        ]
        con = duckdb.connect()
        for t in texts:
            sql = con.execute(
                "select list_filter(regexp_split_to_array(lower(?), "
                "'[^a-z0-9]+'), x -> x <> '')",
                [t],
            ).fetchone()[0]
            assert simple_analyzer(t) == sql, t


class TestCodeAnalyzer:
    def test_snake_case(self):
        assert code_analyzer("parse_doc_id") == ["parse", "doc", "id"]

    def test_camel_case(self):
        assert code_analyzer("readFileSync") == ["read", "file", "sync"]
        assert code_analyzer("HTTPServer") == ["http", "server"]

    def test_mixed_code(self):
        toks = code_analyzer("def tokenStream(max_count): return 42")
        assert toks == ["def", "token", "stream", "max", "count", "return", "42"]

    def test_plain_lower_kept_whole(self):
        assert code_analyzer("import numpy") == ["import", "numpy"]


class TestRegistry:
    def test_lang_routing(self):
        reg = AnalyzerRegistry()
        assert reg.analyzer_name("python") == "code"
        assert reg.analyzer_name("markdown") == "simple"
        assert reg.analyzer_name(None) == "simple"

    def test_overrides(self):
        reg = AnalyzerRegistry(overrides={"python": "simple"})
        assert reg.analyzer_name("python") == "simple"

    def test_unknown_default_raises(self):
        with pytest.raises(KeyError):
            AnalyzerRegistry("nope")


class TestVectorizedUnitTokenizer:
    """tokenize_unit (Arrow RE2 block path) must produce EXACTLY the
    per-row analyzers' token streams — the per-row functions are the
    reference implementation shared with the query engine and oracle."""

    def _check(self, texts, langs, registry):
        import numpy as np
        import pyarrow as pa

        from solr_indexer_ray.functions.tokenize import tokenize_unit

        tids, lens, terms = tokenize_unit(pa.array(texts), langs, registry)
        assert isinstance(terms, pa.StringArray)
        terms = terms.to_pylist()
        off = np.concatenate(([0], np.cumsum(lens)))
        for i, (text, lang) in enumerate(zip(texts, langs)):
            want = registry.tokenize(text or "", lang)
            got = [terms[t] for t in tids[off[i]:off[i + 1]]]
            assert got == want, (text, lang, got, want)

    def test_simple_block(self):
        from solr_indexer_ray.functions.tokenize import AnalyzerRegistry

        reg = AnalyzerRegistry("simple", overrides={})
        texts = ["Hello, World! 42", "", "  ", "a-b_c", None, "ümlaut ÜP"]
        self._check(texts, ["en"] * len(texts), reg)

    def test_code_block_adversarial(self):
        from solr_indexer_ray.functions.tokenize import AnalyzerRegistry

        reg = AnalyzerRegistry("simple")  # python/java routed to code
        texts = [
            "HTTPServer9 fooBar_baz 9xyz abc9d _9x -9x 12abc34def x9A 9_",
            "def readFile(path): return XMLParser2000.parse(path)",
            "__init__ __MACRO__ A B Z9 z9 9Z",
            "9 99x x99 _ __ 9_9 a_9b_C",
            "",
            "camelCaseXYZAbc HTTPSConnection2x",
        ]
        self._check(texts, ["python"] * len(texts), reg)

    @pytest.mark.parametrize("ch", ["\u0130", "\u212a"])
    @pytest.mark.parametrize("lang", ["en", "python"])
    def test_lowering_outliers(self, ch, lang):
        """``str.lower`` turns U+0130 into ``i`` + U+0307 and U+212A
        (Kelvin) into ``k``; a non-ASCII block tokenizes both as the
        per-row analyzers do, alone and next to ASCII rows."""
        from solr_indexer_ray.functions.tokenize import AnalyzerRegistry

        reg = AnalyzerRegistry("simple")  # en: simple, python: code
        alone = [f"fooB{ch}r x", ch, f"a{ch}b {ch}9x x{ch} 9{ch}Z"]
        for texts in (alone, ["fooBar baz", *alone, "plain 42", None]):
            self._check(texts, [lang] * len(texts), reg)

    def test_mixed_langs_unified_vocab(self):
        from solr_indexer_ray.functions.tokenize import AnalyzerRegistry

        reg = AnalyzerRegistry("simple")
        texts = ["fooBar baz", "Foo-bar BAZ", "getX setX", "x y z"]
        langs = ["python", "en", "java", "en"]
        self._check(texts, langs, reg)

    def test_plugin_analyzer_fallback(self):
        from solr_indexer_ray.functions.tokenize import (
            AnalyzerRegistry,
            register_analyzer,
        )

        register_analyzer("shout", lambda text: [t.upper() for t in text.split()])
        try:
            reg = AnalyzerRegistry("simple", overrides={"kl": "shout"})
            texts = ["foo bar", "Baz qux", "plain Text"]
            self._check(texts, ["kl", "en", "kl"], reg)
        finally:
            AnalyzerRegistry.ANALYZERS.pop("shout")

    @staticmethod
    def _merged_vocab(texts, langs, registry):
        """The unit vocabulary as a first-appearance dict merge: blocks
        in sorted analyzer-name order, rows ascending within a block."""
        names = [registry.analyzer_name(lang) for lang in langs]
        vocab: dict = {}
        for name in sorted(set(names)):
            for text, nm in zip(texts, names):
                if nm == name:
                    for t in registry.ANALYZERS[name](text or ""):
                        vocab.setdefault(t, len(vocab))
        return list(vocab)

    @pytest.mark.parametrize("texts,langs", [
        (["fooBar baz_qux", None, "Foo-bar BAZ!", "", "KL shout this",
          "getX setX 9lives", "   ", "x y fooBar", "kl again Foo", "!!!"],
         ["python", "en", "en", "kl", "kl", "java", "python", "en", "kl",
          "en"]),
        # the simple block yields no tokens at all
        (["readFile(path)", "!!! ---", None, "", "A b A", "HTTPServer"],
         ["go", "en", "en", "en", "kl", "python"]),
        # the plugin block yields no tokens
        (["fooBar", "", None, "plain Text"], ["python", "kl", "kl", "en"]),
    ])
    def test_mixed_blocks_match_dict_merge(self, texts, langs):
        """Mixed code / simple / plugin rows with null, empty and
        token-free rows: the vocabulary is the old first-appearance dict
        merge (term order decides the spill order) and every row's
        token stream is the per-row analyzer's."""
        import pyarrow as pa

        from solr_indexer_ray.functions.tokenize import (
            AnalyzerRegistry,
            register_analyzer,
            tokenize_unit,
        )

        register_analyzer("shout", lambda text: [t.upper() for t in text.split()])
        try:
            reg = AnalyzerRegistry("simple", overrides={"kl": "shout"})
            _, _, terms = tokenize_unit(pa.array(texts), langs, reg)
            assert terms.to_pylist() == self._merged_vocab(texts, langs, reg)
            self._check(texts, langs, reg)
        finally:
            AnalyzerRegistry.ANALYZERS.pop("shout")

    def test_empty_unit(self):
        import pyarrow as pa

        from solr_indexer_ray.functions.tokenize import (
            AnalyzerRegistry,
            tokenize_unit,
        )

        tids, lens, terms = tokenize_unit(
            pa.array([], pa.string()), [], AnalyzerRegistry())
        assert tids.size == 0 and lens.size == 0 and len(terms) == 0
        assert terms.type == pa.string()

    def test_property_random_code_strings(self):
        import random

        from solr_indexer_ray.functions.tokenize import AnalyzerRegistry

        rng = random.Random(13)
        alphabet = "aB9_ -xYZ\t.(0)Qr\n"
        reg = AnalyzerRegistry("simple")
        texts = [
            "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
            for _ in range(300)
        ]
        langs = [rng.choice(["python", "en", "go"]) for _ in texts]
        self._check(texts, langs, reg)


class TestDistinctRunBlockPath:
    """The build's block path tokenizes each distinct word run once; its
    output must equal the byte kernel run over the whole block: token
    ids, doclens, vocabulary order and dtypes."""

    @staticmethod
    def _same_as_kernel(arr, name):
        import numpy as np

        from solr_indexer_ray.functions.tokenize import (
            _tokenize_block_arrow,
            _tokenize_block_bytes,
        )

        got = _tokenize_block_arrow(arr, name)
        want = _tokenize_block_bytes(arr, name)
        for g, w in zip(got[:2], want[:2]):
            assert g.dtype == w.dtype == np.int64
            assert np.array_equal(g, w), (arr.to_pylist(), name, g, w)
        assert got[2].type == want[2].type
        assert got[2].to_pylist() == want[2].to_pylist()

    @pytest.mark.parametrize("name", ["code", "simple"])
    @pytest.mark.parametrize("rows", [
        # words that continue across a row boundary
        ["foo", "Bar", "9", "x", "HTTP", "Server", "HTTPS", "erver"],
        # null, empty and separator-only rows; separators at a row start
        [None, "", "  ", "-- foo", "", None, "\tfooBar ", "!!!", ""],
        # every run distinct
        ["alpha beta gamma", "delta_epsilon zeta9 eta", "theta"],
        # one run repeated with different trailing separators
        ["foo foo, foo;  foo", "foo\nfoo.foo", "foo"],
        # digit runs and camel splits at run edges
        ["9x x9A _9x HTTPServer9", "9x", "x9A", "_9x", "HTTPServer9",
         "a 9x;x9A\n_9x(HTTPServer9)"],
    ])
    def test_equals_whole_block_kernel(self, rows, name):
        import pyarrow as pa

        self._same_as_kernel(pa.array(rows, pa.string()), name)

    @pytest.mark.parametrize("name", ["code", "simple"])
    def test_sliced_array(self, name):
        import pyarrow as pa

        arr = pa.array(["skip Me", "foo", "Bar baz_9x", None, "HTTPServer",
                        "tail End"]).slice(1, 4)
        assert arr.offset == 1
        self._same_as_kernel(arr, name)

    @pytest.mark.parametrize("name", ["code", "simple"])
    def test_random_blocks(self, name):
        import random

        import pyarrow as pa

        rng = random.Random(29)
        alphabet = "aBz9_ -XY\t.(0)Qr\n"
        for _ in range(100):
            rows = [None if rng.random() < 0.05 else "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
                for _ in range(rng.randrange(1, 30))]
            self._same_as_kernel(pa.array(rows, pa.string()), name)

    def test_non_ascii_takes_re2_path(self, monkeypatch):
        import pyarrow as pa

        from solr_indexer_ray.functions import tokenize as tk

        def kernel(*_):
            raise AssertionError("byte kernel ran on a non-ASCII block")

        monkeypatch.setattr(tk, "_tokenize_block_bytes", kernel)
        rows = ["ümlaut ÜP fooBar", "plain", None, "Ærø 9x"]
        for name, analyze in (("code", tk.code_analyzer),
                              ("simple", tk.simple_analyzer)):
            tids, lens, terms = tk._tokenize_block_arrow(
                pa.array(rows), name)
            terms = terms.to_pylist()
            assert lens.tolist() == [len(analyze(r or "")) for r in rows]
            assert [terms[t] for t in tids] == [
                t for r in rows for t in analyze(r or "")]

    @pytest.mark.parametrize("name", ["code", "simple"])
    def test_kernel_sees_only_distinct_runs(self, monkeypatch, name):
        import pyarrow as pa

        from solr_indexer_ray.functions import tokenize as tk

        seen = []
        kernel = tk._tokenize_block_bytes

        def recording(texts, analyzer_name):
            seen.append(texts)
            return kernel(texts, analyzer_name)

        monkeypatch.setattr(tk, "_tokenize_block_bytes", recording)
        row = "  fooBar = foo_bar + 1; x9A(fooBar)"
        tk._tokenize_block_arrow(pa.array([row] * 1000), name)
        # a row's leading separators are a run of their own; '_' is a
        # word byte for code only
        runs = (["  ", "fooBar = ", "foo_bar + ", "1; ", "x9A(", "fooBar)"]
                if name == "code" else
                ["  ", "fooBar = ", "foo_", "bar + ", "1; ", "x9A(",
                 "fooBar)"])
        assert "".join(runs) == row
        [texts] = seen
        assert texts.to_pylist() == list(dict.fromkeys(runs))
