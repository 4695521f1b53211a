"""Unit tests: normalization, spatial, textstats, hashing kernels."""

import json

import numpy as np
import pytest

from solr_indexer_ray.functions import hashing, normalize, spatial, textstats


class TestNormalize:
    def test_to_solr_id(self):
        assert normalize.to_solr_id("no.met:ADC/x.y") == "no-met-ADC-x-y"

    def test_doc_key(self):
        assert (
            normalize.doc_key("org/proj", "src/a.py", "abc")
            == "org-proj-src-a-py@abc"
        )

    def test_parse_date_passthrough_and_variants(self):
        assert normalize.parse_date("2021-01-02T03:04:05Z") == "2021-01-02T03:04:05Z"
        assert normalize.parse_date("2021-01-02 03:04:05") == "2021-01-02T03:04:05Z"
        assert normalize.parse_date("2021-01-02T03:04:05+02:00") == (
            "2021-01-02T01:04:05Z"
        )
        assert normalize.parse_date("not a date") is None
        assert normalize.parse_date(None) is None
        assert normalize.parse_date("") is None

    def test_check_date_format(self):
        assert normalize.check_date_format("2021-01-02T03:04:05Z")
        assert not normalize.check_date_format("2021-01-02")

    def test_date_range_literal_roundtrip(self):
        lit = normalize.date_range_literal("2020-01-01T00:00:00Z", None)
        assert lit == "[2020-01-01T00:00:00Z TO *]"
        assert normalize.parse_date_range_literal(lit) == (
            "2020-01-01T00:00:00Z", None,
        )
        assert normalize.parse_date_range_literal("[a TO b]") == ("a", "b")
        assert normalize.parse_date_range_literal("junk") is None

    def test_append_multivalued_order_preserving_dedup(self):
        assert normalize.append_multivalued(["a", "b"], ["b", "c", None, "a", "d"]) == [
            "a", "b", "c", "d",
        ]

    def test_first_string(self):
        assert normalize.first_string(["x", "y"]) == "x"
        assert normalize.first_string([None, "y"]) == "y"
        assert normalize.first_string("z") == "z"
        assert normalize.first_string([]) is None
        assert normalize.first_string(None) is None

    def test_canonical_feature_type(self):
        assert normalize.canonical_feature_type("TIMESERIES") == "timeSeries"
        assert normalize.canonical_feature_type(" point ") == "point"
        assert normalize.canonical_feature_type("nope") is None

    def test_clean_related_ref(self):
        assert (
            normalize.clean_related_ref("https://data.npolar.no/dataset/abc.xml")
            == "abc"
        )
        assert normalize.clean_related_ref("https://doi.org/10.1/x") is None
        assert normalize.clean_related_ref("plain-id") == "plain-id"

    def test_urls(self):
        assert normalize.fix_nersc_url("http://thredds.nersc.no/x") == (
            "https://thredds.nersc.no/x"
        )
        assert normalize.check_url("https://example.com/a")
        assert not normalize.check_url("notaurl")

    def test_compact_json_strips_nulls(self):
        s = normalize.compact_json({"a": 1, "b": None, "c": [{"d": None, "e": 2}]})
        assert json.loads(s) == {"a": 1, "c": [{"e": 2}]}
        assert " " not in s

    def test_extract_doi(self):
        assert (
            normalize.extract_doi("see https://doi.org/10.1234/ab.cd-5 ok")
            == "10.1234/ab.cd-5"
        )
        assert normalize.extract_doi("nothing") is None

    def test_set_multilang(self):
        out = normalize.set_multilang([("en", "T"), ("no", "Tn")], "title")
        assert out == {
            "title": "T", "title_en": "T", "title_hl": "T", "title_no": "Tn",
        }

    def test_exit_code_contract(self):
        from solr_indexer_ray.stages.validate import determine_exit_code

        assert determine_exit_code(10, 0) == 0
        assert determine_exit_code(5, 5) == 3
        assert determine_exit_code(0, 5) == 1


class TestSpatial:
    def test_envelope_roundtrip(self):
        env = spatial.generate_solr_envelope(-10.0, 20.0, 60.0, 40.0)
        assert env == "ENVELOPE(-10.0,20.0,60.0,40.0)"
        assert spatial.parse_envelope_to_bbox(env) == (-10.0, 40.0, 20.0, 60.0)

    def test_envelope_bounds_validation(self):
        with pytest.raises(spatial.SpatialError):
            spatial.generate_solr_envelope(-200.0, 20.0, 60.0, 40.0)
        with pytest.raises(spatial.SpatialError):
            spatial.generate_solr_envelope(-10.0, 20.0, 40.0, 60.0)  # n < s

    def test_dateline_crossing_allowed(self):
        env = spatial.generate_solr_envelope(170.0, -170.0, 10.0, -10.0)
        assert env == "ENVELOPE(170.0,-170.0,10.0,-10.0)"

    def test_polygon_from_bbox_ccw(self):
        wkt, centroid = spatial.create_polygon_wkt_from_bbox(0.0, 10.0, 5.0, 0.0)
        assert wkt.startswith("POLYGON ((0.0 0.0, 10.0 0.0")
        assert centroid == "POINT (5.0 2.5)"

    def test_polygon_degenerate_point(self):
        wkt, centroid = spatial.create_polygon_wkt_from_bbox(1.0, 1.0, 2.0, 2.0)
        assert wkt == "POINT (1.0 2.0)" == centroid

    def test_wkt_to_geojson(self):
        gj = json.loads(spatial.wkt_to_geojson("POINT (1.5 2.5)"))
        assert gj == {"type": "Point", "coordinates": [1.5, 2.5]}
        gj = json.loads(
            spatial.wkt_to_geojson("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))")
        )
        assert gj["type"] == "Polygon"
        assert gj["coordinates"][0][0] == [0.0, 0.0]

    def test_centroid(self):
        assert spatial.get_center_from(
            "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))"
        ) == "POINT (1.0 1.0)"

    def test_segmentize(self):
        out = spatial.segmentize_wkt("LINESTRING (0 0, 30 0)", max_segment=10.0)
        assert out == "LINESTRING (0.0 0.0, 10.0 0.0, 20.0 0.0, 30.0 0.0)"

    def test_darextract(self):
        from solr_indexer_ray.functions.normalize import darextract

        got = darextract([
            'http://data.example.org/file.nc',
            b'ftp:ftp.example.org/pub/x',
            '"opendap:dap.example.org/ds",description,Some text',
        ])
        assert got == {
            "http": "//data.example.org/file.nc",
            "ftp": "ftp.example.org/pub/x",
            "opendap": "dap.example.org/ds",
        }
        assert darextract([]) == {} == darextract(None)
        # reference quirk kept verbatim: "description" without a comma
        # blows the two-target unpack (mmd.py:1497)
        with pytest.raises(ValueError):
            darextract(["odata:host/description-only"])

    def test_gml_polygon_poslist_latlon(self):
        # GML3 urn EPSG:4326 lists latitude first; WKT must come out lon/lat
        gml = (
            '<gml:Polygon xmlns:gml="http://www.opengis.net/gml" '
            'srsName="urn:ogc:def:crs:EPSG::4326">'
            "<gml:exterior><gml:LinearRing>"
            "<gml:posList>60 -10 60 20 40 20 40 -10 60 -10</gml:posList>"
            "</gml:LinearRing></gml:exterior></gml:Polygon>"
        )
        assert spatial.parse_gml_to_wkt(gml) == (
            "POLYGON ((-10.0 60.0, 20.0 60.0, 20.0 40.0, "
            "-10.0 40.0, -10.0 60.0))"
        )

    def test_gml_polygon_crs84_no_swap_and_ring_close(self):
        gml = (
            '<Polygon srsName="http://www.opengis.net/def/crs/OGC/1.3/CRS84">'
            "<exterior><LinearRing>"
            "<posList>0 0 4 0 4 4 0 4</posList>"  # unclosed on purpose
            "</LinearRing></exterior></Polygon>"
        )
        assert spatial.parse_gml_to_wkt(gml) == (
            "POLYGON ((0.0 0.0, 4.0 0.0, 4.0 4.0, 0.0 4.0, 0.0 0.0))"
        )

    def test_gml_polygon_interior_ring(self):
        gml = (
            "<gml:Polygon xmlns:gml=\"http://www.opengis.net/gml/3.2\">"
            "<gml:exterior><gml:LinearRing>"
            "<gml:posList>0 0 10 0 10 10 0 10 0 0</gml:posList>"
            "</gml:LinearRing></gml:exterior>"
            "<gml:interior><gml:LinearRing>"
            "<gml:posList>2 2 4 2 4 4 2 4 2 2</gml:posList>"
            "</gml:LinearRing></gml:interior></gml:Polygon>"
        )
        wkt = spatial.parse_gml_to_wkt(gml)
        assert wkt == (
            "POLYGON ((0.0 0.0, 10.0 0.0, 10.0 10.0, 0.0 10.0, 0.0 0.0), "
            "(2.0 2.0, 4.0 2.0, 4.0 4.0, 2.0 4.0, 2.0 2.0))"
        )

    def test_gml_point_and_linestring(self):
        pt = '<gml:Point xmlns:gml="x"><gml:pos>1.5 2.5</gml:pos></gml:Point>'
        assert spatial.parse_gml_to_wkt(pt) == "POINT (1.5 2.5)"
        ln = ("<LineString><posList>0 0 5 5 10 0</posList></LineString>")
        assert spatial.parse_gml_to_wkt(ln) == (
            "LINESTRING (0.0 0.0, 5.0 5.0, 10.0 0.0)"
        )

    def test_gml2_coordinates_and_outer_boundary(self):
        gml = (
            "<Polygon><outerBoundaryIs><LinearRing>"
            "<coordinates>0,0 3,0 3,3 0,3 0,0</coordinates>"
            "</LinearRing></outerBoundaryIs></Polygon>"
        )
        assert spatial.parse_gml_to_wkt(gml) == (
            "POLYGON ((0.0 0.0, 3.0 0.0, 3.0 3.0, 0.0 3.0, 0.0 0.0))"
        )

    def test_gml_srs_dimension_3_drops_z(self):
        gml = (
            "<LineString><posList srsDimension=\"3\">"
            "0 0 100 5 5 200</posList></LineString>"
        )
        assert spatial.parse_gml_to_wkt(gml) == "LINESTRING (0.0 0.0, 5.0 5.0)"

    def test_gml_roundtrips_into_geojson(self):
        gml = (
            "<Polygon><exterior><LinearRing>"
            "<posList>0 0 1 0 1 1 0 1 0 0</posList>"
            "</LinearRing></exterior></Polygon>"
        )
        gj = json.loads(spatial.wkt_to_geojson(spatial.parse_gml_to_wkt(gml)))
        assert gj["type"] == "Polygon"
        assert gj["coordinates"][0][0] == [0.0, 0.0]

    def test_wkt_to_geojson_interior_ring(self):
        gj = json.loads(spatial.wkt_to_geojson(
            "POLYGON ((0 0, 9 0, 9 9, 0 9, 0 0), (2 2, 3 2, 3 3, 2 3, 2 2))"
        ))
        assert len(gj["coordinates"]) == 2
        assert gj["coordinates"][1][0] == [2.0, 2.0]

    def test_gml_errors(self):
        with pytest.raises(spatial.SpatialError):
            spatial.parse_gml_to_wkt("<not xml")
        with pytest.raises(spatial.SpatialError):
            spatial.parse_gml_to_wkt("<Circle><pos>0 0</pos></Circle>")
        with pytest.raises(spatial.SpatialError):
            spatial.parse_gml_to_wkt("<Polygon><exterior><LinearRing>"
                                     "<posList>0 0 1 1</posList>"
                                     "</LinearRing></exterior></Polygon>")
        with pytest.raises(spatial.SpatialError):
            spatial.parse_gml_to_wkt(
                "<LineString><posList srsDimension='3'>0 0 1 1</posList>"
                "</LineString>")

    def test_validate_fix_geometry(self):
        fixed, was_fixed = spatial.validate_fix_geometry(
            "POLYGON ((0 0, 1 0, 1 0, 1 1, 0 1))"
        )
        assert was_fixed
        assert fixed == "POLYGON ((0.0 0.0, 1.0 0.0, 1.0 1.0, 0.0 1.0, 0.0 0.0))"
        ok, was_fixed = spatial.validate_fix_geometry(
            "POLYGON ((0 0, 1 0, 1 1, 0 0))"
        )
        assert not was_fixed


class TestTextStats:
    def test_token_count_and_ratios(self):
        toks = ["the", "quick", "fox", "the"]
        assert textstats.stopword_ratio(toks) == 0.5
        assert textstats.punct_ratio("ab, cd!") == pytest.approx(2 / 7)
        assert textstats.punct_ratio("") == 0.0

    def test_quality_gates(self):
        assert textstats.quality_score(100, 0.05, 0.3) == 1.0
        assert textstats.quality_score(5, 0.05, 0.3) == 0.5
        assert textstats.quality_score(100, 0.5, 0.0) == 0.5

    def test_lang_id(self):
        assert textstats.lang_id(["the", "and", "of", "to"]) == "en"
        assert textstats.lang_id(["der", "die", "und", "ist"]) == "de"
        assert textstats.lang_id(["xyzzy"]) == "und"
        # alphabetical tie-break: 'la'+'de' hit both es and fr -> 'es'... but
        # ensure ties resolve deterministically
        assert textstats.lang_id([]) == "und"

    def test_fingerprint_order_sensitive(self):
        a = textstats.fingerprint(["a", "b", "c"])
        b = textstats.fingerprint(["c", "b", "a"])
        assert a != b
        assert a == textstats.fingerprint(["a", "b", "c"])
        assert 0 <= a < (1 << 61) - 1

    def test_fnv_vector(self):
        # FNV-1a 64 known value: fnv1a64("") == offset basis
        assert textstats.fnv1a64("") == 0xCBF29CE484222325


class TestHashing:
    def test_shingles(self):
        sh = hashing.shingle_hashes(["a", "b", "c", "d"], n=3)
        assert sh.size == 2  # 'a b c', 'b c d'
        short = hashing.shingle_hashes(["a"], n=3)
        assert short.size == 1
        assert hashing.shingle_hashes([], n=3).size == 0

    def test_minhash_estimates_jaccard(self):
        a, b = hashing.minhash_params(256)
        s1 = set(f"tok{i}" for i in range(100))
        s2 = set(f"tok{i}" for i in range(50, 150))
        h1 = np.fromiter((hashing.fnv1a64(t) for t in s1), np.uint64)
        h2 = np.fromiter((hashing.fnv1a64(t) for t in s2), np.uint64)
        sig1 = hashing.minhash_signature(h1, a, b)
        sig2 = hashing.minhash_signature(h2, a, b)
        est = (sig1 == sig2).mean()
        true_j = 50 / 150
        assert abs(est - true_j) < 0.1

    def test_band_keys_shape(self):
        a, b = hashing.minhash_params(128)
        sig = hashing.minhash_signature(np.array([1, 2, 3], np.uint64), a, b)
        keys = hashing.band_keys(sig, bands=32)
        assert len(keys) == 32
        assert len(set(keys)) == 32  # band index baked into the key

    def test_simhash_similarity(self):
        c1 = {f"t{i}": 1 for i in range(100)}
        c2 = dict(c1)
        c2["extra"] = 1
        d_close = hashing.hamming64(hashing.simhash64(c1), hashing.simhash64(c2))
        c3 = {f"u{i}": 1 for i in range(100)}
        d_far = hashing.hamming64(hashing.simhash64(c1), hashing.simhash64(c3))
        assert d_close < d_far

    def test_jaccard(self):
        assert hashing.jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)
        assert hashing.jaccard(set(), set()) == 1.0


class TestTermShards:
    """``term_shards_of_array`` (the vectorized crc32) must equal
    ``zlib.crc32(t.encode()) % n`` and ``term_shard`` per term, or the
    postings layout of existing indexes moves."""

    TERMS = [
        "", "a", "read", "ü", "日本語", "naïve_café", "x" * 31, "y" * 32,
        "z" * 33, "w" * 200, "é" * 40, "def\x1fpath", "a\x1eb", "", "read",
    ]

    def _check(self, arr, terms):
        import zlib

        for n in (1, 7, 16, 64):
            got = hashing.term_shards_of_array(arr, n)
            assert got.dtype == np.int64
            assert got.tolist() == [
                zlib.crc32(t.encode("utf-8")) % n for t in terms]
            assert got.tolist() == [hashing.term_shard(t, n) for t in terms]

    def test_edge_terms(self):
        import pyarrow as pa

        self._check(pa.array(self.TERMS, pa.string()), self.TERMS)

    def test_sliced_array_with_offset(self):
        import pyarrow as pa

        arr = pa.array(self.TERMS, pa.string()).slice(3, 9)
        assert arr.offset == 3
        self._check(arr, self.TERMS[3:12])

    def test_chunked_and_large_string(self):
        import pyarrow as pa

        chunked = pa.chunked_array(
            [self.TERMS[:5], [], self.TERMS[5:]], pa.string())
        self._check(chunked, self.TERMS)
        self._check(pa.array(self.TERMS, pa.large_string()), self.TERMS)

    def test_empty_array(self):
        import pyarrow as pa

        got = hashing.term_shards_of_array(pa.array([], pa.string()), 8)
        assert got.dtype == np.int64 and got.size == 0

    def test_random_terms(self):
        import random

        import pyarrow as pa

        rng = random.Random(7)
        alphabet = "abcxyz_09éß語"
        terms = ["".join(rng.choice(alphabet)
                         for _ in range(rng.randrange(0, 80)))
                 for _ in range(2000)]
        self._check(pa.array(terms, pa.string()), terms)
