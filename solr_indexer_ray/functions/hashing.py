"""Content hashing, shingling, MinHash, SimHash — dedup primitives.

All deterministic, no native hash libs: token/shingle hashing is FNV-1a 64
(:mod:`solr_indexer_ray.functions.textstats`), MinHash permutations are the
standard universal-hash family ``(a·x + b) mod p`` over a Mersenne prime.
The reference has no near-dedup (SURVEY.md §2.8) — exact identity there is
Solr's upsert-by-id; these primitives extend that to content-level identity
for training-data pipelines.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np

from solr_indexer_ray.functions.textstats import fnv1a64

MERSENNE61 = (1 << 61) - 1


def term_shard(term: str, n_shards: int) -> int:
    """Deterministic, process-stable term shard (NOT Python ``hash``, which
    is salted per process) — the postings shuffle/layout key."""
    return zlib.crc32(term.encode("utf-8")) % n_shards


def _crc32_table() -> np.ndarray:
    """crc32 one-byte lookup table (zlib's reflected polynomial)."""
    c = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        c = np.where(c & 1, (c >> 1) ^ np.uint32(0xEDB88320), c >> 1)
    return c.astype(np.uint32)


_CRC32_TABLE = _crc32_table()

#: bytes per term the vectorized crc32 steps over; a longer term's tail
#: continues from its prefix crc in one ``zlib.crc32`` call
_CRC32_VECTOR_BYTES = 32


def term_shards_of_array(arr, n_shards: int) -> np.ndarray:
    """``term_shard`` over a pyarrow StringArray, bit-identical to
    ``zlib.crc32`` per element (tested).

    The crc32 runs table-driven in numpy straight off the Arrow utf-8
    buffer, one byte position at a time across all terms: the terms are
    ordered by length (longest first), so the terms still active at
    byte ``j`` are a prefix of that order.  Only terms longer than
    ``_CRC32_VECTOR_BYTES`` finish their tail in ``zlib.crc32``, seeded
    with the prefix crc."""
    import pyarrow as pa

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if pa.types.is_large_string(arr.type):
        arr = arr.cast(pa.string())
    bufs = arr.buffers()
    off = np.frombuffer(bufs[1], dtype=np.int32,
                        count=arr.offset + n + 1)[arr.offset:]
    data = (np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None
            else np.empty(0, np.uint8))
    starts = off[:-1].astype(np.int64)
    lens = np.diff(off).astype(np.int64)
    order = np.argsort(-lens, kind="stable")
    s_starts, s_lens = starts[order], lens[order]
    table = _CRC32_TABLE
    crc = np.full(n, 0xFFFFFFFF, dtype=np.uint32)
    # active[j] = number of terms longer than j bytes (lengths descending)
    steps = min(int(s_lens[0]), _CRC32_VECTOR_BYTES)
    active = np.searchsorted(-s_lens, -np.arange(steps), side="left")
    for j in range(steps):
        m = int(active[j])
        c = crc[:m]
        b = data[s_starts[:m] + j]
        crc[:m] = table[(c ^ b) & 0xFF] ^ (c >> np.uint32(8))
    crc ^= np.uint32(0xFFFFFFFF)
    out = np.empty(n, dtype=np.int64)
    out[order] = crc
    for i in np.flatnonzero(lens > _CRC32_VECTOR_BYTES):
        lo = int(starts[i]) + _CRC32_VECTOR_BYTES
        out[i] = zlib.crc32(data[lo:int(off[i + 1])], int(out[i]))
    return out % n_shards


def sha256_hex(text: str) -> str:
    """Per-row content integrity hash (reference analogue: checksum field,
    ``solrindexer/mmd.py:851-858``)."""
    return hashlib.sha256((text or "").encode("utf-8")).hexdigest()


#: Token-hash memo: real-corpus vocabularies are Zipfian, so the FNV-1a
#: per-byte Python loop runs once per distinct token per worker.  Bounded:
#: cleared wholesale past the cap.
_TOKEN_HASH_CACHE: dict = {}
_TOKEN_HASH_CAP = 500_000

#: Odd 64-bit mixing constants (splitmix64 increments) for positional
#: n-gram combination — equal token tuples hash equal, permutations and
#: boundary-shifted tuples differ (w.h.p.; collisions ~2^-64/pair).
_SHINGLE_C: dict = {}


def _shingle_consts(n: int) -> np.ndarray:
    c = _SHINGLE_C.get(n)
    if c is None:
        rng = np.random.default_rng(0x5eed + n)
        c = rng.integers(1, 1 << 63, size=n, dtype=np.uint64) | np.uint64(1)
        _SHINGLE_C[n] = c
    return c


def token_hashes(tokens) -> np.ndarray:
    """Per-token FNV-1a 64 as a uint64 array (memoized per distinct token)."""
    cache = _TOKEN_HASH_CACHE
    if len(cache) > _TOKEN_HASH_CAP:
        cache.clear()
    out = np.empty(len(tokens), dtype=np.uint64)
    for i, t in enumerate(tokens):
        h = cache.get(t)
        if h is None:
            h = fnv1a64(t)
            cache[t] = h
        out[i] = h
    return out


def shingle_hashes(tokens, n: int = 3) -> np.ndarray:
    """Distinct hashed n-gram shingles of a token sequence (uint64).

    Hashing is a positional polynomial over per-token FNV-1a hashes
    (vectorized over all windows; uint64 wraparound) — equal token
    n-grams collide exactly, distinct ones separate w.h.p.  Documents
    shorter than ``n`` tokens hash their full token tuple once, so short
    docs still participate in dedup.
    """
    if not tokens:
        return np.empty(0, dtype=np.uint64)
    th = token_hashes(tokens)
    if len(tokens) < n:
        c = _shingle_consts(len(tokens))
        return np.array([(th * c).sum(dtype=np.uint64)], dtype=np.uint64)
    c = _shingle_consts(n)
    m = len(tokens) - n + 1
    acc = th[:m] * c[0]
    for j in range(1, n):
        acc = acc + th[j:j + m] * c[j]
    return np.unique(acc)


#: MinHash works in the Mersenne-31 field: operands < 2^31 so every
#: ``a·x + b`` fits in uint64 and the whole signature computes as one
#: vectorized (num_perm × num_shingles) broadcast — no Python loop over
#: shingles, no big-int fallback.  31-bit hash space is ample for
#: similarity estimation (collision prob ~ n/2^31 per pair).
MERSENNE31 = (1 << 31) - 1


def minhash_params(num_perm: int, seed: int = 1) -> tuple:
    """Deterministic (a, b) coefficient vectors for the permutation family."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, MERSENNE31, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, MERSENNE31, size=num_perm, dtype=np.uint64)
    return a, b


def minhash_signature(shingles: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """MinHash signature: ``min over shingles of (a·x + b) mod 2^31-1``."""
    num_perm = a.size
    if shingles.size == 0:
        return np.full(num_perm, MERSENNE31, dtype=np.uint64)
    x = shingles.astype(np.uint64) % np.uint64(MERSENNE31)
    # (num_perm, num_shingles) broadcast, all in uint64 without overflow
    v = (a[:, None] * x[None, :] + b[:, None]) % np.uint64(MERSENNE31)
    return v.min(axis=1)


def minhash_signatures_batch(sh_list, a: np.ndarray, b: np.ndarray,
                             chunk_shingles: int = 32_768) -> np.ndarray:
    """MinHash signatures for a BATCH of shingle arrays at once:
    one ``(num_perm × Σ|shingles|)`` broadcast + ``minimum.reduceat`` per
    chunk instead of a Python loop over documents.  Returns
    ``(n_docs, num_perm)`` uint64; zero-shingle docs get the sentinel
    signature (all ``MERSENNE31``)."""
    num_perm = a.size
    n_docs = len(sh_list)
    out = np.full((n_docs, num_perm), MERSENNE31, dtype=np.uint64)
    lens = np.fromiter((s.size for s in sh_list), dtype=np.int64,
                       count=n_docs)
    nz = np.flatnonzero(lens)
    if nz.size == 0:
        return out
    m31 = np.uint64(MERSENNE31)
    s31 = np.uint64(31)
    # chunk documents so the (shingles × perm) temp stays memory-bounded
    start = 0
    while start < nz.size:
        end = start
        tot = 0
        while end < nz.size and (tot == 0 or
                                 tot + lens[nz[end]] <= chunk_shingles):
            tot += lens[nz[end]]
            end += 1
        idx = nz[start:end]
        x = np.concatenate([sh_list[i] for i in idx])
        x = (x & m31) + (x >> s31)   # exact x % M31 (Mersenne fold)
        x = (x & m31) + (x >> s31)
        x -= (x >= m31).astype(np.uint64) * m31
        # v = (a·x + b) mod M31 via the Mersenne fold (no uint64 division:
        # v ≡ (v & M) + (v >> 31) since 2^31 ≡ 1 mod M; two folds + one
        # conditional subtract reduce v < 2^63 exactly).  All in-place on
        # one (shingles × perm) buffer — the kernel is memory-bound, so
        # temporaries are the cost.
        v = np.multiply(x[:, None], a[None, :])
        v += b[None, :]
        w = np.right_shift(v, s31)
        v &= m31
        v += w
        np.right_shift(v, s31, out=w)
        v &= m31
        v += w
        np.subtract(v, m31, out=v, where=v >= m31)
        offsets = np.zeros(idx.size, dtype=np.int64)
        np.cumsum(lens[idx][:-1], out=offsets[1:])
        out[idx] = np.minimum.reduceat(v, offsets, axis=0)
        start = end
    return out


#: Positional band-mix constants (odd -> invertible under uint64 wrap).
_BAND_C: dict = {}


def band_keys_batch(sigs: np.ndarray, bands: int) -> np.ndarray:
    """Vectorized LSH banding for a batch: ``(n_docs, num_perm)``
    signatures -> ``(n_docs, bands)`` int64 bucket keys.  Key = positional
    polynomial over the band's signature rows + a per-band offset (uint64
    wraparound; collisions ~2^-64) — the integer analogue of the old
    per-band blake2b digest, computed without any per-doc Python."""
    n_docs, num_perm = sigs.shape
    rows = num_perm // bands
    key = (bands, rows)
    c = _BAND_C.get(key)
    if c is None:
        rng = np.random.default_rng(0xba4d)
        c = (rng.integers(1, 1 << 63, size=(bands, rows), dtype=np.uint64)
             | np.uint64(1),
             rng.integers(1, 1 << 63, size=bands, dtype=np.uint64))
        _BAND_C[key] = c
    cw, cb = c
    banded = sigs[:, :rows * bands].reshape(n_docs, bands, rows)
    mixed = (banded * cw[None, :, :]).sum(axis=2, dtype=np.uint64)
    mixed = mixed * np.uint64(0x9e3779b97f4a7c15) + cb[None, :]
    return mixed.view(np.int64)


def band_keys(sig: np.ndarray, bands: int) -> list:
    """LSH banding: hash each contiguous band of the signature to a bucket
    key ``(band_index, band_hash)`` encoded as a string."""
    rows = sig.size // bands
    out = []
    for bi in range(bands):
        chunk = sig[bi * rows:(bi + 1) * rows]
        h = hashlib.blake2b(chunk.tobytes(), digest_size=8).hexdigest()
        out.append(f"{bi}:{h}")
    return out


def simhash64(token_counts: dict) -> int:
    """64-bit SimHash over weighted token hashes."""
    votes = np.zeros(64, dtype=np.int64)
    shifts = np.arange(64, dtype=np.uint64)
    for tok, w in token_counts.items():
        h = np.uint64(fnv1a64(tok))
        bits = (h >> shifts) & np.uint64(1)
        votes += np.where(bits.astype(bool), w, -w)
    out = 0
    for i in range(64):
        if votes[i] > 0:
            out |= 1 << i
    return out


def hamming64(x: int, y: int) -> int:
    return bin(x ^ y).count("1")


def simhash_band_keys(sig: int, bands: int = 4) -> list:
    """Split the 64-bit simhash into ``bands`` chunks; near-dups (hamming
    distance < bands) share at least one chunk (pigeonhole)."""
    width = 64 // bands
    mask = (1 << width) - 1
    return [f"{bi}:{(sig >> (bi * width)) & mask:x}" for bi in range(bands)]


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)
