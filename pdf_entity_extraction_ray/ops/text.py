"""Text-analysis operators over a ``documents(doc_id, text, lang, source,
n_chars)`` table — the large-scale training-data-pipeline companions to the
KG engine (language-ID, quality scoring, token counting, fingerprinting).

All stages are stateless ``map_batches`` over zero-copy Arrow; the token
regex is ASCII-explicit (``[A-Za-z0-9_]+``) so Python ``re`` and DuckDB's
RE2 oracle agree byte-for-byte.
"""

from __future__ import annotations

import hashlib
import re

import pyarrow as pa
import pyarrow.compute as pc

TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")
PUNCT_RE = re.compile(r"[!-/:-@\[-`{-~]")
DIGIT_RE = re.compile(r"[0-9]")

# tiny per-language stopword profiles for the n-gram/stopword heuristic
_LANG_PROFILES = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "that", "for", "with"},
    "es": {"el", "la", "de", "y", "que", "en", "un", "una", "los", "para"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "mit", "für", "von"},
    "fr": {"le", "la", "les", "et", "de", "un", "une", "est", "pour", "dans"},
}


def token_stats_batch(batch: pa.Table) -> pa.Table:
    """doc stats as INTEGER columns (exactly reproducible in SQL):
    n_tokens, n_punct, n_digits, max_token_len."""
    texts = batch.column("text").to_pylist()
    n_tokens, n_punct, n_digits, max_tok = [], [], [], []
    for t in texts:
        toks = TOKEN_RE.findall(t)
        n_tokens.append(len(toks))
        n_punct.append(len(PUNCT_RE.findall(t)))
        n_digits.append(len(DIGIT_RE.findall(t)))
        max_tok.append(max((len(w) for w in toks), default=0))
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "n_punct": pa.array(n_punct, pa.int64()),
            "n_digits": pa.array(n_digits, pa.int64()),
            "max_token_len": pa.array(max_tok, pa.int64()),
        }
    )


def quality_batch(batch: pa.Table) -> pa.Table:
    """Quality gates as booleans + the classic filter-score ingredients.

    Heuristics follow the public C4/Gopher-style rules (length bounds,
    symbol ratio, mean word length) computed from integer counts so the
    DuckDB oracle matches exactly.
    """
    stats = token_stats_batch(batch)
    n_chars = pc.utf8_length(batch.column("text"))
    n_tokens = stats.column("n_tokens")
    ok_len = pc.and_(pc.greater_equal(n_tokens, 5), pc.less_equal(n_tokens, 100000))
    # punct-heavy docs: n_punct * 10 > n_chars  (integer arithmetic only)
    punct_heavy = pc.greater(
        pc.multiply(stats.column("n_punct"), pa.scalar(10, pa.int64())),
        n_chars.cast(pa.int64()),
    )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": n_chars.cast(pa.int64()),
            "n_tokens": n_tokens,
            "ok_length": ok_len,
            "punct_heavy": punct_heavy,
            "keep": pc.and_(ok_len, pc.invert(punct_heavy)),
        }
    )


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Deterministic content fingerprint (md5 hex — DuckDB ``md5(text)``
    reproduces it, giving the op an exact SQL oracle)."""
    texts = batch.column("text").to_pylist()
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "fingerprint": pa.array(
                [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts], pa.string()
            ),
        }
    )


def langid_batch(batch: pa.Table) -> pa.Table:
    """Charset + stopword heuristic language-ID (no oracle — the synthetic
    ``lang`` column is uncorrelated with text; the op exists for the real
    pipeline where text IS language-bearing)."""
    texts = batch.column("text").to_pylist()
    preds = []
    for t in texts:
        cjk = sum(1 for c in t[:400] if "一" <= c <= "鿿")
        if cjk * 5 > min(len(t), 400):
            preds.append("zh")
            continue
        words = set(w.lower() for w in TOKEN_RE.findall(t[:2000]))
        best, best_n = "en", -1
        for lang in sorted(_LANG_PROFILES):
            n = len(words & _LANG_PROFILES[lang])
            if n > best_n:
                best, best_n = lang, n
        preds.append(best)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "lang_pred": pa.array(preds, pa.string()),
        }
    )


def wordset_key_batch(batch: pa.Table) -> pa.Table:
    """Bag-of-words dedup key: md5 of the space-joined sorted distinct
    token set (ASCII tokens sort identically in Python and SQL, so the
    DuckDB oracle reproduces the key byte-for-byte)."""
    keys = []
    for t in batch.column("text").to_pylist():
        words = sorted(set(TOKEN_RE.findall(t.lower())))
        keys.append(hashlib.md5(" ".join(words).encode("utf-8")).hexdigest())
    return batch.append_column("dedup_key", pa.array(keys, pa.string()))


_ROLL_BASE = 1000003
_ROLL_MOD = (1 << 61) - 1


def rolling_fingerprint(text: str, window: int = 8) -> int:
    """Rabin-Karp rolling-hash document fingerprint: the MINIMUM windowed
    polynomial hash over token windows (a winnowing-style content
    signature, stable under prefix/suffix edits outside the minimizing
    window).  Deterministic, content-derived."""
    tokens = TOKEN_RE.findall(text.lower())
    if not tokens:
        return 0
    # token value = little-endian first 8 bytes of md5 — exactly DuckDB's
    # ``md5_number_upper``, so the op has a full SQL oracle
    vals = [
        int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "little") % _ROLL_MOD
        for t in tokens
    ]
    if len(vals) <= window:
        h = 0
        for v in vals:
            h = (h * _ROLL_BASE + v) % _ROLL_MOD
        return h
    power = pow(_ROLL_BASE, window - 1, _ROLL_MOD)
    h = 0
    for v in vals[:window]:
        h = (h * _ROLL_BASE + v) % _ROLL_MOD
    best = h
    for i in range(window, len(vals)):
        h = ((h - vals[i - window] * power) * _ROLL_BASE + vals[i]) % _ROLL_MOD
        best = min(best, h)
    return best


def rolling_fingerprint_batch(batch: pa.Table, window: int = 8) -> pa.Table:
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "roll_fp": pa.array(
                [rolling_fingerprint(t, window) for t in batch.column("text").to_pylist()],
                pa.uint64(),
            ),
        }
    )


def repetition_batch(batch: pa.Table, k: int = 3) -> pa.Table:
    """Gopher-style WITHIN-document repetition score: the fraction of a
    document's word ``k``-grams that are repeats of an earlier k-gram in
    the same document (``duplicate n-gram fraction``, one of the public
    Gopher quality-filter rules).  Emitted as integer columns — total
    k-grams, distinct k-grams, and ``dup_ppm = (total-distinct)*1e6 //
    total`` — so the DuckDB oracle is exact integer arithmetic, never a
    float-rounding coin flip.

    A document shorter than ``k`` words contributes its whole token join
    as one gram (same convention as the shingle family in ops/dedup), so
    every non-empty document has total >= 1 and dup_ppm is well-defined.
    """
    totals, distincts, ppm = [], [], []
    for t in batch.column("text").to_pylist():
        words = TOKEN_RE.findall(t.lower())
        if len(words) >= k:
            grams = [" ".join(words[i : i + k]) for i in range(len(words) - k + 1)]
        elif words:
            grams = [" ".join(words)]
        else:
            grams = []
        tot, dis = len(grams), len(set(grams))
        totals.append(tot)
        distincts.append(dis)
        ppm.append(((tot - dis) * 1_000_000) // tot if tot else 0)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "ngrams_total": pa.array(totals, pa.int64()),
            "ngrams_distinct": pa.array(distincts, pa.int64()),
            "dup_ppm": pa.array(ppm, pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# PII redaction — emails and IPv4 literals masked with typed placeholders.
# Patterns are RE2-compatible (no backrefs/lookaround) so the DuckDB oracle
# runs the IDENTICAL expressions; Python `re` and RE2 agree on this subset.
# Applied in a fixed order (emails first — an email's host part can contain
# digit runs an IP pattern would otherwise bite into).

PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IPV4_RE = r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b"
_PII_EMAIL = re.compile(PII_EMAIL_RE)
_PII_IPV4 = re.compile(PII_IPV4_RE)


def redact_pii_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, redacted, n_emails, n_ips) per document: text with emails
    -> ``<EMAIL>`` and IPv4 literals -> ``<IP>``, plus match counts.
    Stateless map_batches; a 100-TB corpus streams through with no
    shuffle.  Intentionally recall-oriented (an over-broad IPv4 match like
    a dotted version string redacts harmlessly; a missed email does not)."""
    reds, n_em, n_ip = [], [], []
    for t in batch.column("text").to_pylist():
        t1, e = _PII_EMAIL.subn("<EMAIL>", t)
        t2, i = _PII_IPV4.subn("<IP>", t1)
        reds.append(t2)
        n_em.append(e)
        n_ip.append(i)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "redacted": pa.array(reds, pa.string()),
            "n_emails": pa.array(n_em, pa.int64()),
            "n_ips": pa.array(n_ip, pa.int64()),
        }
    )


def winnow_batch(batch: pa.Table, k: int = 3, w: int = 4) -> pa.Table:
    """Winnowing fingerprints (Schleimer/Wilkerson/Aiken, the MOSS
    algorithm): slide a ``w``-gram window over the document's word
    ``k``-gram hashes and keep each window's MINIMUM hash, rightmost
    occurrence on ties — the positional fingerprint set that guarantees
    any shared substring of >= w+k-1 words between two documents shares a
    fingerprint (the coverage property min-mod-p sampling lacks).

    One exploded row per distinct (pos, fp) selection: ``(doc_id, pos,
    fp)`` with 1-based gram positions (the SQL ``generate_subscripts``
    convention).  Documents with fewer than ``w`` k-grams emit nothing —
    the full-window contract, mirrored by the oracle.  Hashing is
    ``md5_number_upper % (2^61-1)`` (the rolling-fingerprint convention),
    window minima via a numpy sliding view — no per-window Python."""
    import numpy as np

    out_doc, out_pos, out_fp = [], [], []
    for doc_id, t in zip(batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()):
        words = TOKEN_RE.findall(t.lower())
        n = len(words) - k + 1
        if n < w:
            continue
        h = np.array(
            [
                int.from_bytes(
                    hashlib.md5(" ".join(words[i : i + k]).encode()).digest()[:8],
                    "little",
                )
                % _ROLL_MOD
                for i in range(n)
            ],
            dtype=np.uint64,
        )
        win = np.lib.stride_tricks.sliding_window_view(h, w)
        m = win.min(axis=1)
        # rightmost min: first min of the REVERSED window
        right = (w - 1) - np.argmin(win[:, ::-1], axis=1)
        pos = np.arange(n - w + 1) + right + 1  # 1-based gram position
        sel = np.unique(np.stack([pos.astype(np.uint64), m]), axis=1)
        out_doc.extend([doc_id] * sel.shape[1])
        out_pos.extend(sel[0].astype(np.int64).tolist())
        out_fp.extend(sel[1].tolist())
    return pa.table(
        {
            "doc_id": pa.array(out_doc, pa.int64()),
            "pos": pa.array(out_pos, pa.int64()),
            "fp": pa.array(out_fp, pa.uint64()),
        }
    )


def cdc_chunks_batch(batch: pa.Table, window: int = 8, mask: int = 63) -> pa.Table:
    """Content-defined chunking (the rsync/LBFS/FastCDC primitive): cut
    each document into variable-size chunks at positions where the
    ``window``-token rolling polynomial hash satisfies ``h % (mask+1) ==
    0``, then fingerprint each chunk — the storage-dedup view where an
    insertion early in a page shifts byte offsets but NOT later chunk
    boundaries (they re-synchronize on content).

    ``(doc_id, chunk_id, n_tokens, chunk_fp)`` per chunk: 1-based dense
    chunk ids in token order, ``chunk_fp = md5_number_upper`` of the
    space-joined chunk tokens.  The boundary token CLOSES its chunk;
    positions before the first full window never cut.  Hash arithmetic
    is the rolling-fingerprint convention (same base/modulus), so the
    DuckDB oracle replays it with list comprehensions, exactly."""
    out_doc, out_cid, out_n, out_fp = [], [], [], []
    for doc_id, t in zip(batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()):
        words = TOKEN_RE.findall(t.lower())
        if not words:
            continue
        vals = [
            int.from_bytes(hashlib.md5(w.encode()).digest()[:8], "little") % _ROLL_MOD
            for w in words
        ]
        # rolling window hash; boundary AFTER position i (0-based i >= window-1)
        cuts = []
        if len(vals) >= window:
            h = 0
            for v in vals[:window]:
                h = (h * _ROLL_BASE + v) % _ROLL_MOD
            power = pow(_ROLL_BASE, window - 1, _ROLL_MOD)
            if h % (mask + 1) == 0:
                cuts.append(window - 1)
            for i in range(window, len(vals)):
                h = ((h - vals[i - window] * power) * _ROLL_BASE + vals[i]) % _ROLL_MOD
                if h % (mask + 1) == 0:
                    cuts.append(i)
        starts = [0] + [c + 1 for c in cuts if c + 1 < len(words)]
        ends = [c + 1 for c in cuts if c + 1 < len(words)] + [len(words)]
        for cid, (a, b) in enumerate(zip(starts, ends), start=1):
            chunk = " ".join(words[a:b])
            out_doc.append(doc_id)
            out_cid.append(cid)
            out_n.append(b - a)
            out_fp.append(
                int.from_bytes(hashlib.md5(chunk.encode()).digest()[:8], "little")
            )
    return pa.table(
        {
            "doc_id": pa.array(out_doc, pa.int64()),
            "chunk_id": pa.array(out_cid, pa.int64()),
            "n_tokens": pa.array(out_n, pa.int64()),
            "chunk_fp": pa.array(out_fp, pa.uint64()),
        }
    )


def c4_line_filter_batch(batch: pa.Table) -> pa.Table:
    """C4-style line-level cleaning (Raffel et al. 2020 §2.2, adapted to
    this corpus's ``'. '`` sentence convention — the same split unit as
    ``ops/dedup.line_dedup``): a sentence survives iff it has >= 5 word
    tokens AND contains no ``'{'`` (the code/boilerplate cut); a document
    is kept iff >= 3 sentences survive.  Emits per document ``(doc_id,
    n_kept, n_dropped, keep, clean_text)`` with survivors rejoined in
    original order (``''`` when nothing survives — the DuckDB
    ``string_agg`` NULL-skip convention, mirrored by the oracle).

    Stateless per-document map: no shuffle, no state, embarrassingly
    parallel at any corpus size.  Word counting is the repo-standard
    ``TOKEN_RE`` over the lowered sentence, so the oracle's
    ``regexp_extract_all(lower(sent), '[a-z0-9_]+')`` count matches
    exactly."""
    out_doc, out_kept, out_drop, out_keep, out_text = [], [], [], [], []
    for doc_id, t in zip(
        batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
    ):
        sents = t.split(". ")  # '' -> [''] in BOTH Python and DuckDB
        kept = [
            s for s in sents if "{" not in s and len(TOKEN_RE.findall(s.lower())) >= 5
        ]
        out_doc.append(doc_id)
        out_kept.append(len(kept))
        out_drop.append(len(sents) - len(kept))
        out_keep.append(len(kept) >= 3)
        out_text.append(". ".join(kept))
    return pa.table(
        {
            "doc_id": pa.array(out_doc, pa.int64()),
            "n_kept": pa.array(out_kept, pa.int64()),
            "n_dropped": pa.array(out_drop, pa.int64()),
            "keep": pa.array(out_keep, pa.bool_()),
            "clean_text": pa.array(out_text, pa.string()),
        }
    )


def length_percentile_filter(docs_ds, lo_pct: int = 5, hi_pct: int = 95):
    """Global length-percentile document filter — the "drop the shortest
    5% and longest 5%" corpus-curation cut, with EXACT integer percentile
    semantics: the p-th percentile length is the smallest token count L
    whose cumulative document count satisfies ``cum * 100 >= p * N``
    (all-integer comparison, so Python and the SQL oracle agree with no
    float rounding anywhere).  Emits ``(doc_id, n_tokens, keep)`` for
    every document with ``keep = lo_len <= n_tokens <= hi_len``.

    Scale shape: per-doc token counts are a stateless map; the threshold
    needs the GLOBAL length distribution, which is a groupby over the
    token count itself — the histogram has one row per DISTINCT length
    (bounded by the longest document's token count, thousands of rows at
    any corpus size), so the driver-side cumulative scan is O(distinct
    lengths), never O(docs).  The filter pass re-reads the counts
    dataset; thresholds ride into it as plain ints (closure capture, two
    scalars — no broadcast needed)."""
    counts = docs_ds.map_batches(
        lambda b: token_stats_batch(b).select(["doc_id", "n_tokens"]),
        batch_format="pyarrow",
    ).materialize()  # (doc_id, n_tokens) is 16 B/doc — consumed twice
    # (histogram pass + flag pass); without this the tokenization scan
    # over the full corpus would run twice
    hist = counts.groupby("n_tokens").count().take_all()  # O(distinct lengths)
    hist.sort(key=lambda r: r["n_tokens"])
    total = sum(r["count()"] for r in hist)
    lo_len, hi_len, cum = 0, 0, 0
    lo_found = False
    for r in hist:
        cum += r["count()"]
        if not lo_found and cum * 100 >= lo_pct * total:
            lo_len, lo_found = r["n_tokens"], True
        if cum * 100 >= hi_pct * total:
            hi_len = r["n_tokens"]
            break

    def flag(batch: pa.Table) -> pa.Table:
        n = batch.column("n_tokens")
        keep = pc.and_(
            pc.greater_equal(n, pa.scalar(lo_len, pa.int64())),
            pc.less_equal(n, pa.scalar(hi_len, pa.int64())),
        )
        return batch.append_column("keep", keep)

    return counts.map_batches(flag, batch_format="pyarrow")


_GOPHER_STOPS = frozenset(
    ("the", "be", "to", "of", "and", "that", "have", "with")
)
_BULLET_RE = re.compile(r"^\s*[-*•]")
_ELLIPSIS_END_RE = re.compile(r"(?:\.\.\.|…)\s*$")
_ALPHA_RE = re.compile(r"[A-Za-z]")


def gopher_filter_batch(batch: pa.Table) -> pa.Table:
    """The published Gopher document-quality rules (Rae et al. 2021,
    "Scaling Language Models", App. A) as exact INTEGER arithmetic so the
    DuckDB oracle reproduces every column bit-for-bit:

    * 50 <= word count <= 100,000          (``ok_words``)
    * 3 <= mean word length <= 10          (``3n <= chars <= 10n``)
    * symbol-to-word ratio < 0.1           (# and ellipsis; ``10s < n``)
    * < 90%% of lines start with a bullet  (``10b <= 9L``)
    * < 30%% of lines end with an ellipsis (``10e <= 3L``)
    * >= 80%% of words contain a letter    (``5a >= 4n``)
    * >= 2 distinct Gopher stop words      (the/be/to/of/and/that/have/with)

    Words are whitespace tokens (stop-word matching is exact on the
    lowercased token, as in the paper's description); lines split on \\n.
    """
    texts = batch.column("text").to_pylist()
    n_words, word_chars, n_sym, n_lines = [], [], [], []
    n_bullet, n_ell_end, n_alpha, n_stop = [], [], [], []
    for t in texts:
        words = t.split()
        lines = t.split("\n")
        n_words.append(len(words))
        word_chars.append(sum(len(w) for w in words))
        n_sym.append(t.count("#") + t.count("...") + t.count("…"))
        n_lines.append(len(lines))
        n_bullet.append(sum(1 for ln in lines if _BULLET_RE.match(ln)))
        n_ell_end.append(sum(1 for ln in lines if _ELLIPSIS_END_RE.search(ln)))
        n_alpha.append(sum(1 for w in words if _ALPHA_RE.search(w)))
        n_stop.append(len({w.lower() for w in words} & _GOPHER_STOPS))
    nw = pa.array(n_words, pa.int64())
    wc = pa.array(word_chars, pa.int64())
    ns = pa.array(n_stop, pa.int64())
    out = {
        "doc_id": batch.column("doc_id"),
        "n_words": nw,
        "word_chars": wc,
        "n_stop": ns,
    }
    ok = {}
    ok["ok_words"] = pc.and_(
        pc.greater_equal(nw, pa.scalar(50, pa.int64())),
        pc.less_equal(nw, pa.scalar(100000, pa.int64())),
    )
    three_n = pc.multiply(nw, pa.scalar(3, pa.int64()))
    ten_n = pc.multiply(nw, pa.scalar(10, pa.int64()))
    ok["ok_mean_len"] = pc.and_(
        pc.less_equal(three_n, wc), pc.less_equal(wc, ten_n)
    )
    ok["ok_symbol"] = pc.less(
        pc.multiply(pa.array(n_sym, pa.int64()), pa.scalar(10, pa.int64())), nw
    )
    nl = pa.array(n_lines, pa.int64())
    ok["ok_bullet"] = pc.less_equal(
        pc.multiply(pa.array(n_bullet, pa.int64()), pa.scalar(10, pa.int64())),
        pc.multiply(nl, pa.scalar(9, pa.int64())),
    )
    ok["ok_ellipsis"] = pc.less_equal(
        pc.multiply(pa.array(n_ell_end, pa.int64()), pa.scalar(10, pa.int64())),
        pc.multiply(nl, pa.scalar(3, pa.int64())),
    )
    ok["ok_alpha"] = pc.greater_equal(
        pc.multiply(pa.array(n_alpha, pa.int64()), pa.scalar(5, pa.int64())),
        pc.multiply(nw, pa.scalar(4, pa.int64())),
    )
    ok["ok_stop"] = pc.greater_equal(ns, pa.scalar(2, pa.int64()))
    keep = None
    for arr in ok.values():
        keep = arr if keep is None else pc.and_(keep, arr)
    out.update(ok)
    out["keep"] = keep
    return pa.table(out)


# demo blocklist for the registry query (the op takes any list); chosen
# from the synthetic corpus vocabulary so the filter discriminates there
DEFAULT_BLOCKLIST = ("slow", "broken", "legacy")


def blocklist_filter_batch(batch: pa.Table, blocklist=DEFAULT_BLOCKLIST,
                           max_pct: int = 2) -> pa.Table:
    """Wordlist-based content filter (the C4 / RefinedWeb "bad words"
    rule): count whitespace words whose lowercase form is in the
    blocklist; drop the document when blocked words exceed ``max_pct``
    percent of all words.  Pure integer arithmetic
    (``100 * n_blocked <= max_pct * n_words``) so the DuckDB oracle
    matches bit-for-bit; empty documents keep (0 <= 0)."""
    bl = frozenset(blocklist)
    texts = batch.column("text").to_pylist()
    n_words, n_blocked = [], []
    for t in texts:
        words = t.split()
        n_words.append(len(words))
        n_blocked.append(sum(1 for w in words if w.lower() in bl))
    nw = pa.array(n_words, pa.int64())
    nb = pa.array(n_blocked, pa.int64())
    keep = pc.less_equal(
        pc.multiply(nb, pa.scalar(100, pa.int64())),
        pc.multiply(nw, pa.scalar(max_pct, pa.int64())),
    )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_words": nw,
            "n_blocked": nb,
            "keep": keep,
        }
    )


def lexical_stats_batch(batch: pa.Table) -> pa.Table:
    """Lexical-diversity signals as INTEGER columns (exactly reproducible
    in SQL): per doc the token count, distinct-token count (type-token
    ratio numerator/denominator) and hapax-legomenon count — the classic
    vocabulary-richness trio quality pipelines threshold on (a machine-
    generated or template-stamped page has anomalously low TTR; a
    gibberish page anomalously high hapax share).  Tokens are lowercased
    ``TOKEN_RE`` words, matching the other text ops' grammar."""
    from collections import Counter

    texts = batch.column("text").to_pylist()
    n_tokens, n_distinct, n_hapax = [], [], []
    for t in texts:
        toks = TOKEN_RE.findall(t.lower())
        c = Counter(toks)
        n_tokens.append(len(toks))
        n_distinct.append(len(c))
        n_hapax.append(sum(1 for v in c.values() if v == 1))
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "n_distinct": pa.array(n_distinct, pa.int64()),
            "n_hapax": pa.array(n_hapax, pa.int64()),
        }
    )


def gazetteer_counts(pages_ds, terms: list[str]):
    """Dictionary tagging: per-page occurrence counts for a gazetteer of
    literal surface forms -> ``(url, term, n)``, one row per page×term
    with at least one hit.  The web-scale analog of the reference's
    gazetteer stand-ins for its NER zoo (every extractor in
    /root/reference/src/methods/ ultimately produces (surface, count)
    evidence per document): dictionary matching against a curated entity
    lexicon is the standard high-precision first pass of KG construction.

    Semantics: case-sensitive NON-OVERLAPPING left-to-right occurrence
    counts (Python ``str.count`` / SQL replace-length), independent per
    term, so the DuckDB oracle is exact.

    Scale shape: the term list ships once per task via closure capture
    (gazetteers are small by construction); each batch does one
    vectorized ``pc.count_substring`` C pass per term — O(|terms| ×
    batch_bytes) with no Python in the inner loop.  For 10^4+-term
    lexicons the upgrade is an Aho-Corasick automaton built once per
    actor in ``__init__`` (single shared pass for all patterns); the
    (url, term, n) output contract and this oracle stay unchanged."""
    if not terms:
        raise ValueError("gazetteer_counts needs at least one term")
    if len(set(terms)) != len(terms):
        raise ValueError("gazetteer terms must be unique")
    terms = list(terms)

    def count(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "url": pa.array([], pa.string()),
                "term": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
        if batch.num_rows == 0 or "text" not in batch.column_names:
            return empty
        urls = batch.column("url").combine_chunks()
        text = batch.column("text")
        out_url, out_term, out_n = [], [], []
        for t in terms:
            n = pc.count_substring(text, pattern=t).cast(pa.int64())
            hit = pc.greater(n, 0)
            if not pc.any(hit).as_py():
                continue
            u = urls.filter(hit.combine_chunks())
            k = len(u)
            out_url.append(u)
            out_term.append(pa.array([t] * k, pa.string()))
            out_n.append(n.combine_chunks().filter(hit.combine_chunks()))
        if not out_url:
            return empty
        return pa.table(
            {
                "url": pa.concat_arrays(out_url),
                "term": pa.concat_arrays([a.cast(pa.string()) for a in out_term]),
                "n": pa.concat_arrays(out_n),
            }
        )

    return pages_ds.select_columns(["url", "text"]).map_batches(
        count, batch_format="pyarrow"
    )


def and_search(docs_ds, terms: tuple[str, ...]):
    """Boolean AND retrieval: doc_ids whose text contains EVERY query
    term as a whole token (the shared ``[a-z0-9_]+`` grammar) — the
    exact-match complement of the BM25 ranked path (ops/bm25): filter
    pipelines use this shape for "must contain all of ..." corpus cuts.

    Fully streaming, zero shuffle: the terms broadcast in the task
    closure (bytes, not a table) and each batch is ONE vectorized RE2
    pass per term over the lowered text — whole-token semantics via
    boundary guards, so 'fast' never matches inside 'fastest'.
    """
    import re as _re

    if not terms:
        raise ValueError("terms must be non-empty")
    for t in terms:
        if not _re.fullmatch(r"[a-z0-9_]+", t):
            raise ValueError(f"term {t!r} is not a lowercase token")
    pats = [rf"(^|[^a-z0-9_]){_re.escape(t)}([^a-z0-9_]|$)" for t in terms]

    def match(batch: pa.Table) -> pa.Table:
        lowered = pc.utf8_lower(batch.column("text"))
        keep = None
        for p in pats:
            m = pc.match_substring_regex(lowered, pattern=p)
            keep = m if keep is None else pc.and_(keep, m)
        return pa.table(
            {"doc_id": batch.column("doc_id").cast(pa.int64()).filter(keep)}
        )

    return docs_ds.select_columns(["doc_id", "text"]).map_batches(
        match, batch_format="pyarrow"
    )


def code_detect_batch(batch: pa.Table) -> pa.Table:
    """Code-vs-prose detection — the CC-pipeline filter that routes
    source-code pages away from the prose corpus.  Exact integer
    signals, one vectorized RE2 pass each:

      symbol_ppm      = 10^6 * count of ``{}();=<>[]`` chars // n_chars
      indent_line_ppm = 10^6 * lines starting with 4 spaces or a tab
                        // n_lines
      is_code         = symbol_ppm >= 30000 OR indent_line_ppm >= 300000

    Emits (doc_id, n_chars, symbol_ppm, indent_line_ppm, is_code)."""
    import numpy as np

    if batch.num_rows == 0 or "text" not in batch.column_names:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_chars": pa.array([], pa.int64()),
                "symbol_ppm": pa.array([], pa.int64()),
                "indent_line_ppm": pa.array([], pa.int64()),
                "is_code": pa.array([], pa.int64()),
            }
        )
    text = batch.column("text")
    n_chars = pc.utf8_length(text).cast(pa.int64()).combine_chunks().to_numpy(
        zero_copy_only=False
    )
    syms = pc.count_substring_regex(
        text, pattern=r"[{}();=<>\[\]]"
    ).cast(pa.int64()).combine_chunks().to_numpy(zero_copy_only=False)
    indents = pc.count_substring_regex(
        text, pattern=r"(?:^|\n)(?:    |\t)"
    ).cast(pa.int64()).combine_chunks().to_numpy(zero_copy_only=False)
    newlines = pc.count_substring_regex(text, pattern=r"\n").cast(
        pa.int64()
    ).combine_chunks().to_numpy(zero_copy_only=False)
    n_lines = newlines + 1
    symbol_ppm = np.where(n_chars > 0, 1_000_000 * syms // np.maximum(n_chars, 1), 0)
    indent_ppm = 1_000_000 * indents // n_lines
    is_code = ((symbol_ppm >= 30_000) | (indent_ppm >= 300_000)).astype(np.int64)
    return pa.table(
        {
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "n_chars": pa.array(n_chars, pa.int64()),
            "symbol_ppm": pa.array(symbol_ppm, pa.int64()),
            "indent_line_ppm": pa.array(indent_ppm, pa.int64()),
            "is_code": pa.array(is_code, pa.int64()),
        }
    )


def top_tokens_by_lang(docs_ds, k: int = 10):
    """Per-language top-``k`` tokens by total count — the stopword /
    frequency profile a multilingual curation pass reads.  Token grammar
    is the repo-wide ``[a-z0-9_]+`` over lowered text.

    Per-batch (lang, token) count combiner -> one global groupby -> per-
    lang top-k via a per-block select-k combiner then a final per-lang
    cut, ties broken (count desc, token asc).  Emits
    ``(lang, token, n, rank)``."""
    import re

    import numpy as np
    from ray.data.aggregate import Sum

    tok_re = re.compile(r"[a-z0-9_]+")

    def counts(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "text" not in batch.column_names:
            return pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    "token": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        agg: dict[tuple[str, str], int] = {}
        for lang, text in zip(
            batch.column("lang").to_pylist(), batch.column("text").to_pylist()
        ):
            for t in tok_re.findall(text.lower()):
                key = (lang, t)
                agg[key] = agg.get(key, 0) + 1
        return pa.table(
            {
                "lang": pa.array([kk[0] for kk in agg], pa.string()),
                "token": pa.array([kk[1] for kk in agg], pa.string()),
                "n": pa.array(list(agg.values()), pa.int64()),
            }
        )

    totals = (
        docs_ds.select_columns(["lang", "text"])
        .map_batches(counts, batch_format="pyarrow")
        .groupby(["lang", "token"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def local_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "lang" not in batch.column_names:
            return pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    "token": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        t = batch.sort_by(
            [("lang", "ascending"), ("n", "descending"), ("token", "ascending")]
        )
        langs = np.asarray(t.column("lang").to_pylist(), dtype=object)
        starts = np.flatnonzero(np.r_[True, langs[1:] != langs[:-1]])
        keep = np.zeros(len(langs), dtype=bool)
        for s in starts:
            e = min(s + k, len(langs))
            while e > s and e < len(langs) and langs[e - 1] != langs[s]:
                e -= 1
            keep[s : s + k] = langs[s : s + k] == langs[s]
        return t.filter(pa.array(keep)).select(["lang", "token", "n"])

    def final_topk(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "lang" not in group.column_names:
            return pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    "token": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                }
            )
        t = group.sort_by([("n", "descending"), ("token", "ascending")]).slice(0, k)
        return pa.table(
            {
                "lang": t.column("lang"),
                "token": t.column("token"),
                "n": t.column("n"),
                "rank": pa.array(list(range(1, t.num_rows + 1)), pa.int64()),
            }
        )

    return (
        totals.map_batches(local_topk, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(final_topk, batch_format="pyarrow")
    )


def relative_date_mentions(pages_ds):
    """Relative/natural-language date resolution over a pages corpus —
    the dateparser capability the reference demos (check_spark_nlp.py
    "next monday"/"yesterday") made deterministic: every relative
    expression in a page's text resolves against THAT PAGE's crawl date
    (``warc_ts``), never a wall clock, so reruns and workers agree.
    A day-word of another language than English counts only on pages of
    that ``lang`` (:func:`~..functions.dates.relative_matches`).

    Stateless map_batches (compiled grammar, per-doc scan — the
    tokenizer discipline); emits ``(url, expr, resolved)`` with the
    resolved date as an ISO string (hash-stable)."""
    import datetime as _dt

    from ..functions.dates import parse_relative_date, relative_matches

    def scan(batch: pa.Table) -> pa.Table:
        urls, exprs, dates = [], [], []
        if batch.num_rows and "text" in batch.column_names:
            for url, text, lang, ts_us in zip(
                batch.column("url").to_pylist(),
                batch.column("text").to_pylist(),
                batch.column("lang").to_pylist(),
                batch.column("warc_ts").cast(pa.timestamp("us"))
                .cast(pa.int64()).to_pylist(),
            ):
                anchor = _dt.datetime.fromtimestamp(
                    ts_us / 1e6, tz=_dt.timezone.utc
                ).date()
                for m in relative_matches(text, lang):
                    d = parse_relative_date(m.group(0), anchor)
                    if d is not None:
                        urls.append(url)
                        exprs.append(m.group(0))
                        dates.append(d.isoformat())
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "expr": pa.array(exprs, pa.string()),
                "resolved": pa.array(dates, pa.string()),
            }
        )

    return pages_ds.select_columns(["url", "text", "warc_ts", "lang"]).map_batches(
        scan, batch_format="pyarrow"
    )
