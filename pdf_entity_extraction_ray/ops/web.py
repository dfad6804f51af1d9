"""Web-corpus operators over the pages table ``(url, warc_ts, html, text,
lang)`` — the host-level views a Common-Crawl-style pipeline runs before
anything else (per-host page budgets, spam/robots domain filtering, crawl
freshness auditing).

URL parsing is a single vectorized RE2 ``pc.extract_regex`` over the Arrow
url column — never a Python ``urlparse`` per row — and the aggregation is
the standard two-stage shape: per-batch Arrow ``group_by`` combiners emit
one row per distinct host per block (a 10^9-page host ships O(blocks)
partials, not raw rows), then a small global groupby folds them.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

_HOST_PATTERN = r"^[a-z][a-z0-9+.-]*://(?P<host>[^/?#]+)"


def host_of(urls: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Vectorized scheme-stripped authority (host[:port]) of each url;
    empty string where the url has no scheme://authority prefix."""
    ex = pc.extract_regex(urls, pattern=_HOST_PATTERN)
    return pc.fill_null(pc.struct_field(ex, "host"), "")


def host_stats(pages_ds):
    """pages -> one row per host: page count, total extracted-text chars,
    first/last crawl timestamp (epoch microseconds — integer columns so
    the DuckDB oracle compares exactly)."""
    from ray.data.aggregate import Max, Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        cols = {
            "host": pa.array([], pa.string()),
            "n_pages": pa.array([], pa.int64()),
            "text_chars": pa.array([], pa.int64()),
            "first_crawl_us": pa.array([], pa.int64()),
            "last_crawl_us": pa.array([], pa.int64()),
        }
        if batch.num_rows == 0 or "url" not in batch.column_names:
            return pa.table(cols)
        t = pa.table(
            {
                "host": host_of(batch.column("url")),
                "chars": pc.utf8_length(batch.column("text")).cast(pa.int64()),
                "ts": batch.column("warc_ts").cast(pa.int64()),
            }
        )
        g = t.group_by("host").aggregate(
            [("chars", "count"), ("chars", "sum"), ("ts", "min"), ("ts", "max")]
        )
        return pa.table(
            {
                "host": g.column("host"),
                "n_pages": g.column("chars_count").cast(pa.int64()),
                "text_chars": g.column("chars_sum").cast(pa.int64()),
                "first_crawl_us": g.column("ts_min"),
                "last_crawl_us": g.column("ts_max"),
            }
        )

    return (
        pages_ds.select_columns(["url", "warc_ts", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("host")
        .aggregate(
            Sum("n_pages", alias_name="n_pages"),
            Sum("text_chars", alias_name="text_chars"),
            Min("first_crawl_us", alias_name="first_crawl_us"),
            Max("last_crawl_us", alias_name="last_crawl_us"),
        )
    )


_URL_PARTS = r"^(?P<scheme>[a-z][a-z0-9+.-]*)://(?P<host>[^/?#]+)(?P<rest>[^#]*)"
_TRACKING = r"(utm_[a-z]+|fbclid|gclid)=[^&#]*&?"


def normalize_url(urls: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Crawl-dedup URL key, fully vectorized and RE2-replicable in SQL:
    lowercase scheme and host, drop the #fragment, strip common tracking
    parameters (utm_*, fbclid, gclid), tidy dangling ``?``/``&``.  Path
    case is preserved (it is significant).  Urls without a
    scheme://authority prefix normalize to ''."""
    ex = pc.extract_regex(urls, pattern=_URL_PARTS)
    scheme = pc.utf8_lower(pc.fill_null(pc.struct_field(ex, "scheme"), ""))
    host = pc.utf8_lower(pc.fill_null(pc.struct_field(ex, "host"), ""))
    rest = pc.fill_null(pc.struct_field(ex, "rest"), "")
    rest = pc.replace_substring_regex(rest, pattern=_TRACKING, replacement="")
    rest = pc.replace_substring_regex(rest, pattern=r"[?&]+$", replacement="")
    norm = pc.binary_join_element_wise(scheme, "://", host, rest, "")
    return pc.if_else(pc.equal(host, ""), pa.scalar("", pa.string()), norm)


def latest_crawl(pages_ds):
    """Re-crawl dedup: one row per NORMALIZED url — the newest crawl
    (max warc_ts; ties break to the lexicographically smallest raw url).
    The standard first step of a Common-Crawl-style pipeline, where the
    same page appears in many monthly crawls.

    Scale shape: a per-batch combiner keeps one candidate row per
    normalized url per block (the shuffle moves winners, never every
    crawl), then a groupby picks the global winner per key."""

    def candidates(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "url" not in batch.column_names:
            return pa.table(
                {
                    "norm_url": pa.array([], pa.string()),
                    "url": pa.array([], pa.string()),
                    "warc_ts_us": pa.array([], pa.int64()),
                }
            )
        t = pa.table(
            {
                "norm_url": normalize_url(batch.column("url")),
                "url": batch.column("url"),
                "warc_ts_us": batch.column("warc_ts").cast(pa.int64()),
            }
        )
        # per-block winner: sort (key, ts desc, url asc), keep first per key
        idx = pc.sort_indices(
            t,
            sort_keys=[
                ("norm_url", "ascending"),
                ("warc_ts_us", "descending"),
                ("url", "ascending"),
            ],
        )
        t = t.take(idx)
        import numpy as np

        k = np.asarray(t.column("norm_url").to_pylist(), dtype=object)
        keep = np.ones(len(k), dtype=bool)
        if len(k) > 1:
            keep[1:] = k[1:] != k[:-1]
        return t.filter(pa.array(keep))

    def winner(group: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            group,
            sort_keys=[("warc_ts_us", "descending"), ("url", "ascending")],
        )
        return group.take(idx).slice(0, 1)

    return (
        pages_ds.select_columns(["url", "warc_ts"])
        .map_batches(candidates, batch_format="pyarrow")
        .groupby("norm_url")
        .map_groups(winner, batch_format="pyarrow")
    )


def cap_per_host(pages_ds, k: int = 3):
    """Per-host page budget: keep at most ``k`` pages per host, preferring
    the EARLIEST crawl (then url as the deterministic tie-break) — the
    standard Common-Crawl curation step that stops mega-hosts from
    dominating a training corpus.

    Two-stage so a 10^9-page host never concentrates anywhere: a per-batch
    combiner keeps at most ``k`` rows per host per block (vectorized
    lexsort + run-length position mask, no Python row loop), then the
    small ``groupby(host).map_groups`` final pass re-applies the same cap
    over the surviving <= k * n_blocks rows per host.  Output columns
    (host, url, warc_ts_us) use integer epoch-us so the DuckDB oracle
    (``row_number() over (partition by host order by warc_ts, url)``)
    compares exactly."""
    import numpy as np

    def _cap(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            t,
            sort_keys=[
                ("host", "ascending"),
                ("warc_ts_us", "ascending"),
                ("url", "ascending"),
            ],
        )
        t = t.take(idx)
        host = np.asarray(t.column("host").to_pylist(), dtype=object)
        starts = np.flatnonzero(np.r_[True, host[1:] != host[:-1]])
        runlen = np.diff(np.r_[starts, len(host)])
        pos_in_run = np.arange(len(host)) - np.repeat(starts, runlen)
        return t.filter(pa.array(pos_in_run < k))

    def partial(batch: pa.Table) -> pa.Table:
        cols = {
            "host": pa.array([], pa.string()),
            "url": pa.array([], pa.string()),
            "warc_ts_us": pa.array([], pa.int64()),
        }
        if batch.num_rows == 0 or "url" not in batch.column_names:
            return pa.table(cols)
        t = pa.table(
            {
                "host": host_of(batch.column("url")),
                "url": batch.column("url"),
                "warc_ts_us": batch.column("warc_ts").cast(pa.int64()),
            }
        )
        return _cap(t)

    return (
        pages_ds.select_columns(["url", "warc_ts"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("host")
        .map_groups(_cap, batch_format="pyarrow")
    )


# absolute http(s) hrefs only — relative boilerplate links ("/about") are
# navigation, not web-graph edges; RE2-compatible so the DuckDB oracle
# runs the identical pattern over decode(html)
LINK_RE_STR = r'href="(https?://[^"]+)"'
_LINK_RE = re.compile(LINK_RE_STR)


def extract_links(pages_ds):
    """(src, dst) web-graph edges from the raw ``html`` bytes — the
    Common-Crawl link-extraction primitive.  Stateless ``map_batches``
    over the binary column: decode, regex-scan, flat-emit; a 100-TB crawl
    streams through with no shuffle.  Duplicate hrefs on a page emit
    duplicate edges (faithful to the markup; aggregate downstream)."""

    def parse(batch: pa.Table) -> pa.Table:
        srcs: list[str] = []
        dsts: list[str] = []
        if batch.num_rows and "html" in batch.column_names:
            for url, html in zip(
                batch.column("url").to_pylist(), batch.column("html").to_pylist()
            ):
                if isinstance(html, (bytes, bytearray)):
                    html = html.decode("utf-8", errors="replace")
                for dst in _LINK_RE.findall(html):
                    srcs.append(url)
                    dsts.append(dst)
        return pa.table(
            {"src": pa.array(srcs, pa.string()), "dst": pa.array(dsts, pa.string())}
        )

    return pages_ds.select_columns(["url", "html"]).map_batches(
        parse, batch_format="pyarrow"
    )


def host_link_graph(pages_ds):
    """Host-level web graph: (src_host, dst_host, n_links) aggregated from
    :func:`extract_links` — the standard Common-Crawl host-graph product.
    Per-batch Arrow ``group_by`` combiner, then a small global groupby:
    a mega-host pair ships one row per block."""
    from ray.data.aggregate import Sum

    links = extract_links(pages_ds)

    def partial(batch: pa.Table) -> pa.Table:
        cols = {
            "src_host": pa.array([], pa.string()),
            "dst_host": pa.array([], pa.string()),
            "n_links": pa.array([], pa.int64()),
        }
        if batch.num_rows == 0 or "src" not in batch.column_names:
            return pa.table(cols)
        t = pa.table(
            {
                "src_host": host_of(batch.column("src")),
                "dst_host": host_of(batch.column("dst")),
            }
        )
        g = t.group_by(["src_host", "dst_host"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "src_host": g.column("src_host"),
                "dst_host": g.column("dst_host"),
                "n_links": g.column("count_all").cast(pa.int64()),
            }
        )

    return (
        links.map_batches(partial, batch_format="pyarrow")
        .groupby(["src_host", "dst_host"])
        .aggregate(Sum("n_links", alias_name="n_links"))
    )


def link_pagerank(
    pages_ds,
    iterations: int = 20,
    damping: float = 0.85,
    checkpoint_dir: str | None = None,
):
    """Host-level PageRank over the REAL extracted web graph — the
    Common-Crawl host-ranking product: pages -> :func:`host_link_graph`
    (distinct host pairs, self-loops kept) -> BSP damped power iteration
    (ops/graph_stats.pagerank — per-round driver traffic is P scalars) ->
    (host, rank_ppm) with ranks on the integer ppm grid (float noise
    ~1e-15 vs the 1e-6 grid, so results hash exactly).

    Host ids are content-derived (blake2b of the host string), and the
    rank table joins back to host strings through a distinct
    (node, host) map built from the same edges — no driver-side host
    dictionary."""
    import hashlib

    import numpy as np

    from ray.data.aggregate import Min

    from .graph_stats import pagerank

    def hid(host: str) -> int:
        return (
            int.from_bytes(
                hashlib.blake2b(host.encode("utf-8"), digest_size=8).digest(), "little"
            )
            & 0x7FFFFFFFFFFFFFFF
        )

    edges = host_link_graph(pages_ds).materialize()  # consumed twice below

    def ids(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_host" not in batch.column_names:
            return pa.table(
                {"src_id": pa.array([], pa.int64()), "dst_id": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "src_id": pa.array(
                    [hid(h) for h in batch.column("src_host").to_pylist()], pa.int64()
                ),
                "dst_id": pa.array(
                    [hid(h) for h in batch.column("dst_host").to_pylist()], pa.int64()
                ),
            }
        )

    ranks = pagerank(
        edges.map_batches(ids, batch_format="pyarrow"),
        iterations=iterations,
        damping=damping,
        # per-round worker-side Parquet checkpoints (state/bsp_ckpt):
        # a rerun resumes at the newest matching round
        checkpoint_dir=checkpoint_dir,
    )

    def host_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src_host" not in batch.column_names:
            return pa.table(
                {"node": pa.array([], pa.int64()), "host": pa.array([], pa.string())}
            )
        hosts = (
            batch.column("src_host").to_pylist() + batch.column("dst_host").to_pylist()
        )
        return pa.table(
            {
                "node": pa.array([hid(h) for h in hosts], pa.int64()),
                "host": pa.array(hosts, pa.string()),
            }
        )

    # node -> host is 1:1 (node IS blake2b(host)), so Min is an exact carry
    hostmap = (
        edges.map_batches(host_rows, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Min("host", alias_name="host"))
    )
    n_part = 1 if edges.count() < 10_000 else None

    def to_ppm(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "host" not in batch.column_names:
            return pa.table(
                {"host": pa.array([], pa.string()), "rank_ppm": pa.array([], pa.int64())}
            )
        ppm = np.round(
            np.asarray(batch.column("rank").to_pylist(), dtype=np.float64) * 1e6
        ).astype(np.int64)
        return pa.table(
            {"host": batch.column("host"), "rank_ppm": pa.array(ppm, pa.int64())}
        )

    from ..stages.graph import _join_parts

    return ranks.join(
        hostmap,
        join_type="inner",
        num_partitions=n_part or _join_parts(),
        on=("node",),
    ).map_batches(to_ppm, batch_format="pyarrow")


def strip_boilerplate(pages_ds, df_frac: float = 0.05, min_df: int = 2):
    """Cross-document boilerplate removal (the CCNet/RefinedWeb
    paragraph-hash dedup applied at sentence granularity): drop every
    sentence that appears on >= max(min_df, ceil(df_frac * n_pages))
    DISTINCT pages — nav bars, footers, terms-of-service lines — and
    reassemble each page from its surviving sentences.

    Sentence unit = ``'. '`` split (no regex, so DuckDB ``string_split``
    mirrors byte-for-byte).  Scale shape, in three bounded steps:

    1. **df count** — pages are row-granular, so per-page sentence
       de-duplication happens inside the row (no distinct-shuffle);
       the groupby then moves one (sentence, 1) partial per page-sentence
       and folds to document frequency.  A per-batch combiner pre-sums
       duplicate sentences within the block, so the boilerplate (which by
       definition repeats in every block) ships O(distinct/block) rows.
    2. **threshold + collect** — sentences at df >= T number at most
       total_sentence_instances / T <= n_pages * avg_sents / (df_frac *
       n_pages) = avg_sents / df_frac, a corpus-size-INDEPENDENT bound
       (a few hundred rows), so collecting them to the driver and
       broadcasting via ``ray.put`` is O(1) at any scale.
    3. **strip** — a second stateless pass filters each page's sentence
       list against the broadcast set and rejoins with ``'. '``.  Pages
       whose every sentence is boilerplate drop out (mirroring SQL
       group-by reassembly, where an empty group vanishes).

    Emits (url, clean_text, n_kept, n_removed)."""
    import numpy as np
    import ray
    from ray.data.aggregate import Sum

    n_pages = pages_ds.count()
    thresh = max(min_df, int(np.ceil(df_frac * n_pages)))

    def df_partial(batch: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for t in batch.column("text").to_pylist():
            # ''.split('. ') == [''] in BOTH Python and DuckDB string_split
            # — empty pages contribute one ''-sentence to df, exactly like
            # pages ending in '. ' do, so the SQL mirror stays byte-exact
            for s in dict.fromkeys(t.split(". ")):  # per-page distinct
                counts[s] = counts.get(s, 0) + 1
        return pa.table(
            {
                "sent": pa.array(list(counts), pa.string()),
                "df": pa.array(list(counts.values()), pa.int64()),
            }
        )

    dfs = (
        pages_ds.select_columns(["text"])
        .map_batches(df_partial, batch_format="pyarrow")
        .groupby("sent")
        .aggregate(Sum("df", alias_name="df"))
    )
    boiler_rows = dfs.filter(lambda r: r["df"] >= thresh).take_all()
    boiler = frozenset(r["sent"] for r in boiler_rows)  # bounded (step 2)
    boiler_ref = ray.put(boiler)

    def strip(batch: pa.Table) -> pa.Table:
        bset = ray.get(boiler_ref)
        urls, cleans, kept_n, rem_n = [], [], [], []
        for u, t in zip(
            batch.column("url").to_pylist(), batch.column("text").to_pylist()
        ):
            sents = t.split(". ")  # '' -> [''] (mirrors SQL string_split)
            kept = [s for s in sents if s not in bset]
            if not kept:
                continue  # fully-boilerplate page drops (SQL empty group)
            urls.append(u)
            cleans.append(". ".join(kept))
            kept_n.append(len(kept))
            rem_n.append(len(sents) - len(kept))
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "clean_text": pa.array(cleans, pa.string()),
                "n_kept": pa.array(kept_n, pa.int64()),
                "n_removed": pa.array(rem_n, pa.int64()),
            }
        )

    return pages_ds.select_columns(["url", "text"]).map_batches(
        strip, batch_format="pyarrow"
    )


def strip_boilerplate_oracle_sql(
    pages_source: str, df_frac: float = 0.05, min_df: int = 2
) -> str:
    """DuckDB mirror of :func:`strip_boilerplate`: explode sentences with
    ordinality, count distinct-url document frequency, anti-join the
    high-df set, re-aggregate in original order."""
    return f"""
        with p as ({pages_source}),
             s as (select url,
                          unnest(string_split(text, '. ')) as sent,
                          generate_subscripts(string_split(text, '. '), 1) as idx,
                          len(string_split(text, '. '))::bigint as total
                   from p),
             df as (select sent, count(distinct url)::bigint as df
                    from s group by sent),
             t as (select greatest({min_df},
                       ceil({df_frac} * (select count(*) from p))) as thresh),
             b as (select sent from df where df >= (select thresh from t))
        select url,
               string_agg(sent, '. ' order by idx) as clean_text,
               count(*)::bigint as n_kept,
               (any_value(total) - count(*))::bigint as n_removed
        from s
        where sent not in (select sent from b)
        group by url
    """


def host_quality(pages_ds, min_keep_ppm: int = 500_000):
    """Domain-level curation signal (the RefinedWeb/C4 move of judging
    HOSTS, not just pages): per host, how many pages pass the integer
    C4/Gopher-style quality gates, and whether the host itself clears a
    keep-rate threshold — a low-quality domain is dropped wholesale even
    when individual pages sneak past the per-page rules.

    Per-batch: vectorized host extraction + the same integer-count gates
    as ops/text.quality_batch (token count in [5, 100000]; punct-heavy =
    n_punct * 10 > n_chars), pre-aggregated per host per block; one small
    groupby folds (n_pages, n_keep).  The host verdict stays in integer
    arithmetic (n_keep * 10^6 >= min_keep_ppm * n_pages) so the SQL
    oracle is exact.  Emits (host, n_pages, n_keep, keep_host)."""
    from ray.data.aggregate import Sum

    from .text import PUNCT_RE, TOKEN_RE  # type: ignore[attr-defined]

    def partial(batch: pa.Table) -> pa.Table:
        cols = {
            "host": pa.array([], pa.string()),
            "n_pages": pa.array([], pa.int64()),
            "n_keep": pa.array([], pa.int64()),
        }
        if batch.num_rows == 0 or "url" not in batch.column_names:
            return pa.table(cols)
        hosts = host_of(batch.column("url"))
        n_chars = pc.utf8_length(batch.column("text")).cast(pa.int64())
        n_tokens = pc.count_substring_regex(
            batch.column("text"), pattern=TOKEN_RE.pattern
        ).cast(pa.int64())
        n_punct = pc.count_substring_regex(
            batch.column("text"), pattern=PUNCT_RE.pattern
        ).cast(pa.int64())
        ok_len = pc.and_(
            pc.greater_equal(n_tokens, 5), pc.less_equal(n_tokens, 100000)
        )
        punct_heavy = pc.greater(
            pc.multiply(n_punct, pa.scalar(10, pa.int64())), n_chars
        )
        keep = pc.and_(ok_len, pc.invert(punct_heavy))
        t = pa.table({"host": hosts, "keep": keep.cast(pa.int64())})
        g = t.group_by(["host"]).aggregate([("keep", "count"), ("keep", "sum")])
        return pa.table(
            {
                "host": g.column("host"),
                "n_pages": g.column("keep_count").cast(pa.int64()),
                "n_keep": g.column("keep_sum").cast(pa.int64()),
            }
        )

    agg = (
        pages_ds.select_columns(["url", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("host")
        .aggregate(Sum("n_pages", alias_name="n_pages"), Sum("n_keep", alias_name="n_keep"))
    )

    def verdict(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "n_keep" not in batch.column_names:
            return pa.table(
                {
                    "host": pa.array([], pa.string()),
                    "n_pages": pa.array([], pa.int64()),
                    "n_keep": pa.array([], pa.int64()),
                    "keep_host": pa.array([], pa.bool_()),
                }
            )
        keep_host = pc.greater_equal(
            pc.multiply(batch.column("n_keep"), pa.scalar(1_000_000, pa.int64())),
            pc.multiply(batch.column("n_pages"), pa.scalar(min_keep_ppm, pa.int64())),
        )
        return batch.append_column("keep_host", keep_host)

    return agg.map_batches(verdict, batch_format="pyarrow")


def host_quality_oracle_sql(pages_source: str, min_keep_ppm: int = 500_000) -> str:
    """DuckDB mirror of :func:`host_quality` (integer arithmetic only)."""
    return f"""
        with p as ({pages_source}),
             s as (select coalesce(regexp_extract(url,
                              '^[a-z][a-z0-9+.-]*://([^/?#]+)', 1), '') as host,
                          len(text) as n_chars,
                          len(regexp_extract_all(text, '[A-Za-z0-9_]+')) as n_tokens,
                          len(regexp_extract_all(text,
                              '[!-/:-@\\[-`{{-~]')) as n_punct
                   from p),
             k as (select host,
                          ((n_tokens between 5 and 100000)
                           and not (n_punct * 10 > n_chars))::bigint as keep
                   from s)
        select host, count(*)::bigint as n_pages, sum(keep)::bigint as n_keep,
               (sum(keep) * 1000000 >= count(*) * {min_keep_ppm}) as keep_host
        from k group by host
    """


def host_entity_overlap(mentions_ds, *, min_common: int = 2, shards: int = 256):
    """Host co-citation: unordered host pairs that mention at least
    ``min_common`` of the same distinct (type, surface) entities — the
    bipartite host-x-entity projection behind "sites covering the same
    subjects" clustering.

    Never self-joins the mention table: entities hash into ``shards``
    coarse groups (every (type, surface)'s host list lands in one group),
    and inside a shard one Arrow sort + offset-arithmetic expansion turns
    each entity's sorted host list into its C(H,2) pairs — the
    :func:`~..ops.relational.parts_copurchase` shape with a string basket
    key.  Pair volume is sum of H_e*(H_e-1)/2 over entities; a
    celebrity entity mentioned by every host makes that term quadratic
    BY DEFINITION (same finding as common_neighbors on the 1M-page
    graph) — production runs cap or drop head entities before this op;
    the registry corpus has no such hub so the census stays exact and
    uncut.  Per-shard partial counts combine before the final pair
    groupby.

    Emits (host_a, host_b, n_common) with host_a < host_b.
    """
    import hashlib

    import numpy as np
    import ray.data  # noqa: F401  (callers pass Datasets in)
    from ray.data.aggregate import Sum

    from .relational import _shard_pow2

    EMPTY = pa.table(
        {
            "host_a": pa.array([], pa.string()),
            "host_b": pa.array([], pa.string()),
            "n_common": pa.array([], pa.int64()),
        }
    )
    mask = _shard_pow2(shards) - 1

    def rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "k": pa.array([], pa.string()),
                    "host": pa.array([], pa.string()),
                    "shard": pa.array([], pa.int32()),
                }
            )
        host = host_of(batch.column("url").combine_chunks())
        k = pc.binary_join_element_wise(
            batch.column("type").cast(pa.string()),
            batch.column("text").cast(pa.string()),
            "\x00",
        )
        t = (
            pa.table({"k": k, "host": host})
            .group_by(["k", "host"])  # local distinct before the shuffle
            .aggregate([])
        )
        # hash only the DISTINCT keys (dictionary values), not every row
        dk = pc.dictionary_encode(t.column("k").combine_chunks())
        vals = dk.dictionary.to_pylist()
        hv = np.fromiter(
            (
                int.from_bytes(
                    hashlib.blake2b(v.encode("utf-8"), digest_size=4).digest(), "little"
                )
                & mask
                for v in vals
            ),
            dtype=np.int32,
            count=len(vals),
        )
        shard = hv[dk.indices.to_numpy(zero_copy_only=False)]
        return t.append_column("shard", pa.array(shard, pa.int32()))

    def shard_pairs(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "k" not in group.column_names:
            return EMPTY
        idx = pc.sort_indices(
            group, sort_keys=[("k", "ascending"), ("host", "ascending")]
        )
        g = group.take(idx)
        ks = np.asarray(g.column("k").to_pylist(), dtype=object)
        hs = np.asarray(g.column("host").to_pylist(), dtype=object)
        keep = np.r_[True, (ks[1:] != ks[:-1]) | (hs[1:] != hs[:-1])]
        ks, hs = ks[keep], hs[keep]
        n = len(ks)
        if n == 0:
            return EMPTY
        starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
        lens = np.diff(np.r_[starts, n])
        idx2 = np.arange(n)
        within = idx2 - np.repeat(starts, lens)
        reps = np.repeat(lens, lens) - 1 - within
        total = int(reps.sum())
        if total == 0:
            return EMPTY
        a_idx = np.repeat(idx2, reps)
        offs = np.concatenate(([0], np.cumsum(reps)[:-1]))
        b_idx = np.arange(total) - np.repeat(offs, reps) + a_idx + 1
        t = pa.table(
            {
                "host_a": pa.array(hs[a_idx], pa.string()),
                "host_b": pa.array(hs[b_idx], pa.string()),
            }
        )
        g2 = t.group_by(["host_a", "host_b"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "host_a": g2.column("host_a"),
                "host_b": g2.column("host_b"),
                "n_common": g2.column("count_all").cast(pa.int64()),
            }
        )

    counted = (
        mentions_ds.select_columns(["url", "type", "text"])
        .map_batches(rows, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(
            lambda g: shard_pairs(
                g.drop_columns(["shard"]) if "shard" in g.column_names else g
            ),
            batch_format="pyarrow",
        )
        .groupby(["host_a", "host_b"])
        .aggregate(Sum("n_common", alias_name="n_common"))
    )
    return counted.filter(expr=f"n_common >= {int(min_common)}")


_URL_FULL = (
    r"^(?i)(?P<scheme>[a-z][a-z0-9+.-]*)://(?P<host>[^/?#]+?)(?P<port>:\d+)?"
    r"(?P<path>/[^?#]*)?(?:\?(?P<query>[^#]*))?(?:#.*)?$"
)
_DEFAULT_PORTS = {"http": ":80", "https": ":443"}


def canonical_url(urls: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Full crawl-frontier URL canonicalization, stricter than
    :func:`normalize_url` and still fully vectorized: lowercase scheme +
    host, strip the default port (:80 for http, :443 for https), drop the
    fragment, strip tracking parameters (utm_*/fbclid/gclid), and SORT the
    surviving query parameters byte-ascending (``?b=2&a=1`` ==
    ``?a=1&b=2`` — the classic frontier-dedup rule).  Empty path
    normalizes to ``/``.  Urls without a scheme://authority prefix
    canonicalize to ''.

    Param sorting without a per-row Python loop: split the query into a
    ListArray, flatten to (parent, param) rows, ONE table sort by
    (parent, param), rebuild the ListArray on the original offsets, and
    ``binary_join`` back — every step an Arrow kernel."""
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    ex = pc.extract_regex(urls, pattern=_URL_FULL)
    scheme = pc.utf8_lower(pc.fill_null(pc.struct_field(ex, "scheme"), ""))
    host = pc.utf8_lower(pc.fill_null(pc.struct_field(ex, "host"), ""))
    port = pc.fill_null(pc.struct_field(ex, "port"), "")
    path = pc.fill_null(pc.struct_field(ex, "path"), "")
    query = pc.fill_null(pc.struct_field(ex, "query"), "")

    # default-port strip (scheme-conditional)
    for sch, dport in _DEFAULT_PORTS.items():
        hit = pc.and_(pc.equal(scheme, sch), pc.equal(port, dport))
        port = pc.if_else(hit, pa.scalar("", pa.string()), port)

    path = pc.if_else(pc.equal(path, ""), pa.scalar("/", pa.string()), path)

    # tracking-param strip, then sort surviving params within each url
    query = pc.replace_substring_regex(query, pattern=_TRACKING, replacement="")
    parts = pc.split_pattern(query, pattern="&")
    flat = pc.list_flatten(parts)
    n_per = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
    import numpy as np

    parent = np.repeat(np.arange(len(n_per), dtype=np.int64), n_per)
    # drop empty params ("a=1&&b=2", leading/trailing "&", and what the
    # tracking strip leaves) before the sort, so the join needs no cleanup
    keep = pc.not_equal(flat, "")
    flat = flat.filter(keep)
    parent = parent[keep.to_numpy(zero_copy_only=False)]
    n_per = np.bincount(parent, minlength=len(n_per))
    if len(flat):
        order_tbl = pa.table(
            {"parent": pa.array(parent, pa.int64()), "param": flat}
        )
        idx = pc.sort_indices(
            order_tbl,
            sort_keys=[("parent", "ascending"), ("param", "ascending")],
        )
        sorted_flat = flat.take(idx)
    else:
        sorted_flat = flat
    offsets = np.zeros(len(n_per) + 1, dtype=np.int32)
    np.cumsum(n_per, out=offsets[1:])
    sorted_lists = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()), sorted_flat
    )
    joined = pc.binary_join(sorted_lists, "&")
    qmark = pc.if_else(
        pc.equal(joined, ""), pa.scalar("", pa.string()),
        pc.binary_join_element_wise(pa.scalar("?", pa.string()), joined, ""),
    )
    out = pc.binary_join_element_wise(
        scheme, "://", host, port, path, qmark, ""
    )
    res = pc.if_else(pc.equal(host, ""), pa.scalar("", pa.string()), out)
    return res.combine_chunks() if isinstance(res, pa.ChunkedArray) else res


def url_dedup(pages_ds):
    """One page per CANONICAL url: canonicalize (``canonical_url``), then
    the earliest crawl wins (warc_ts asc, url asc tie-break) — the crawl
    frontier's first-seen rule.  Same winner-per-group shape as
    :func:`latest_crawl` (per-batch combiner -> one groupby), no joins.
    Emits ``(canon, url, warc_ts)``."""

    def candidates(batch: pa.Table) -> pa.Table:
        cols = {
            "canon": pa.array([], pa.string()),
            "url": pa.array([], pa.string()),
            "warc_ts": pa.array([], pa.timestamp("us")),
        }
        if batch.num_rows == 0 or "url" not in batch.column_names:
            return pa.table(cols)
        t = pa.table(
            {
                "canon": canonical_url(batch.column("url")),
                "url": batch.column("url"),
                "warc_ts": batch.column("warc_ts").cast(pa.timestamp("us")),
            }
        )
        t = t.filter(pc.not_equal(t.column("canon"), ""))
        # batch-local winner per canon (the combiner)
        idx = pc.sort_indices(
            t,
            sort_keys=[
                ("canon", "ascending"),
                ("warc_ts", "ascending"),
                ("url", "ascending"),
            ],
        )
        g = t.take(idx)
        import numpy as np

        c = np.asarray(g.column("canon").to_pylist(), dtype=object)
        first = np.r_[True, c[1:] != c[:-1]] if len(c) else np.array([], bool)
        return g.filter(pa.array(first))

    def winner(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "canon" not in group.column_names:
            return pa.table(
                {
                    "canon": pa.array([], pa.string()),
                    "url": pa.array([], pa.string()),
                    "warc_ts": pa.array([], pa.timestamp("us")),
                }
            )
        idx = pc.sort_indices(
            group,
            sort_keys=[
                ("canon", "ascending"),
                ("warc_ts", "ascending"),
                ("url", "ascending"),
            ],
        )
        g = group.take(idx)
        import numpy as np

        c = np.asarray(g.column("canon").to_pylist(), dtype=object)
        first = np.r_[True, c[1:] != c[:-1]] if len(c) else np.array([], bool)
        return g.filter(pa.array(first))

    return (
        pages_ds.select_columns(["url", "warc_ts"])
        .map_batches(candidates, batch_format="pyarrow")
        .groupby("canon")
        .map_groups(winner, batch_format="pyarrow")
    )
