"""Benchmark harness.

Default: run the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) under ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default 32) and print ONE JSON line.  Each
timed section runs median-of-N (default 3; ``--repeat N`` /
``GRAFT_BENCH_REPEAT``) because the host has documented hypervisor
CPU-steal bursts that swing single walls 3-5x.

``--scaling``: run the headline KG pipeline twice in FRESH processes at
two parallelism levels (default 4 and 16 CPUs, taskset-pinned) on the
SAME input and report both throughputs + scaling efficiency (the sandbox
evidence protocol for the north_rule's N -> 4N cluster criterion).

``GRAFT_KG_MODES="distributed,join"`` benches run_kg's 100x scale plan
(distributed linking + join rewrites, forced with ``auto_threshold=0``)
instead of the plan the distinct-surface count picks.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time


def _consume(ds) -> int:
    """Stream a Dataset to completion; return row count (no take_all).
    Ops that legitimately return a small driver-side Arrow table (e.g.
    the BPE merge list) count directly."""
    import pyarrow as pa

    if isinstance(ds, pa.Table):
        return ds.num_rows
    n = 0
    for batch in ds.iter_batches(batch_format="pyarrow"):
        n += batch.num_rows
    return n


def _sf_label(sf_dir: str) -> float:
    name = os.path.basename(os.path.normpath(sf_dir))
    try:
        return float(name.replace("sf", ""))
    except ValueError:
        return -1.0


def bench_corpus_dir(sf: float) -> tuple[str, int]:
    n_pages = int(os.environ.get("GRAFT_BENCH_PAGES", "0")) or max(2000, int(200_000 * sf))
    return f"/tmp/graft_bench/pages_{n_pages}", n_pages


def ensure_corpus(sf: float) -> tuple[str, int]:
    from pdf_entity_extraction_ray.sources.corpus import (
        CORPUS_VERSION_MARKER,
        write_corpus,
    )

    base, n_pages = bench_corpus_dir(sf)
    if not (
        os.path.isdir(f"{base}/pages")
        and os.path.isfile(f"{base}/{CORPUS_VERSION_MARKER}")
    ):
        import shutil

        shutil.rmtree(base, ignore_errors=True)
        write_corpus(base, n_pages=n_pages, seed=42, n_per_type=25, write_gold=False)
    return f"{base}/pages", n_pages


def _kg_modes() -> dict:
    """Optional scale-plan override: GRAFT_KG_MODES="distributed,join"
    benches the 100x-relevant plan (distributed linking + shuffle-join
    rewrites) by dropping run_kg's threshold to 0; default lets the
    distinct-surface count decide.  run_kg has no other plan to force."""
    modes = os.environ.get("GRAFT_KG_MODES", "")
    if not modes:
        return {}
    if modes != "distributed,join":
        raise ValueError(f"GRAFT_KG_MODES={modes!r}: only 'distributed,join' can be forced")
    return {"auto_threshold": 0}


def run_headline(num_cpus: int, sf: float) -> dict:
    """Fresh (resume=False) KG pipeline over the bench corpus."""
    import pyarrow.dataset as pads

    from pdf_entity_extraction_ray.pipelines.kg import run_kg

    pages_path, n_pages = ensure_corpus(sf)
    # warm the OS page cache with one untimed read so both scaling legs
    # measure compute + shuffle, not first-disk-read
    import ray.data

    for _ in ray.data.read_parquet(pages_path, columns=["html"]).iter_batches(
        batch_format="pyarrow"
    ):
        pass
    out = f"/tmp/graft_bench/kg_out_{num_cpus}"
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    res = run_kg(pages_path, out, n_buckets=32, resume=False, **_kg_modes())
    wall = time.perf_counter() - t0
    n_triples = pads.dataset(os.path.join(out, "triples"), partitioning="hive").count_rows()
    return {
        "wall_sec": round(wall, 3),
        "n_pages": n_pages,
        "n_triples": n_triples,
        "pages_per_sec": round(n_pages / wall, 1),
        "triples_per_sec": round(n_triples / wall, 1),
        "n_nodes": res["n_nodes"],
        "n_edges": res["n_edges"],
    }


def run_ops(sf_dir: str, repeat: int = 1) -> dict[str, list[float]]:
    """Time the training-data / relational op family on the sf tables;
    each op runs ``repeat`` times (the host has documented hypervisor
    CPU-steal bursts — medians of 3 are comparable across rounds where
    single walls swing 3-5x)."""
    import ray.data

    from pdf_entity_extraction_ray.ops import ann, dedup, relational, text

    def read(table):
        # strip the pandas schema metadata (unhashable in schema-unify —
        # it triggers a 'Failed to hash the schemas' warning per block)
        import pyarrow.parquet as pq

        path = os.path.join(sf_dir, f"{table}.parquet")
        return ray.data.read_parquet(path, schema=pq.read_schema(path).remove_metadata())

    ops = {
        "docs_token_stats": lambda: read("documents").map_batches(
            text.token_stats_batch, batch_format="pyarrow"
        ),
        "docs_fingerprint": lambda: read("documents").map_batches(
            text.fingerprint_batch, batch_format="pyarrow"
        ),
        "docs_exact_dedup": lambda: dedup.exact_dedup(read("documents")),
        "docs_minhash_dedup": lambda: dedup.minhash_lsh_pairs(read("documents"), 0.7),
        "docs_ngram_dedup": lambda: dedup.ngram_jaccard_pairs(read("documents"), 0.7),
        "docs_simhash_dedup": lambda: dedup.simhash_pairs(read("documents"), 3),
        "docs_dup_ngrams": lambda: dedup.duplicate_ngrams(read("documents")),
        "docs_decontam": lambda: __import__(
            "pdf_entity_extraction_ray.ops.decontam", fromlist=["contamination_counts"]
        ).contamination_counts(read("documents"), read("documents").limit(250), n=3),
        "docs_dup_spans": lambda: dedup.duplicated_spans(read("documents")),
        "docs_dup_spans_sa": lambda: __import__(
            "pdf_entity_extraction_ray.ops.suffix", fromlist=["x"]
        ).prefix_doubling_dup_spans(read("documents"), min_len=8),
        "docs_vocab_build": lambda: __import__(
            "pdf_entity_extraction_ray.ops.vocab", fromlist=["vocab_build"]
        ).vocab_build(read("documents")),
        "docs_bpe_train": lambda: __import__(
            "pdf_entity_extraction_ray.ops.bpe", fromlist=["train_bpe"]
        ).train_bpe(read("documents"), n_merges=200, num_shards=8),
        "docs_logreg_train": lambda: __import__(
            "pdf_entity_extraction_ray.ops.logreg", fromlist=["train_logreg"]
        ).train_logreg(read("documents")),
        "docs_lm_train": lambda: __import__(
            "pdf_entity_extraction_ray.ops.ngram_lm", fromlist=["train_ngram_lm"]
        ).train_ngram_lm(read("documents")),
        "docs_pii_redact": lambda: read("documents").map_batches(
            text.redact_pii_batch, batch_format="pyarrow"
        ),
        "emb_knn": lambda: ann.knn_bruteforce(
            read("embeddings"), [0, 1, 2, 3, 4], 10,
            source_path=os.path.join(sf_dir, "embeddings.parquet"),
        ),
        # index dir derived from sf_dir (plus knn_ivf's own dataset
        # fingerprint stamp) so benching another scale factor can never
        # silently probe a stale index from a different corpus
        "emb_knn_ivf": lambda: ann.knn_ivf(
            read("embeddings"), [0, 1, 2, 3, 4], 10,
            index_dir=f"/tmp/graft_ivf_bench_{os.path.basename(os.path.normpath(sf_dir))}",
            source_path=os.path.join(sf_dir, "embeddings.parquet"),
        ),
        "lineitem_agg": lambda: relational.lineitem_agg(read("lineitem")),
        "lineitems_join_shuffle": lambda: relational.lineitems_join_shuffle(
            read("lineitem"), read("orders")
        ),
        "event_sessions": lambda: relational.event_sessions(read("events"), 30),
        "events_funnel": lambda: relational.events_funnel(read("events")),
        "events_user_hll": lambda: __import__(
            "pdf_entity_extraction_ray.ops.sketch", fromlist=["groupwise_hll"]
        ).groupwise_hll(read("events"), "event_type", "user_id"),
        "docs_containment_dedup": lambda: dedup.ngram_containment_pairs(
            read("documents"), 0.8
        ),
        "docs_bm25_search": lambda: __import__(
            "pdf_entity_extraction_ray.ops.bm25", fromlist=["bm25_search"]
        ).bm25_search(
            read("documents"),
            {0: "fast hash join", 1: "window agg stream", 2: "customer order query"},
            10,
        ),
        "docs_keyphrases": lambda: __import__(
            "pdf_entity_extraction_ray.ops.tfidf", fromlist=["keyphrases"]
        ).keyphrases(read("documents"), 5),
        "docs_chunk": lambda: __import__(
            "pdf_entity_extraction_ray.ops.packing", fromlist=["chunk_docs"]
        ).chunk_docs(read("documents"), 32, 8),
        "emb_pca": lambda: __import__(
            "pdf_entity_extraction_ray.ops.pca", fromlist=["pca_project"]
        ).pca_project(read("embeddings"), 4),
        "events_daily_anomaly": lambda: relational.events_daily_anomaly(read("events")),
        "docs_c4_filter": lambda: read("documents").map_batches(
            text.c4_line_filter_batch, batch_format="pyarrow"
        ),
        "docs_winnow_pairs": lambda: dedup.winnow_pairs(read("documents")),
        "docs_length_filter": lambda: text.length_percentile_filter(
            read("documents")
        ),
        "docs_gopher_filter": lambda: read("documents").map_batches(
            text.gopher_filter_batch, batch_format="pyarrow"
        ),
        "docs_blocklist_filter": lambda: read("documents").map_batches(
            text.blocklist_filter_batch, batch_format="pyarrow"
        ),
        "parts_copurchase": lambda: relational.parts_copurchase(read("lineitem")),
        "events_rfm": lambda: relational.events_rfm(read("events")),
        "q5_supplier_volume": lambda: relational.q5_supplier_volume(
            read("lineitem"), read("orders"), read("customer"),
            read("supplier"), read("nation"), read("region"),
        ),
        "emb_knn_ivfpq": lambda: __import__(
            "pdf_entity_extraction_ray.ops.pq", fromlist=["knn_ivfpq"]
        ).knn_ivfpq(
            read("embeddings"), [0, 1, 2, 3, 4], 10, n_probe=8, m=16, n_codes=32,
            index_dir=f"/tmp/graft_ivfpq_bench_{os.path.basename(os.path.normpath(sf_dir))}",
            source_path=os.path.join(sf_dir, "embeddings.parquet"),
        ),
        "q3_shipping_priority": lambda: relational.q3_shipping_priority(
            read("lineitem"), read("orders"), read("customer")
        ),
        "orders_pareto": lambda: relational.customer_pareto(read("orders")),
        "events_median_gap": lambda: relational.events_median_gap(read("events")),
        "events_winsorized": lambda: relational.events_winsorized(read("events")),
        "events_new_users": lambda: relational.events_new_users(read("events")),
        "docs_and_search": lambda: text.and_search(
            read("documents"), ("fast", "hash")
        ),
        "docs_bloom_delta": lambda: dedup.bloom_delta_dedup(
            *dedup.mod3_split(read("documents"))
        ),
        # round-5 first batch
        "q1_pricing_summary": lambda: relational.q1_pricing_summary(
            read("lineitem")
        ),
        "q2_min_price_supplier": lambda: relational.q2_min_price_supplier(
            read("lineitem"), read("part"), read("supplier")
        ),
        "emb_mmr": lambda: __import__(
            "pdf_entity_extraction_ray.ops.ann", fromlist=["mmr_topk"]
        ).mmr_topk(
            read("embeddings"), [0, 1, 2, 3, 4], 10,
            source_path=os.path.join(sf_dir, "embeddings.parquet"),
        ),
        "emb_ivf_recall": lambda: __import__(
            "pdf_entity_extraction_ray.ops.ann", fromlist=["ivf_recall"]
        ).ivf_recall(
            read("embeddings"), [0, 1, 2, 3, 4], 10, n_probe=8,
            index_dir=f"/tmp/graft_ivf_bench_{os.path.basename(os.path.normpath(sf_dir))}",
            source_path=os.path.join(sf_dir, "embeddings.parquet"),
        ),
        "docs_code_detect": lambda: read("documents").map_batches(
            text.code_detect_batch, batch_format="pyarrow"
        ),
        "docs_source_mix": lambda: relational.source_mix(read("documents")),
        "events_burst_rates": lambda: relational.user_burst_rates(
            read("events")
        ),
        "docs_top_tokens_by_lang": lambda: text.top_tokens_by_lang(
            read("documents"), k=10
        ),
    }
    times: dict[str, list[float]] = {}
    for name, make in ops.items():
        walls = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            _consume(make())
            walls.append(round(time.perf_counter() - t0, 3))
        times[name] = walls
    return times


def main() -> None:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf = _sf_label(sf_dir)

    if "--scaling" in sys.argv:
        # fresh process per parallelism level; same input.  The small leg is
        # pinned with taskset so Arrow/parquet internal thread pools can't
        # borrow the other 24 host cores (they ignore ray.init(num_cpus=8),
        # which would inflate the small leg and understate true scaling).
        # corpus sized so per-row compute dominates fixed startup/shuffle
        # latency (throughput scaling is meaningless in the overhead-bound
        # regime; ~30s of single-node framework latency needs ~10min of
        # core-work to amortize to >=0.8); override with GRAFT_BENCH_PAGES
        scale_pages = os.environ.get("GRAFT_BENCH_PAGES") or "1000000"
        # N and 4N; default 4->16: all cores of the 4N leg stay below the
        # single socket's memory-bandwidth saturation point, so the measured
        # ratio reflects the engine, not the box (at 8->32 the 32-leg is
        # partially bandwidth-bound; see BASELINE.md).  Override e.g.
        # GRAFT_SCALE_CPUS=8,32.
        pair = tuple(
            int(x) for x in os.environ.get("GRAFT_SCALE_CPUS", "4,16").split(",")
        )
        results = {}
        for cpus in pair:
            cmd = [sys.executable, __file__, "--headline-child"]
            if shutil.which("taskset"):
                cmd = ["taskset", "-c", f"0-{cpus - 1}"] + cmd
            out = subprocess.run(
                cmd,
                env={
                    **os.environ,
                    "RAY_GRAFT_CPUS": str(cpus),
                    "GRAFT_SF_DIR": sf_dir,
                    "GRAFT_BENCH_PAGES": scale_pages,
                },
                capture_output=True,
                text=True,
                check=True,
            )
            results[cpus] = json.loads(out.stdout.strip().splitlines()[-1])
        small, big = pair
        t_small = results[small]["pages_per_sec"]
        t_big = results[big]["pages_per_sec"]
        efficiency = t_big / ((big / small) * t_small)
        print(
            json.dumps(
                {
                    "metric": "kg_pipeline_scaling",
                    "unit": "pages/sec",
                    "sf": sf,
                    "cpus": list(pair),
                    f"throughput_{small}cpu": t_small,
                    f"throughput_{big}cpu": t_big,
                    f"triples_per_sec_{small}cpu": results[small]["triples_per_sec"],
                    f"triples_per_sec_{big}cpu": results[big]["triples_per_sec"],
                    "scaling_efficiency": round(efficiency, 3),
                    "detail": results,
                }
            )
        )
        return

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    if "--headline-child" in sys.argv:
        result = run_headline(num_cpus, sf)
        print(json.dumps(result))
        ray.shutdown()
        return

    # median-of-N walls (default 3): the host's documented hypervisor
    # CPU-steal bursts swing single walls 3-5x; medians make BENCH_rN
    # comparable across rounds without prose caveats.  Override with
    # --repeat N or GRAFT_BENCH_REPEAT.
    import statistics

    repeat = int(os.environ.get("GRAFT_BENCH_REPEAT", "3"))
    if "--repeat" in sys.argv:
        repeat = int(sys.argv[sys.argv.index("--repeat") + 1])

    headline = None
    headline_walls: list[float] = []
    for _ in range(repeat):
        headline = run_headline(num_cpus, sf)
        headline_walls.append(headline["wall_sec"])
    kg_wall = round(statistics.median(headline_walls), 3)

    op_walls = run_ops(sf_dir, repeat=repeat)

    # graph + web ops over the headline run's artifacts (edges/pages exist)
    import ray.data

    from pdf_entity_extraction_ray.ops.graph_stats import triangle_counts
    from pdf_entity_extraction_ray.ops.web import cap_per_host, host_stats

    pages_path, _ = bench_corpus_dir(sf)
    kg_edges = os.path.join(f"/tmp/graft_bench/kg_out_{num_cpus}", "edges")
    for name, make in {
        "kg_triangles": lambda: triangle_counts(ray.data.read_parquet(kg_edges)),
        "kg_host_stats": lambda: host_stats(
            ray.data.read_parquet(f"{pages_path}/pages")
        ),
        "kg_host_cap": lambda: cap_per_host(
            ray.data.read_parquet(f"{pages_path}/pages"), k=3
        ),
        "kg_url_dedup": lambda: __import__(
            "pdf_entity_extraction_ray.ops.web", fromlist=["url_dedup"]
        ).url_dedup(
            ray.data.read_parquet(
                f"{pages_path}/pages", columns=["url", "warc_ts"]
            )
        ),
        "kg_host_links": lambda: __import__(
            "pdf_entity_extraction_ray.ops.web", fromlist=["host_link_graph"]
        ).host_link_graph(ray.data.read_parquet(f"{pages_path}/pages")),
        "kg_link_pagerank": lambda: __import__(
            "pdf_entity_extraction_ray.ops.web", fromlist=["link_pagerank"]
        ).link_pagerank(ray.data.read_parquet(f"{pages_path}/pages")),
        # minute buckets: the synthetic corpus compresses crawl time
        "kg_trend": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats", fromlist=["mention_trend"]
        ).mention_trend(
            ray.data.read_parquet(
                os.path.join(f"/tmp/graft_bench/kg_out_{num_cpus}", "triples_canonical"),
                columns=["subj_canonical", "url"],
            ),
            ray.data.read_parquet(f"{pages_path}/pages", columns=["url", "warc_ts"]),
            bucket_us=60_000_000,
        ),
        "kg_cards": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats", fromlist=["entity_cards"]
        ).entity_cards(
            ray.data.read_parquet(
                os.path.join(f"/tmp/graft_bench/kg_out_{num_cpus}", "triples_canonical"),
                columns=["subj_canonical", "pred", "url"],
            ),
            ray.data.read_parquet(f"{pages_path}/pages", columns=["url", "warc_ts"]),
        ),
        "kg_dangling": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats", fromlist=["dangling_objects"]
        ).dangling_objects(
            ray.data.read_parquet(
                os.path.join(f"/tmp/graft_bench/kg_out_{num_cpus}", "triples_canonical"),
                columns=["subj_canonical", "obj_canonical"],
            )
        ),
        "kg_conflicts": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats",
            fromlist=["functional_conflicts"],
        ).functional_conflicts(
            ray.data.read_parquet(
                os.path.join(f"/tmp/graft_bench/kg_out_{num_cpus}", "triples_canonical"),
                columns=["subj_canonical", "pred", "obj_canonical"],
            )
        ),
        "kg_assortativity": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats",
            fromlist=["assortativity_moments"],
        ).assortativity_moments(
            ray.data.read_parquet(
                kg_edges, columns=["src_canonical", "dst_canonical"]
            )
        ),
        # round-5 additions
        "kg_degree_gini": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats", fromlist=["degree_gini"]
        ).degree_gini(
            ray.data.read_parquet(
                kg_edges, columns=["src_canonical", "dst_canonical"]
            )
        ),
        "kg_metapath": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats",
            fromlist=["metapath_instances"],
        ).metapath_instances(
            ray.data.read_parquet(
                kg_edges, columns=["src_canonical", "pred", "dst_canonical"]
            ),
            "works_for",
            "located_in",
        ),
        "kg_closeness": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats",
            fromlist=["closeness_sampled"],
        ).closeness_sampled(
            ray.data.read_parquet(
                kg_edges,
                columns=["src_id", "src_canonical", "dst_id", "dst_canonical"],
            ),
            n_sources=8,
            max_depth=32,
        ),
        "kg_validity_intervals": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats",
            fromlist=["validity_intervals"],
        ).validity_intervals(
            ray.data.read_parquet(
                os.path.join(f"/tmp/graft_bench/kg_out_{num_cpus}", "triples_canonical"),
                columns=["subj_canonical", "pred", "obj_canonical", "url"],
            ),
            ray.data.read_parquet(f"{pages_path}/pages", columns=["url", "warc_ts"]),
        ),
        "kg_relative_dates": lambda: __import__(
            "pdf_entity_extraction_ray.ops.text",
            fromlist=["relative_date_mentions"],
        ).relative_date_mentions(
            ray.data.read_parquet(
                f"{pages_path}/pages", columns=["url", "text", "warc_ts", "lang"]
            )
        ),
        "kg_heavy_tokens": lambda: __import__(
            "pdf_entity_extraction_ray.ops.sketch", fromlist=["heavy_tokens"]
        ).heavy_tokens(
            ray.data.read_parquet(f"{pages_path}/pages", columns=["text"]), phi=0.005
        ),
        "kg_boilerplate_strip": lambda: __import__(
            "pdf_entity_extraction_ray.ops.web", fromlist=["strip_boilerplate"]
        ).strip_boilerplate(
            ray.data.read_parquet(f"{pages_path}/pages", columns=["url", "text"])
        ),
        "kg_path_counts": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats", fromlist=["path_counts"]
        ).path_counts(
            ray.data.read_parquet(
                kg_edges, columns=["src_canonical", "pred", "dst_canonical"]
            )
        ),
        "kg_bfs": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats", fromlist=["bfs_depths"]
        ).bfs_depths(
            ray.data.read_parquet(kg_edges),
            sorted(
                r["src_canonical"]
                for r in ray.data.read_parquet(kg_edges, columns=["src_canonical"])
                .take(2048)
            )[:3],
            max_depth=4,
        ),
        "kg_negative_samples": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats", fromlist=["negative_samples"]
        ).negative_samples(
            ray.data.read_parquet(
                kg_edges, columns=["src_canonical", "pred", "dst_canonical"]
            )
        ),
        "kg_rules": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats", fromlist=["rule_support"]
        ).rule_support(
            ray.data.read_parquet(kg_edges, columns=["src_canonical", "pred"])
        ),
        "kg_ppr": lambda: (
            lambda gs, edges: gs.pagerank(
                edges, iterations=20, seeds=gs.smallest_node_ids(edges, 5)
            )
        )(
            __import__(
                "pdf_entity_extraction_ray.ops.graph_stats",
                fromlist=["pagerank", "smallest_node_ids"],
            ),
            ray.data.read_parquet(kg_edges, columns=["src_id", "dst_id"]),
        ),
        "kg_scc": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats", fromlist=["scc_components"]
        ).scc_components(
            ray.data.read_parquet(
                kg_edges,
                columns=["src_id", "dst_id", "src_canonical", "dst_canonical"],
            )
        ),
        "kg_hits": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats", fromlist=["hits"]
        ).hits(
            ray.data.read_parquet(kg_edges, columns=["src_id", "dst_id"]),
            iterations=20,
        ),
        # the bench graph carries degree-2.4k hub entities, so the EXACT
        # wedge set is quadratic by definition (see BASELINE.md's 1M-page
        # finding); bench the documented production configuration — the
        # max_degree celebrity cut — not the out-of-contract exact census
        "kg_resource_alloc": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats",
            fromlist=["resource_allocation"],
        ).resource_allocation(
            ray.data.read_parquet(
                kg_edges, columns=["src_canonical", "dst_canonical"]
            ),
            max_degree=1000,
        ),
        "kg_hyperball": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats", fromlist=["hyperball"]
        ).hyperball(
            ray.data.read_parquet(kg_edges, columns=["src_id", "dst_id"]),
            max_t=4,
        ),
        "kg_truss": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats",
            fromlist=["truss_decomposition"],
        ).truss_decomposition(
            ray.data.read_parquet(kg_edges, columns=["src_id", "dst_id"])
        ),
        "kg_condensation": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats",
            fromlist=["condensation_edges"],
        ).condensation_edges(
            ray.data.read_parquet(
                kg_edges,
                columns=["src_id", "dst_id", "src_canonical", "dst_canonical"],
            )
        ),
        "kg_communities": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats",
            fromlist=["label_propagation"],
        ).label_propagation(
            ray.data.read_parquet(kg_edges, columns=["src_id", "dst_id"]),
            rounds=4,
        ),
        "kg_mis": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats",
            fromlist=["maximal_independent_set"],
        ).maximal_independent_set(
            ray.data.read_parquet(kg_edges, columns=["src_id", "dst_id"])
        ),
        "kg_coloring": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats", fromlist=["greedy_coloring"]
        ).greedy_coloring(
            ray.data.read_parquet(kg_edges, columns=["src_id", "dst_id"])
        ),
        "kg_sssp": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats", fromlist=["sssp_costs"]
        ).sssp_costs(
            ray.data.read_parquet(
                kg_edges,
                columns=["src_id", "dst_id", "src_canonical", "dst_canonical"],
            ),
            sorted(
                r["src_canonical"]
                for r in ray.data.read_parquet(kg_edges, columns=["src_canonical"])
                .take(2048)
            )[:3],
            max_hops=4,
        ),
        "kg_katz": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats", fromlist=["katz_walks"]
        ).katz_walks(
            ray.data.read_parquet(
                kg_edges, columns=["src_canonical", "dst_canonical"]
            ),
            rounds=4,
            beta=8,
        ),
        "kg_motifs": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats", fromlist=["motif_census"]
        ).motif_census(
            ray.data.read_parquet(
                kg_edges, columns=["src_canonical", "dst_canonical"]
            )
        ),
        "kg_diameter": lambda: __import__(
            "pdf_entity_extraction_ray.ops.graph_stats", fromlist=["double_sweep"]
        ).double_sweep(
            ray.data.read_parquet(
                kg_edges,
                columns=["src_id", "dst_id", "src_canonical", "dst_canonical"],
            )
        ),
        "kg_gazetteer": lambda: __import__(
            "pdf_entity_extraction_ray.ops.text", fromlist=["gazetteer_counts"]
        ).gazetteer_counts(
            ray.data.read_parquet(f"{pages_path}/pages", columns=["url", "text"]),
            __import__("__ray_entry__")._GAZETTEER,
        ),
        "kg_snm_pairs": lambda: __import__(
            "pdf_entity_extraction_ray.ops.blocking", fromlist=["snm_pairs"]
        ).snm_pairs(
            ray.data.read_parquet(
                os.path.join(f"/tmp/graft_bench/kg_out_{num_cpus}", "mentions"),
                columns=["type", "text"],
            ),
            window=4,
        ),
        "kg_editdist_pairs": lambda: __import__(
            "pdf_entity_extraction_ray.ops.blocking", fromlist=["editdist1_pairs"]
        ).editdist1_pairs(
            ray.data.read_parquet(
                os.path.join(f"/tmp/graft_bench/kg_out_{num_cpus}", "mentions"),
                columns=["type", "text"],
            )
        ),
        "kg_host_overlap": lambda: __import__(
            "pdf_entity_extraction_ray.ops.web", fromlist=["host_entity_overlap"]
        ).host_entity_overlap(
            ray.data.read_parquet(
                os.path.join(f"/tmp/graft_bench/kg_out_{num_cpus}", "mentions"),
                columns=["url", "type", "text"],
            )
        ),
    }.items():
        walls = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            _consume(make())
            walls.append(round(time.perf_counter() - t0, 3))
        op_walls[name] = walls

    queries: dict[str, float] = {"kg_pipeline": kg_wall}
    queries.update(
        {name: round(statistics.median(walls), 3) for name, walls in op_walls.items()}
    )

    print(
        json.dumps(
            {
                "metric": "kg_pipeline_wall_plus_ops",
                "value": round(sum(queries.values()), 3),
                "unit": "sec",
                "queries": queries,
                "repeat": repeat,
                "query_walls": {"kg_pipeline": headline_walls, **op_walls},
                "sf": sf,
                "num_cpus": num_cpus,
                "pages_per_sec": round(headline["n_pages"] / kg_wall, 1),
                "triples_per_sec": round(headline["n_triples"] / kg_wall, 1),
                "n_pages": headline["n_pages"],
                "n_triples": headline["n_triples"],
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
