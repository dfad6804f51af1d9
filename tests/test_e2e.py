"""End-to-end pipeline tests against the planted gold (the analog of the
reference's labeled-data evaluation, check_performance.py:32-91):

* byte-identical extracted text per url (BASELINE.json input_hint)
* mention / triple P/R >= 0.95 vs gold (north_rule gate; exact match here)
* cluster pairwise agreement with gold alias groups
* per-partition resume correctness
* determinism across parallelism levels
"""

import itertools
import json
import os
import shutil

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray.data

from pdf_entity_extraction_ray.functions.textnorm import surface_norm
from pdf_entity_extraction_ray.pipelines.kg import run_kg

TITLE_TYPES = ("PERSON", "ORG", "GPE")


@pytest.fixture(scope="module")
def kg_result(small_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("kg"))
    res = run_kg(f"{small_corpus}/pages", out, n_buckets=4, concurrency=2)
    return small_corpus, out, res


def _gold_cluster_lookup(corpus_dir):
    gold = pq.read_table(f"{corpus_dir}/gold_clusters")
    lookup = {}
    for cid, typ, aliases in zip(
        gold.column("cluster_id").to_pylist(),
        gold.column("type").to_pylist(),
        gold.column("aliases").to_pylist(),
    ):
        for a in aliases:
            s = a.title() if typ in TITLE_TYPES else a
            lookup[(typ, surface_norm(s))] = cid
    return lookup


def test_extracted_text_byte_identical(small_corpus):
    from pdf_entity_extraction_ray.stages.extract import extract_text_batch

    ds = ray.data.read_parquet(f"{small_corpus}/pages")
    out = pa.concat_tables(
        list(
            ds.map_batches(extract_text_batch, batch_format="pyarrow")
            .select_columns(["url", "text"])
            .iter_batches(batch_format="pyarrow")
        )
    )
    gold = pq.read_table(f"{small_corpus}/pages", columns=["url", "text"])
    gold_text = dict(zip(gold.column("url").to_pylist(), gold.column("text").to_pylist()))
    for url, text in zip(out.column("url").to_pylist(), out.column("text").to_pylist()):
        assert text == gold_text[url], url


def test_mention_pr(kg_result):
    corpus, out, _ = kg_result
    pred = pads.dataset(f"{out}/mentions", partitioning="hive").to_table()
    gold = pq.read_table(f"{corpus}/gold_mentions")
    key = lambda t: set(
        zip(
            t.column("url").to_pylist(),
            t.column("seg_id").to_pylist(),
            t.column("start").to_pylist(),
            t.column("end").to_pylist(),
            t.column("type").to_pylist(),
        )
    )
    g, p = key(gold), key(pred)
    precision = len(g & p) / len(p)
    recall = len(g & p) / len(g)
    assert precision >= 0.95 and recall >= 0.95, (precision, recall)


def test_triple_pr_canonical(kg_result):
    """P/R on canonicalized triples, gold-group membership protocol (J2)."""
    corpus, out, _ = kg_result
    lookup = _gold_cluster_lookup(corpus)

    def to_gold_cluster(typ, name):
        if typ == "DATE":
            return name
        return lookup.get((typ, surface_norm(name)), ("UNK", name))

    pred_tbl = pads.dataset(f"{out}/triples_canonical").to_table()
    pred = set()
    for u, sid, st, p, ot, sc, oc in zip(
        pred_tbl.column("url").to_pylist(),
        pred_tbl.column("seg_id").to_pylist(),
        pred_tbl.column("subj_type").to_pylist(),
        pred_tbl.column("pred").to_pylist(),
        pred_tbl.column("obj_type").to_pylist(),
        pred_tbl.column("subj_canonical").to_pylist(),
        pred_tbl.column("obj_canonical").to_pylist(),
    ):
        pred.add((u, sid, to_gold_cluster(st, sc), p, to_gold_cluster(ot, oc)))

    gold_tbl = pq.read_table(f"{corpus}/gold_triples")
    gold = set()
    for u, sid, st, p, ot, sc, oc in zip(
        gold_tbl.column("url").to_pylist(),
        gold_tbl.column("seg_id").to_pylist(),
        gold_tbl.column("subj_type").to_pylist(),
        gold_tbl.column("pred").to_pylist(),
        gold_tbl.column("obj_type").to_pylist(),
        gold_tbl.column("subj_canonical").to_pylist(),
        gold_tbl.column("obj_canonical").to_pylist(),
    ):
        sc = sc.title() if st in TITLE_TYPES else sc
        oc = oc.title() if ot in TITLE_TYPES else oc
        gold.add((u, sid, to_gold_cluster(st, sc), p, to_gold_cluster(ot, oc)))

    tp = len(pred & gold)
    precision, recall = tp / len(pred), tp / len(gold)
    assert precision >= 0.95 and recall >= 0.95, (precision, recall)


def test_cluster_agreement(kg_result):
    """Pairwise same-cluster agreement between our node assignment and the
    gold alias groups, over observed surfaces."""
    corpus, out, _ = kg_result
    lookup = _gold_cluster_lookup(corpus)
    sm = pq.read_table(f"{out}/surface_map/part-0.parquet")
    ours = {}
    for typ, s, nid in zip(
        sm.column("type").to_pylist(),
        sm.column("surface").to_pylist(),
        sm.column("node_id").to_pylist(),
    ):
        if (typ, surface_norm(s)) in lookup:
            ours[(typ, s)] = nid
    bad = 0
    total = 0
    by_type = {}
    for k in ours:
        by_type.setdefault(k[0], []).append(k)
    for typ, keys in by_type.items():
        for a, b in itertools.combinations(sorted(keys), 2):
            same_gold = lookup[(typ, surface_norm(a[1]))] == lookup[(typ, surface_norm(b[1]))]
            same_ours = ours[a] == ours[b]
            total += 1
            bad += same_gold != same_ours
    assert total > 0
    assert bad / total < 0.01, f"{bad}/{total} disagreeing pairs"


def test_nodes_never_invent_surfaces(kg_result):
    """The LLM-consolidation contract (OllamaNameExtractor.py:19-20):
    representatives come from the observed alias set, never invented.
    DATE nodes are exempt: they canonicalize by parsed ISO value
    (DateParser.py:44-50), which need not be an observed surface."""
    _, out, _ = kg_result
    nodes = pads.dataset(f"{out}/nodes").to_table()
    for canon, typ, aliases in zip(
        nodes.column("canonical").to_pylist(),
        nodes.column("type").to_pylist(),
        nodes.column("aliases").to_pylist(),
    ):
        if typ != "DATE":
            assert canon in aliases


def test_annotations_file_count_bounded(small_corpus, tmp_path):
    """The bucket clustering before the explode tasks (kg.py:
    sort("bucket"), chosen over HASH_SHUFFLE repartition — see the A/B in
    BASELINE.md) must keep each hive table at ~one file per bucket; without
    it every task writes a file per bucket it touches (blocks x buckets
    tiny files, measured to poison every downstream read).  Six blocks, so
    a missing sort shows: 4 files a table with it, 32 without."""
    n_buckets = 4
    run_kg(f"{small_corpus}/pages", str(tmp_path), n_buckets=n_buckets, concurrency=2,
           override_num_blocks=6)
    for table in ("mentions", "triples"):
        n_files = sum(
            1
            for _root, _dirs, files in os.walk(f"{tmp_path}/{table}")
            for f in files
            if f.endswith(".parquet")
        )
        assert 0 < n_files <= 2 * n_buckets, table


def test_edges_reference_existing_nodes(kg_result):
    """Referential integrity: every edge endpoint (src_id, dst_id) has a
    nodes row — including DATE objects of born_on edges."""
    _, out, _ = kg_result
    node_ids = set(pads.dataset(f"{out}/nodes").to_table().column("node_id").to_pylist())
    edges = pads.dataset(f"{out}/edges").to_table()
    endpoints = set(edges.column("src_id").to_pylist()) | set(edges.column("dst_id").to_pylist())
    assert endpoints <= node_ids, f"{len(endpoints - node_ids)} dangling endpoints"


def test_pagerank_ppm_matches_reference_formulation(kg_result):
    """The kg_pagerank oracle contract: engine BSP PageRank scaled to
    integer ppm must equal the single-process reference formulation
    (sources/corpus.pagerank_reference — the same code that writes
    gold_pagerank) over the SAME edge set.  Cross-engine float noise is
    ~1e-15 vs the 1e-6 ppm grid, so the rounded values are hash-stable.

    The gold_pagerank TABLE is derived from the gold alias clusters; it
    coincides with the engine edges wherever kg_edges is oracle-exact
    (the sf0.01 driver gate) — at this tiny 200-page corpus the engine's
    similarity-based linking legitimately misses one typo-alias merge, so
    the table itself isn't row-comparable here (the thresholded P/R tests
    above cover that); the ppm contract is what this test pins."""
    import numpy as np

    from pdf_entity_extraction_ray.ops.graph_stats import pagerank
    from pdf_entity_extraction_ray.sources.corpus import pagerank_reference

    corpus, out, _ = kg_result
    edges = pq.read_table(f"{out}/edges", columns=["src_id", "dst_id"])
    pr = pa.concat_tables(
        list(
            pagerank(
                ray.data.read_parquet(f"{out}/edges", columns=["src_id", "dst_id"]),
                iterations=20,
            ).iter_batches(batch_format="pyarrow")
        )
    )
    got = {
        int(n): int(np.round(r * 1e6))
        for n, r in zip(pr.column("node").to_pylist(), pr.column("rank").to_pylist())
    }
    nodes, ranks = pagerank_reference(
        list(zip(edges.column("src_id").to_pylist(), edges.column("dst_id").to_pylist()))
    )
    expected = {int(n): int(np.round(r * 1e6)) for n, r in zip(nodes, ranks)}
    assert got == expected and expected

    # the gold table exists with the oracle schema (sf0.01 row-parity is
    # the driver gate's job, via the hash-exact kg_edges derivation)
    gold = pq.read_table(f"{corpus}/gold_pagerank")
    assert gold.column_names == ["node", "rank_ppm"] and gold.num_rows > 0


def _mention_and_triple_keys(out):
    def key(table, cols):
        t = pads.dataset(f"{out}/{table}", partitioning="hive").to_table()
        return sorted(zip(*(t.column(c).to_pylist() for c in cols)))

    return (
        key("mentions", ["mention_id", "url"]),
        key("triples", ["url", "seg_id", "subj", "pred", "obj", "evidence_start"]),
    )


def test_resume_recomputes_only_missing_bucket(kg_result):
    """A generation is done only when the annotations manifest records it,
    so the generation is the resume grain: with the manifest lost and a
    bucket dir deleted (a crash mid-write), the rerun redoes the one
    generation, writes the missing bucket again, and loses and duplicates
    no row."""
    corpus, out, _ = kg_result
    before = _mention_and_triple_keys(out)
    os.remove(f"{out}/_lineage/annotations.json")
    shutil.rmtree(f"{out}/mentions/g0/bucket=1")
    run_kg(f"{corpus}/pages", out, n_buckets=4, concurrency=2)
    manifest = json.load(open(f"{out}/_lineage/annotations.json"))
    assert sorted(manifest["generations"]) == ["g0"]
    assert os.path.isdir(f"{out}/mentions/g0/bucket=1")
    after = _mention_and_triple_keys(out)
    assert manifest["rows"] == len(after[0]) and manifest["triple_rows"] == len(after[1])
    assert after == before


def test_resume_discards_partial_and_stale_buckets(kg_result):
    """Bucket files no recorded generation owns must be discarded, not
    silently trusted: a stray file in a bucket dir (a block split the
    rerun will not repeat) and a generation whose manifest carries a stale
    fingerprint (an older config).  The rerun sweeps both and rebuilds,
    and appends no duplicate row."""
    corpus, out, _ = kg_result
    before = _mention_and_triple_keys(out)
    path = f"{out}/_lineage/annotations.json"
    manifest = json.load(open(path))
    fp = manifest["fingerprint"]
    with open(path, "w") as f:
        json.dump({**manifest, "fingerprint": "stale-fingerprint"}, f)
    bucket_dir = f"{out}/mentions/g0/bucket=2"
    stray = os.path.join(bucket_dir, "0123456789abcdef-0.parquet")
    shutil.copy(os.path.join(bucket_dir, sorted(os.listdir(bucket_dir))[0]), stray)
    run_kg(f"{corpus}/pages", out, n_buckets=4, concurrency=2)
    manifest = json.load(open(path))
    assert manifest["fingerprint"] == fp and sorted(manifest["generations"]) == ["g0"]
    assert not os.path.exists(stray)
    after = _mention_and_triple_keys(out)
    assert manifest["rows"] == len(after[0]) and manifest["triple_rows"] == len(after[1])
    assert after == before  # no loss, no duplication


def test_determinism_across_parallelism(small_corpus, tmp_path_factory):
    """Same input, different parallelism/buckets -> identical logical output."""
    out1 = str(tmp_path_factory.mktemp("kg_p1"))
    out2 = str(tmp_path_factory.mktemp("kg_p2"))
    run_kg(f"{small_corpus}/pages", out1, n_buckets=2, concurrency=2, batch_size=32,
           override_num_blocks=2)
    run_kg(f"{small_corpus}/pages", out2, n_buckets=4, concurrency=3, batch_size=128,
           override_num_blocks=7)

    def edge_key(out):
        t = pads.dataset(f"{out}/edges").to_table()
        return sorted(
            zip(
                t.column("src_id").to_pylist(),
                t.column("pred").to_pylist(),
                t.column("dst_id").to_pylist(),
                t.column("weight").to_pylist(),
            )
        )

    assert edge_key(out1) == edge_key(out2)

    def node_key(out):
        t = pads.dataset(f"{out}/nodes").to_table()
        return sorted(
            zip(t.column("node_id").to_pylist(), t.column("canonical").to_pylist(),
                t.column("n_mentions").to_pylist())
        )

    assert node_key(out1) == node_key(out2)


def test_pipeline_distributed_linking_identical(kg_result, tmp_path_factory):
    """run_kg(auto_threshold=0) — the fully driverless scale plan (BSP
    components + shuffle-join rewrites, the surface map never on the
    driver) — must produce the same graph as the default union-find +
    broadcast plan."""
    corpus, out_driver, _ = kg_result
    out2 = str(tmp_path_factory.mktemp("kg_dist"))
    res = run_kg(f"{corpus}/pages", out2, n_buckets=4, concurrency=2, auto_threshold=0)
    assert (res["resolved_linking_mode"], res["resolved_rewrite_mode"]) == ("distributed", "join")

    def table_key(out, name, cols):
        t = pads.dataset(f"{out}/{name}", partitioning="hive").to_table()
        return sorted(zip(*[t.column(c).to_pylist() for c in cols]))

    for name, cols in [
        ("nodes", ["node_id", "canonical", "type", "n_mentions", "aliases"]),
        ("edges", ["src_id", "pred", "dst_id", "weight"]),
        ("triples_canonical",
         ["url", "seg_id", "src_id", "pred", "dst_id", "subj_canonical", "obj_canonical"]),
    ]:
        assert table_key(out_driver, name, cols) == table_key(out2, name, cols), name


def test_pipeline_correct_at_other_seed(tmp_path_factory):
    """Generator + tagger + linking coupling holds at a different seed and
    catalog size (guards against seed-42-specific luck)."""
    from pdf_entity_extraction_ray.sources.corpus import (
        cached_catalog,
        catalog_gazetteer,
        write_corpus,
    )

    corpus = str(tmp_path_factory.mktemp("corpus7"))
    write_corpus(corpus, n_pages=100, seed=7, n_per_type=40)
    out = str(tmp_path_factory.mktemp("kg7"))
    run_kg(
        f"{corpus}/pages", out, seed=7, n_per_type=40, n_buckets=2, concurrency=2,
        gazetteer=catalog_gazetteer(cached_catalog(7, 40)),
    )

    pred = pads.dataset(f"{out}/mentions", partitioning="hive").to_table()
    gold = pq.read_table(f"{corpus}/gold_mentions")
    key = lambda t: set(
        zip(
            t.column("url").to_pylist(),
            t.column("seg_id").to_pylist(),
            t.column("start").to_pylist(),
            t.column("end").to_pylist(),
            t.column("type").to_pylist(),
        )
    )
    g, p = key(gold), key(pred)
    assert len(g & p) / len(p) >= 0.95 and len(g & p) / len(g) >= 0.95

    lookup = _gold_cluster_lookup(corpus)
    sm = pq.read_table(f"{out}/surface_map/part-0.parquet")
    ours = {}
    for typ, s, nid in zip(
        sm.column("type").to_pylist(),
        sm.column("surface").to_pylist(),
        sm.column("node_id").to_pylist(),
    ):
        if (typ, surface_norm(s)) in lookup:
            ours[(typ, s)] = nid
    bad = total = 0
    by_type = {}
    for k in ours:
        by_type.setdefault(k[0], []).append(k)
    for typ, keys in by_type.items():
        for a, b in itertools.combinations(sorted(keys), 2):
            same_gold = lookup[(typ, surface_norm(a[1]))] == lookup[(typ, surface_norm(b[1]))]
            total += 1
            bad += same_gold != (ours[a] == ours[b])
    assert total > 0 and bad / total < 0.01, f"{bad}/{total}"


def test_tagger_resource_passthrough(small_corpus, tmp_path_factory):
    """tagger_ray_remote_args reaches the tagging tasks (e.g. num_gpus for
    a real transformer tagger) and changes placement only — outputs stay
    identical to the default run."""
    out1 = str(tmp_path_factory.mktemp("kg_res1"))
    out2 = str(tmp_path_factory.mktemp("kg_res2"))
    run_kg(f"{small_corpus}/pages", out1, n_buckets=2, concurrency=2)
    run_kg(
        f"{small_corpus}/pages",
        out2,
        n_buckets=2,
        concurrency=2,
        tagger_ray_remote_args={"num_cpus": 1, "memory": 256 * 1024 * 1024},
    )

    def node_key(out):
        t = pads.dataset(f"{out}/nodes").to_table()
        return sorted(
            zip(t.column("node_id").to_pylist(), t.column("canonical").to_pylist())
        )

    assert node_key(out1) == node_key(out2)
