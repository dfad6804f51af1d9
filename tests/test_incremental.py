"""Incremental corpus appends (the Common-Crawl cadence: each snapshot
lands as new Parquet files next to the old ones).

Contract: re-running ``run_kg`` after an append must (a) re-tag ONLY the
new files — the per-page phases absorb the delta as a new generation,
byte-untouched prior generations — and (b) produce exactly the graph a
from-scratch run over the full corpus produces.  An in-place mutation of
a consumed file breaks the append-only assumption and forces a full
rebuild.  Generalizes the reference's per-document skip-if-cached
(src/cache_data.py:15-16) to whole-corpus delta processing.
"""

import json
import os
import shutil

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from pdf_entity_extraction_ray.pipelines.kg import run_kg
from pdf_entity_extraction_ray.state import lineage


# ----------------------------------------------------------------- unit


def test_input_snapshot_file_and_dir(tmp_path):
    d = tmp_path / "pages"
    d.mkdir()
    (d / "a.parquet").write_bytes(b"x" * 10)
    (d / "b.parquet").write_bytes(b"y" * 20)
    (d / "_marker").write_bytes(b"ignored")  # non-parquet ignored
    sub = d / "sub"
    sub.mkdir()
    (sub / "c.parquet").write_bytes(b"z" * 5)
    snap = lineage.input_snapshot(str(d))
    assert snap == [["a.parquet", 10], ["b.parquet", 20], [os.path.join("sub", "c.parquet"), 5]]
    assert lineage.input_snapshot(str(d / "a.parquet")) == [["a.parquet", 10]]


def test_snapshot_delta_append_same_changed():
    gens = {"g0": {"files": [["a.parquet", 10], ["b.parquet", 20]], "tag": "t0"}}
    same = [["a.parquet", 10], ["b.parquet", 20]]
    assert lineage.snapshot_delta(gens, same) == []
    grown = same + [["c.parquet", 7]]
    assert lineage.snapshot_delta(gens, grown) == [["c.parquet", 7]]
    resized = [["a.parquet", 11], ["b.parquet", 20]]
    assert lineage.snapshot_delta(gens, resized) == "changed"
    removed = [["a.parquet", 10]]
    assert lineage.snapshot_delta(gens, removed) == "changed"
    # multi-generation union is the comparison base
    gens2 = dict(gens, g1={"files": [["c.parquet", 7]], "tag": "t1"})
    assert lineage.snapshot_delta(gens2, grown) == []


# ------------------------------------------------------------------ e2e


def _relpaths_mtimes(root):
    out = {}
    for dp, _dirs, files in os.walk(root):
        for f in files:
            p = os.path.join(dp, f)
            out[os.path.relpath(p, root)] = os.path.getmtime(p)
    return out


def _sorted_table(out, name):
    """A whole output table, rows sorted by every non-list column."""
    t = pads.dataset(f"{out}/{name}", partitioning="hive").to_table()
    return t.sort_by([(f.name, "ascending") for f in t.schema if not pa.types.is_list(f.type)])


def _rows(path):
    return pads.dataset(path, partitioning="hive").count_rows()


def _assert_manifest_rows(out, gen=None):
    """The annotations manifest's ``rows`` and ``triple_rows`` count the
    mention and triple rows its last call wrote: generation ``gen`` of
    each table, or the whole table.  No manifest keeps per-bucket row
    counts, and only the three phases keep one."""
    manifest = lineage.load_manifest(out, "annotations")
    for table, field in (("mentions", "rows"), ("triples", "triple_rows")):
        path = f"{out}/{table}" if gen is None else f"{out}/{table}/{gen}"
        assert manifest[field] == _rows(path) > 0, table
    assert sorted(os.listdir(f"{out}/_lineage")) == [
        "annotations.json", "graph.json", "linking.json"
    ]
    for name in os.listdir(f"{out}/_lineage"):
        assert "bucket_rows" not in json.load(open(f"{out}/_lineage/{name}")), name


def _gen_files(out, gen):
    """Every table and partial file of generation ``gen``, with its mtime."""
    roots = ("mentions", "triples", "graph_partials/mentions", "graph_partials/triples")
    return {
        f"{root}/{rel}": mtime
        for root in roots
        for rel, mtime in _relpaths_mtimes(f"{out}/{root}/{gen}").items()
    }


def _table_key(out, name, cols):
    t = pads.dataset(f"{out}/{name}", partitioning="hive").to_table()
    return sorted(zip(*[t.column(c).to_pylist() for c in cols]))


def test_incremental_append_tags_only_new_pages(small_corpus, tmp_path_factory):
    base = str(tmp_path_factory.mktemp("incr"))
    pages_full = f"{small_corpus}/pages"
    out_full = os.path.join(base, "out_full")
    run_kg(pages_full, out_full, n_buckets=4, concurrency=2)
    files = sorted(f for f in os.listdir(pages_full) if f.endswith(".parquet"))
    assert len(files) >= 2, "corpus fixture must write multiple page files"
    k = max(1, len(files) // 2)
    grow = os.path.join(base, "pages")
    os.makedirs(grow)
    for f in files[:k]:
        shutil.copyfile(os.path.join(pages_full, f), os.path.join(grow, f))

    out = os.path.join(base, "out")
    run_kg(grow, out, n_buckets=4, concurrency=2)
    man1 = json.load(open(f"{out}/_lineage/annotations.json"))
    assert sorted(man1["generations"]) == ["g0"]
    _assert_manifest_rows(out)
    assert not os.path.exists(f"{out}/annotations")
    before = _gen_files(out, "g0")
    assert before, "g0 must hold the first batch's rows"

    # the append: new files land next to the old ones
    for f in files[k:]:
        shutil.copyfile(os.path.join(pages_full, f), os.path.join(grow, f))
    res = run_kg(grow, out, n_buckets=4, concurrency=2)
    man2 = json.load(open(f"{out}/_lineage/annotations.json"))
    assert sorted(man2["generations"]) == ["g0", "g1"]
    assert sorted(r for r, _ in man2["generations"]["g1"]["files"]) == sorted(files[k:])
    # the first generation was not re-tagged: every file byte-untouched
    assert _gen_files(out, "g0") == before
    # every table and partials dir holds one dir per generation
    for root in ("mentions", "triples", "graph_partials/mentions", "graph_partials/triples"):
        assert sorted(os.listdir(f"{out}/{root}")) == ["g0", "g1"], root
    _assert_manifest_rows(out, "g1")

    # every output, every column == the from-scratch full-corpus run
    for name in ("surface_map", "nodes", "edges", "triples_canonical", "mentions", "triples"):
        got, want = _sorted_table(out, name), _sorted_table(out_full, name)
        assert got.num_rows and got.equals(want), name
    assert res["n_nodes"] > 0

    # idempotent third run: nothing recomputed, no third generation
    man_before = json.load(open(f"{out}/_lineage/annotations.json"))
    run_kg(grow, out, n_buckets=4, concurrency=2)
    assert json.load(open(f"{out}/_lineage/annotations.json")) == man_before


def test_unattributable_dirs_swept_on_resume(small_corpus, tmp_path_factory):
    """Pre-generation-layout bucket dirs (older code versions) and stray
    content under a lost manifest must be dropped, not double-counted —
    the migration bug class: a legacy ``mentions/bucket=N`` next to the
    new ``g0`` would silently double every downstream row."""
    base = str(tmp_path_factory.mktemp("sweep"))
    pages = f"{small_corpus}/pages"
    out = os.path.join(base, "out")
    run_kg(pages, out, n_buckets=4, concurrency=2)
    want = _table_key(out, "mentions", ["url", "seg_id", "text", "type", "start", "end"])

    # plant a legacy-layout orphan holding real rows, then lose the manifest
    legacy = f"{out}/mentions/bucket=7"
    os.makedirs(legacy)
    src = next(
        os.path.join(dp, f)
        for dp, _d, fs in os.walk(f"{out}/mentions/g0")
        for f in fs
        if f.endswith(".parquet")
    )
    shutil.copyfile(src, os.path.join(legacy, "data.parquet"))
    os.remove(f"{out}/_lineage/annotations.json")

    run_kg(pages, out, n_buckets=4, concurrency=2)
    assert not os.path.exists(legacy)
    got = _table_key(out, "mentions", ["url", "seg_id", "text", "type", "start", "end"])
    assert got == want  # no duplication, no loss


def test_inplace_mutation_forces_full_rebuild(small_corpus, tmp_path_factory):
    """Resizing an already-consumed file breaks append-only -> the phase
    rebuilds from scratch (one fresh g0 over the whole current input)."""
    base = str(tmp_path_factory.mktemp("mut"))
    pages_full = f"{small_corpus}/pages"
    files = sorted(f for f in os.listdir(pages_full) if f.endswith(".parquet"))
    grow = os.path.join(base, "pages")
    os.makedirs(grow)
    for f in files:
        shutil.copyfile(os.path.join(pages_full, f), os.path.join(grow, f))
    out = os.path.join(base, "out")
    run_kg(grow, out, n_buckets=4, concurrency=2)

    # shrink one consumed file (still valid parquet, different size)
    victim = os.path.join(grow, files[0])
    t = pq.read_table(victim)
    pq.write_table(t.slice(0, max(1, t.num_rows // 2)), victim)
    assert lineage.input_snapshot(grow) != json.load(
        open(f"{out}/_lineage/annotations.json")
    )["generations"]["g0"]["files"]

    run_kg(grow, out, n_buckets=4, concurrency=2)
    man = json.load(open(f"{out}/_lineage/annotations.json"))
    assert sorted(man["generations"]) == ["g0"]
    assert man["generations"]["g0"]["files"] == lineage.input_snapshot(grow)
    # the rows reflect the shrunken corpus, not a stale or doubled one
    pages = set(pads.dataset(grow).to_table(columns=["url"]).column("url").to_pylist())
    mentions = pads.dataset(f"{out}/mentions", partitioning="hive").to_table(
        columns=["url", "mention_id"]
    )
    assert mentions.num_rows and set(mentions.column("url").to_pylist()) <= pages
    assert len(set(mentions.column("mention_id").to_pylist())) == mentions.num_rows == man["rows"]


def test_rebuild_invalidates_manifests_before_destroying_artifacts(
    small_corpus, tmp_path_factory, monkeypatch
):
    """Crash-durability invariant (round-4 review): the linking and graph
    manifests must be gone BEFORE their artifacts are deleted, so a crash
    mid-rebuild can never leave a complete-looking manifest over partial
    or missing output."""
    import shutil as _shutil

    out = str(tmp_path_factory.mktemp("kg_inv"))
    pages = os.path.join(small_corpus, "pages")
    run_kg(pages, out, n_buckets=4)  # complete run, manifests present
    assert lineage.load_manifest(out, "graph") is not None
    assert lineage.load_manifest(out, "linking") is not None

    seen = []
    real_rmtree = _shutil.rmtree

    def spy_rmtree(path, *a, **kw):
        name = os.path.basename(str(path).rstrip("/"))
        if name in ("nodes", "edges", "triples_canonical"):
            seen.append(("graph", lineage.load_manifest(out, "graph") is None))
        if name == "surface_map":
            seen.append(("linking", lineage.load_manifest(out, "linking") is None))
        return real_rmtree(path, *a, **kw)

    monkeypatch.setattr(_shutil, "rmtree", spy_rmtree)
    run_kg(pages, out, n_buckets=4, resume=False)
    graph_obs = [ok for ph, ok in seen if ph == "graph"]
    link_obs = [ok for ph, ok in seen if ph == "linking"]
    assert graph_obs and all(graph_obs), "graph manifest must go before rmtree"
    assert link_obs and all(link_obs), "linking manifest must go before rmtree"


def test_empty_pages_dir_raises_cleanly(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("kg_empty_out"))
    empty = str(tmp_path_factory.mktemp("kg_empty_pages"))
    import pytest as _pytest

    with _pytest.raises(ValueError, match="no parquet input"):
        run_kg(empty, out, n_buckets=4)


def test_graph_rebuild_runs_the_plan_linking_recorded(small_corpus, tmp_path_factory):
    """The plan is chosen once, where linking runs, and the linking
    manifest records it with the count and threshold that chose it.  A
    graph rebuild over reused linking runs and reports that plan, even when
    the new threshold would pick the other one."""
    from pdf_entity_extraction_ray.pipelines.kg import AUTO_DISTRIBUTED_THRESHOLD

    pages = f"{small_corpus}/pages"
    out = str(tmp_path_factory.mktemp("plan_out"))
    run_kg(pages, out, n_buckets=4, concurrency=2)
    link = lineage.load_manifest(out, "linking")
    assert link["plan"] == ["driver", "broadcast"]
    assert link["auto_threshold"] == AUTO_DISTRIBUTED_THRESHOLD
    assert 0 < link["rows"] <= link["n_distinct"] <= AUTO_DISTRIBUTED_THRESHOLD

    os.remove(f"{out}/_lineage/graph.json")
    res = run_kg(pages, out, n_buckets=4, concurrency=2, resume=True, auto_threshold=0)
    assert lineage.load_manifest(out, "linking") == link
    assert lineage.load_manifest(out, "graph") is not None
    assert (res["resolved_linking_mode"], res["resolved_rewrite_mode"]) == ("driver", "broadcast")

    clean = str(tmp_path_factory.mktemp("plan_clean"))
    run_kg(pages, clean, n_buckets=4, concurrency=2)
    for name in ("nodes", "edges", "triples_canonical"):
        got, want = _sorted_table(out, name), _sorted_table(clean, name)
        assert got.num_rows and got.equals(want), name


# ------------------------------------------------- delta-incremental linking


@pytest.fixture(scope="module")
def tail_parts(tmp_path_factory):
    """A long-tail corpus (every page plants its own ORG cluster, so each
    append brings new linked surfaces) in three page files: a base and two
    appends."""
    from pdf_entity_extraction_ray.sources.corpus import pages_batch

    d = tmp_path_factory.mktemp("tail_parts")
    paths = []
    for i, (lo, hi) in enumerate(((0, 120), (120, 160), (160, 200))):
        table, _m, _t = pages_batch(list(range(lo, hi)), 42, 25, 200, 1)
        paths.append(str(d / f"part-{i}.parquet"))
        pq.write_table(table, paths[-1])
    return paths


def _tail_kwargs(**kw):
    from pdf_entity_extraction_ray.sources.corpus import TAIL_PATTERN, TAIL_TYPE

    return {"n_buckets": 4, "concurrency": 2, "extra_patterns": [(TAIL_PATTERN, TAIL_TYPE)], **kw}


@pytest.fixture(scope="module")
def tail_full(tail_parts, tmp_path_factory):
    """A from-scratch build over all three page files."""
    base = tmp_path_factory.mktemp("tail_full")
    pages = base / "pages"
    pages.mkdir()
    for p in tail_parts:
        shutil.copy(p, pages)
    out = str(base / "out")
    run_kg(str(pages), out, **_tail_kwargs())
    return out


def _grow(pages, part):
    os.makedirs(pages, exist_ok=True)
    shutil.copy(part, pages)


def _new_linked_surfaces(out, gen):
    """Linked (type, surface) pairs of mentions generation ``gen`` that no
    earlier generation holds, read from the mentions table."""
    from pdf_entity_extraction_ray.stages.linking import LINKED_TYPES

    def keys(g):
        t = pads.dataset(f"{out}/mentions/{g}", partitioning="hive").to_table(
            columns=["type", "surface"]
        )
        return {(ty, s) for ty, s in zip(*(t.column(c).to_pylist() for c in ("type", "surface")))
                if ty in LINKED_TYPES}

    earlier = set().union(*(keys(f"g{k}") for k in range(int(gen[1:]))))
    return keys(gen) - earlier, earlier


def _assert_equal_outputs(out, want):
    for name in ("surface_map", "nodes", "edges", "triples_canonical"):
        got, exp = _sorted_table(out, name), _sorted_table(want, name)
        assert got.num_rows and got.equals(exp), name


def test_two_appends_link_only_their_new_surfaces(tail_parts, tail_full, tmp_path_factory):
    """Each append links on the driver from the block index (mode
    "delta"), keys exactly its new linked surfaces, and the outputs equal a
    from-scratch build on every column."""
    base = str(tmp_path_factory.mktemp("two_appends"))
    pages, out = os.path.join(base, "pages"), os.path.join(base, "out")
    _grow(pages, tail_parts[0])
    run_kg(pages, out, **_tail_kwargs())
    link = lineage.load_manifest(out, "linking")
    assert link["mode"] == "full" and link["index"] == [0]
    assert link["surfaces_keyed"] == link["rows"]

    for k, part in enumerate(tail_parts[1:], start=1):
        _grow(pages, part)
        run_kg(pages, out, **_tail_kwargs())
        link = lineage.load_manifest(out, "linking")
        new, earlier = _new_linked_surfaces(out, f"g{k}")
        assert link["mode"] == "delta"
        assert sorted(link["gens"]) == [f"g{i}" for i in range(k + 1)]
        assert link["index"] == list(range(k + 1))
        # the linking.surfaces_relinked gate: the delta, not the union
        assert 0 < link["surfaces_keyed"] == len(new) < len(new | earlier)
        assert link["blocks_retracted"] == 0
        assert os.path.isfile(f"{out}/linking_index/members-{k}/part-0.parquet")
    _assert_equal_outputs(out, tail_full)

    # a rerun with no new pages reuses the linking manifest as it is
    run_kg(pages, out, **_tail_kwargs())
    assert lineage.load_manifest(out, "linking") == link


def test_appends_open_no_stored_annotations_or_mentions_file(
    tail_parts, tail_full, tmp_path_factory
):
    """An append reads only its own generation of the mentions table:
    with every file of the base's mentions zeroed (same length, so only
    opening one would notice), both appends still link as deltas, and with
    the files restored the outputs equal a full build.  No build writes an
    annotations table."""
    base = str(tmp_path_factory.mktemp("unread_gens"))
    pages, out = os.path.join(base, "pages"), os.path.join(base, "out")
    _grow(pages, tail_parts[0])
    run_kg(pages, out, **_tail_kwargs())
    assert not os.path.exists(f"{out}/annotations")
    saved = {}
    for dp, _dirs, files in os.walk(f"{out}/mentions/g0"):
        for f in files:
            if f.endswith(".parquet"):
                path = os.path.join(dp, f)
                with open(path, "rb") as fh:
                    saved[path] = fh.read()
                with open(path, "wb") as fh:
                    fh.write(bytes(len(saved[path])))
    assert saved

    for part in tail_parts[1:]:
        _grow(pages, part)
        run_kg(pages, out, **_tail_kwargs())
        assert lineage.load_manifest(out, "linking")["mode"] == "delta"
    for path, data in saved.items():
        with open(path, "wb") as fh:
            fh.write(data)
    _assert_equal_outputs(out, tail_full)


def test_builds_pass_no_deprecated_ray_data_argument(tail_parts, tmp_path_factory):
    """A base build and an append call Ray Data's read API with no
    deprecated argument.  Only warnings raised in ``read_api.py`` count:
    Ray's own ``context.py`` deprecations fire in every session."""
    import warnings

    base = str(tmp_path_factory.mktemp("no_deprecated"))
    pages, out = os.path.join(base, "pages"), os.path.join(base, "out")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for part in tail_parts[:2]:
            _grow(pages, part)
            run_kg(pages, out, **_tail_kwargs())
    read_api = os.path.join("ray", "data", "read_api.py")
    deprecated = [
        str(w.message) for w in caught
        if issubclass(w.category, DeprecationWarning) and w.filename.endswith(read_api)
    ]
    assert not deprecated


def test_crash_before_linking_manifest_relinks_in_full(
    tail_parts, tail_full, tmp_path_factory, monkeypatch
):
    """The delta writes the map, then its index increment, then the
    manifest.  A crash before the manifest leaves none, so the rerun links
    the union from scratch and equals a clean build."""
    base = str(tmp_path_factory.mktemp("crash_delta"))
    pages, out = os.path.join(base, "pages"), os.path.join(base, "out")
    _grow(pages, tail_parts[0])
    run_kg(pages, out, **_tail_kwargs())
    _grow(pages, tail_parts[1])
    _grow(pages, tail_parts[2])

    real = lineage.write_manifest

    def crash_on_linking(out_dir, phase, *a, **kw):
        if phase == "linking":
            raise RuntimeError("crash before the linking manifest")
        return real(out_dir, phase, *a, **kw)

    monkeypatch.setattr(lineage, "write_manifest", crash_on_linking)
    with pytest.raises(RuntimeError, match="crash before"):
        run_kg(pages, out, **_tail_kwargs())
    monkeypatch.setattr(lineage, "write_manifest", real)
    assert lineage.load_manifest(out, "linking") is None
    assert os.path.isfile(f"{out}/linking_index/members-1/part-0.parquet")

    run_kg(pages, out, **_tail_kwargs())
    link = lineage.load_manifest(out, "linking")
    assert link["mode"] == "full" and link["index"] == [0]
    assert not os.path.exists(f"{out}/linking_index/members-1")
    _assert_equal_outputs(out, tail_full)


def test_append_past_threshold_runs_the_scale_plan(tail_parts, tail_full, tmp_path_factory):
    """An append that lifts the distinct count past ``auto_threshold``
    links the union in full under the scale plan."""
    base = str(tmp_path_factory.mktemp("cross_threshold"))
    pages, out = os.path.join(base, "pages"), os.path.join(base, "out")
    _grow(pages, tail_parts[0])
    run_kg(pages, out, **_tail_kwargs())
    threshold = lineage.load_manifest(out, "linking")["n_distinct"]
    _grow(pages, tail_parts[1])
    _grow(pages, tail_parts[2])
    res = run_kg(pages, out, **_tail_kwargs(auto_threshold=threshold))
    link = lineage.load_manifest(out, "linking")
    assert link["n_distinct"] > threshold
    assert link["mode"] == "full" and link["plan"] == ["distributed", "join"]
    assert link["index"] is None and not os.path.exists(f"{out}/linking_index")
    assert (res["resolved_linking_mode"], res["resolved_rewrite_mode"]) == ("distributed", "join")
    _assert_equal_outputs(out, tail_full)


def _mentionless_pages(path, n=5, body="Marble stone kappa lambda summit onyx omega onyx cloud lagoon."):
    """Pages of one sentence, by default with no taggable mention: their
    mentions generation explodes to no rows, so it has no directory."""
    import datetime

    html = f"<html><body><main><p>{body}</p></main></body></html>".encode()
    pq.write_table(
        pa.table(
            {
                "url": [f"https://quiet.example.test/page/{i}" for i in range(n)],
                "warc_ts": pa.array([datetime.datetime(2020, 1, 2)] * n, pa.timestamp("us")),
                "html": pa.array([html] * n, pa.binary()),
                "text": pa.array([body] * n, pa.large_string()),
                "lang": ["en"] * n,
            }
        ),
        path,
    )


def test_append_with_no_mentions_links_as_a_delta(tail_parts, tmp_path_factory):
    """An append whose pages hold no mention adds a generation with no
    mentions directory; the delta links nothing new and the outputs equal
    a from-scratch build."""
    base = str(tmp_path_factory.mktemp("quiet_append"))
    quiet = os.path.join(base, "quiet.parquet")
    _mentionless_pages(quiet)
    pages, out = os.path.join(base, "pages"), os.path.join(base, "out")
    _grow(pages, tail_parts[0])
    run_kg(pages, out, **_tail_kwargs())
    _grow(pages, quiet)
    run_kg(pages, out, **_tail_kwargs())
    link = lineage.load_manifest(out, "linking")
    assert sorted(link["gens"]) == ["g0", "g1"] and not os.path.exists(f"{out}/mentions/g1")
    assert link["mode"] == "delta" and link["surfaces_keyed"] == link["pairs_tested"] == 0

    clean_pages, clean = os.path.join(base, "clean_pages"), os.path.join(base, "clean")
    _grow(clean_pages, tail_parts[0])
    _grow(clean_pages, quiet)
    run_kg(clean_pages, clean, **_tail_kwargs())
    _assert_equal_outputs(out, clean)


def test_corpus_without_triples_writes_empty_edges(tmp_path_factory):
    """Pages that mention entities but hold no triple: the canonical
    triples and the edges are empty tables with their columns, the graph
    manifest counts 0 edges, and a resumed rerun changes nothing."""
    from pdf_entity_extraction_ray.sources.corpus import cached_catalog
    from pdf_entity_extraction_ray.stages.graph import CANONICAL_TRIPLES_SCHEMA, EDGES_SCHEMA

    name = cached_catalog(42, 25)[0].aliases[0]
    base = str(tmp_path_factory.mktemp("no_triples"))
    pages, out = os.path.join(base, "pages"), os.path.join(base, "out")
    os.makedirs(pages)
    _mentionless_pages(os.path.join(pages, "part-0.parquet"), body=f"Marble stone {name} summit.")
    res = run_kg(pages, out, n_buckets=4, concurrency=2)
    assert res["n_nodes"] > 0 and res["n_edges"] == 0
    assert lineage.load_manifest(out, "graph")["edges"] == 0
    for table, schema in (("triples_canonical", CANONICAL_TRIPLES_SCHEMA), ("edges", EDGES_SCHEMA)):
        assert pads.dataset(f"{out}/{table}").to_table().equals(schema.empty_table()), table

    before = _relpaths_mtimes(out)
    rerun = run_kg(pages, out, n_buckets=4, concurrency=2)
    assert rerun["n_edges"] == 0 and rerun["link_wall_sec"] == 0
    assert _relpaths_mtimes(out) == before


# ------------------------------------------------------------- delta graph


def _graph_files(out, gen):
    return _relpaths_mtimes(f"{out}/triples_canonical/{gen}")


def _partial_rows(out, phase):
    return sum(
        pq.read_metadata(os.path.join(dp, f)).num_rows
        for dp, _dirs, fs in os.walk(f"{out}/graph_partials/{phase}")
        for f in fs
    )


def test_two_appends_fold_the_graph_on_the_driver_and_report_it(
    tail_parts, tail_full, tmp_path_factory
):
    """Each append's graph is a delta: the manifest names the generations
    it consumed and folds every partial row.  It writes the new canonical
    generation and rewrites an old one only when that one's rows change
    (here an append gives some old clusters a new representative), and
    every column equals a from-scratch build."""
    base = str(tmp_path_factory.mktemp("graph_delta"))
    pages, out = os.path.join(base, "pages"), os.path.join(base, "out")
    _grow(pages, tail_parts[0])
    run_kg(pages, out, **_tail_kwargs())
    graph = lineage.load_manifest(out, "graph")
    assert graph["mode"] == "full" and "pages_snap" not in json.dumps(graph)
    assert graph["canonical"] == {"rewritten": ["g0"], "reused": []}

    for k, part in enumerate(tail_parts[1:], start=1):
        old = [f"g{i}" for i in range(k)]
        files = {g: _graph_files(out, g) for g in old}
        rows = {g: _sorted_table(out, f"triples_canonical/{g}") for g in old}
        _grow(pages, part)
        run_kg(pages, out, **_tail_kwargs())
        graph = lineage.load_manifest(out, "graph")
        gens = [f"g{i}" for i in range(k + 1)]
        assert graph["mode"] == "delta"
        assert graph["gens"] == {
            g: gen["tag"]
            for g, gen in lineage.load_manifest(out, "annotations")["generations"].items()
        }
        assert sorted(graph["gens"]) == gens
        rewritten, reused = graph["canonical"]["rewritten"], graph["canonical"]["reused"]
        assert rewritten[-1] == f"g{k}" and sorted(rewritten[:-1] + reused) == old
        for g in reused:
            assert _graph_files(out, g) == files[g], g
        for g in rewritten[:-1]:
            assert not _sorted_table(out, f"triples_canonical/{g}").equals(rows[g]), g
        assert graph["partial_rows"] == {
            "surfaces": _partial_rows(out, "mentions"), "triples": _partial_rows(out, "triples"),
        }
        assert 0 < graph["partial_rows"]["surfaces"] < pads.dataset(f"{out}/mentions").count_rows()
        assert graph["nodes"] == pads.dataset(f"{out}/nodes").count_rows()
    _assert_equal_outputs(out, tail_full)


def test_delta_graph_runs_no_ray_execution(tail_parts, tail_full, tmp_path_factory, monkeypatch):
    """Once an append's linking manifest is written, its graph phase runs
    no Ray Data execution and puts nothing in the object store.  Neither
    does a full graph build, which is the append with nothing stored; a
    full relink does, so the guard does guard."""
    import ray
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    base = str(tmp_path_factory.mktemp("graph_no_ray"))
    pages, out = os.path.join(base, "pages"), os.path.join(base, "out")
    _grow(pages, tail_parts[0])
    _grow(pages, tail_parts[1])
    run_kg(pages, out, **_tail_kwargs())
    _grow(pages, tail_parts[2])

    def boom(*args, **kwargs):
        raise AssertionError("Ray used under the guard")

    real = lineage.write_manifest

    def write_then_forbid(out_dir, phase, *a, **kw):
        real(out_dir, phase, *a, **kw)
        if phase == "linking":
            monkeypatch.setattr(StreamingExecutor, "execute", boom)
            monkeypatch.setattr(ray, "put", boom)

    monkeypatch.setattr(lineage, "write_manifest", write_then_forbid)
    run_kg(pages, out, **_tail_kwargs())
    monkeypatch.undo()
    assert lineage.load_manifest(out, "graph")["mode"] == "delta"
    _assert_equal_outputs(out, tail_full)

    # a full graph build over the reused linking passes the same guard
    os.remove(f"{out}/_lineage/graph.json")
    monkeypatch.setattr(StreamingExecutor, "execute", boom)
    monkeypatch.setattr(ray, "put", boom)
    run_kg(pages, out, **_tail_kwargs())
    monkeypatch.undo()
    graph = lineage.load_manifest(out, "graph")
    assert graph["mode"] == "full" and graph["canonical"]["reused"] == []
    _assert_equal_outputs(out, tail_full)

    # a full relink fails it.  The guard is armed with the annotations
    # manifest in place, which the rerun reuses without a write, so the
    # Ray use it meets is the relink's
    os.remove(f"{out}/_lineage/linking.json")
    annotations = lineage.load_manifest(out, "annotations")
    monkeypatch.setattr(StreamingExecutor, "execute", boom)
    with pytest.raises(AssertionError, match="Ray used"):
        run_kg(pages, out, **_tail_kwargs())
    monkeypatch.undo()
    assert lineage.load_manifest(out, "linking") is None
    assert lineage.load_manifest(out, "annotations") == annotations


def test_driver_plan_relinks_a_scale_plan_build(tail_parts, tail_full, tmp_path_factory):
    """A dir built under the scale plan, then appended to at the default
    threshold: the append relinks the union under the driver plan, and
    its full graph build replaces the scale plan's flat canonical-triples
    files with one dir per generation.  Every column equals a clean
    build's."""
    base = str(tmp_path_factory.mktemp("scale_then_driver"))
    pages, out = os.path.join(base, "pages"), os.path.join(base, "out")
    _grow(pages, tail_parts[0])
    run_kg(pages, out, **_tail_kwargs(auto_threshold=0))
    assert lineage.load_manifest(out, "linking")["plan"] == ["distributed", "join"]
    assert any(f.endswith(".parquet") for f in os.listdir(f"{out}/triples_canonical"))

    _grow(pages, tail_parts[1])
    _grow(pages, tail_parts[2])
    res = run_kg(pages, out, **_tail_kwargs())
    assert (res["resolved_linking_mode"], res["resolved_rewrite_mode"]) == ("driver", "broadcast")
    assert lineage.load_manifest(out, "linking")["mode"] == "full"
    graph = lineage.load_manifest(out, "graph")
    assert graph["mode"] == "full"
    assert graph["canonical"] == {"rewritten": ["g0", "g1"], "reused": []}
    assert sorted(os.listdir(f"{out}/triples_canonical")) == ["g0", "g1"]
    _assert_equal_outputs(out, tail_full)


def test_crash_in_the_canonical_rewrite_resumes_to_a_clean_build(
    tail_parts, tail_full, tmp_path_factory, monkeypatch
):
    """A full build that crashes after the first batch of its streamed
    canonical rewrite leaves that batch's file and no graph manifest.
    The resume rewrites every generation, so no half-written canonical
    file remains and every column equals a clean build's."""
    from pdf_entity_extraction_ray.pipelines import kg

    base = str(tmp_path_factory.mktemp("canonical_crash"))
    pages, out = os.path.join(base, "pages"), os.path.join(base, "out")
    for part in tail_parts:
        _grow(pages, part)
    # coalesced batches: below the triple count, the rewrite takes two calls
    n_triples = pads.dataset(f"{tail_full}/triples", partitioning="hive").count_rows()
    monkeypatch.setattr(kg, "CANONICAL_BATCH_ROWS", n_triples // 2)
    real = kg.canonical_triples
    written = []

    def crash_after_first_batch(triples, lookup):
        if written:
            raise RuntimeError("crash in the canonical rewrite")
        written.append(triples.num_rows)
        return real(triples, lookup)

    monkeypatch.setattr(kg, "canonical_triples", crash_after_first_batch)
    with pytest.raises(RuntimeError, match="crash in the canonical rewrite"):
        run_kg(pages, out, **_tail_kwargs())
    monkeypatch.undo()
    assert lineage.load_manifest(out, "graph") is None
    half = pq.read_table(f"{out}/triples_canonical/g0")
    assert 0 < half.num_rows == written[0] < _sorted_table(tail_full, "triples_canonical").num_rows

    run_kg(pages, out, **_tail_kwargs())
    assert lineage.load_manifest(out, "graph")["mode"] == "full"
    assert sorted(_relpaths_mtimes(f"{out}/triples_canonical")) == ["g0/part-0.parquet"]
    _assert_equal_outputs(out, tail_full)


_GAZETTEER = [
    ("John Smith", "PERSON"), ("Mary Major", "PERSON"), ("Alan Turing", "PERSON"),
    ("Jane Doe", "PERSON"), ("Ann Lee", "PERSON"), ("Bob Ray", "PERSON"),
    ("Cy Young", "PERSON"), ("Di Moss", "PERSON"), ("Ed Wood", "PERSON"),
    ("Acme Corp", "ORG"), ("Acme Corp.", "ORG"), ("Acme Corp Holdings", "ORG"),
    ("Globex Inc", "ORG"), ("Globex Inc.", "ORG"), ("Initech Llc", "ORG"),
    ("Initech Llc.", "ORG"), ("Globex Inc Initech Llc", "ORG"), ("Berlin", "GPE"),
]


def _sentence_pages(base, name, sentences):
    """Append one page file to ``base/pages``: a page per sentence, with
    urls unique to the file."""
    import datetime

    pages = os.path.join(base, "pages")
    os.makedirs(pages, exist_ok=True)
    html = [f"<html><body><main><p>{s}</p></main></body></html>".encode() for s in sentences]
    n = len(sentences)
    pq.write_table(
        pa.table(
            {
                "url": [f"https://{name}.example.test/page/{i}" for i in range(n)],
                "warc_ts": pa.array([datetime.datetime(2020, 1, 2)] * n, pa.timestamp("us")),
                "html": pa.array(html, pa.binary()),
                "text": pa.array(sentences, pa.large_string()),
                "lang": ["en"] * n,
            }
        ),
        os.path.join(pages, f"{name}.parquet"),
    )


def _build(base, out="out"):
    """``run_kg`` over ``base/pages`` into ``base/<out>``; returns the out dir."""
    out = os.path.join(base, out)
    run_kg(os.path.join(base, "pages"), out, n_buckets=4, concurrency=2, gazetteer=_GAZETTEER)
    return out


def test_append_changing_a_representative_rewrites_only_the_generations_it_touches(
    tmp_path_factory,
):
    """The append's "Acme Corp Holdings" becomes the representative of the
    "Acme Corp" cluster, which changes its node id.  The generation whose
    triples name that cluster is rewritten, an unaffected one is not, and
    every column equals a from-scratch build."""
    base = str(tmp_path_factory.mktemp("graph_rep"))
    _sentence_pages(base, "a", ["Jane Doe visited Berlin and more."])
    _build(base)
    _sentence_pages(base, "b", ["John Smith works for Acme Corp and more.",
                                "Mary Major works for Acme Corp. and more."])
    out = _build(base)
    before = {g: _graph_files(out, g) for g in ("g0", "g1")}
    acme = pq.read_table(f"{out}/surface_map").to_pylist()
    assert {r["canonical"] for r in acme if r["surface"].startswith("Acme")} == {"Acme Corp."}

    _sentence_pages(base, "c", ["Alan Turing works for Acme Corp Holdings and more."])
    _build(base)
    graph = lineage.load_manifest(out, "graph")
    assert graph["mode"] == "delta"
    assert graph["canonical"] == {"rewritten": ["g1", "g2"], "reused": ["g0"]}
    assert _graph_files(out, "g0") == before["g0"]
    after = _graph_files(out, "g1")
    assert after and min(after.values()) > max(before["g1"].values()), "g1 must be rewritten"
    canon = pads.dataset(f"{out}/triples_canonical").to_table().to_pylist()
    assert {r["obj_canonical"] for r in canon if r["obj"].startswith("Acme")} == {
        "Acme Corp Holdings"
    }
    _assert_equal_outputs(out, _build(base, "clean"))


def test_append_bridging_two_clusters_equals_a_full_build(tmp_path_factory):
    base = str(tmp_path_factory.mktemp("graph_bridge"))
    _sentence_pages(base, "a", [
        "Ann Lee works for Globex Inc and more.", "Bob Ray works for Globex Inc. and more.",
        "Cy Young works for Initech Llc and more.", "Di Moss works for Initech Llc. and more.",
    ])
    out = _build(base)
    assert len(set(pq.read_table(f"{out}/edges").column("dst_id").to_pylist())) == 2
    _sentence_pages(base, "b", ["Ed Wood works for Globex Inc Initech Llc and more."])
    _build(base)
    graph = lineage.load_manifest(out, "graph")
    assert graph["mode"] == "delta" and graph["canonical"]["rewritten"] == ["g0", "g1"]
    assert len(set(pq.read_table(f"{out}/edges").column("dst_id").to_pylist())) == 1
    _assert_equal_outputs(out, _build(base, "clean"))


def test_crash_before_graph_manifest_resumes_to_a_clean_build(
    tail_parts, tail_full, tmp_path_factory, monkeypatch
):
    """A crash after an append wrote its canonical generation and before
    the graph manifest leaves no graph manifest; the resume rebuilds the
    graph in full and equals a clean build."""
    base = str(tmp_path_factory.mktemp("graph_crash"))
    pages, out = os.path.join(base, "pages"), os.path.join(base, "out")
    _grow(pages, tail_parts[0])
    _grow(pages, tail_parts[1])
    run_kg(pages, out, **_tail_kwargs())
    _grow(pages, tail_parts[2])
    real = lineage.write_manifest

    def crash_on_graph(out_dir, phase, *a, **kw):
        if phase == "graph":
            raise RuntimeError("crash before the graph manifest")
        return real(out_dir, phase, *a, **kw)

    monkeypatch.setattr(lineage, "write_manifest", crash_on_graph)
    with pytest.raises(RuntimeError, match="crash before"):
        run_kg(pages, out, **_tail_kwargs())
    monkeypatch.setattr(lineage, "write_manifest", real)
    assert lineage.load_manifest(out, "graph") is None
    assert lineage.load_manifest(out, "linking")["mode"] == "delta"
    assert os.listdir(f"{out}/triples_canonical/g1")

    run_kg(pages, out, **_tail_kwargs())
    assert lineage.load_manifest(out, "graph")["mode"] == "full"
    _assert_equal_outputs(out, tail_full)


def _crash_at_the_annotations_manifest(tail_parts, tmp_path_factory, monkeypatch, name):
    """Build ``g0``, grow the pages, and crash the append at its
    annotations manifest write, after its one execution wrote ``g1``'s
    table and partial files.  Returns ``(pages, out)``."""
    base = str(tmp_path_factory.mktemp(name))
    pages, out = os.path.join(base, "pages"), os.path.join(base, "out")
    _grow(pages, tail_parts[0])
    run_kg(pages, out, **_tail_kwargs())
    _grow(pages, tail_parts[1])
    _grow(pages, tail_parts[2])
    real = lineage.write_manifest

    def crash_on_annotations(out_dir, phase, *a, **kw):
        if phase == "annotations":
            raise RuntimeError("crash before the annotations manifest")
        return real(out_dir, phase, *a, **kw)

    monkeypatch.setattr(lineage, "write_manifest", crash_on_annotations)
    with pytest.raises(RuntimeError, match="crash before"):
        run_kg(pages, out, **_tail_kwargs())
    monkeypatch.setattr(lineage, "write_manifest", real)
    assert sorted(lineage.load_manifest(out, "annotations")["generations"]) == ["g0"]
    return pages, out


def test_crashed_explode_leaves_no_partial_file_behind(
    tail_parts, tail_full, tmp_path_factory, monkeypatch
):
    """An explode that crashed before its manifest leaves the table and
    partial files of an unrecorded generation, here including ones from a
    block split the rerun will not repeat.  The rerun sweeps them, so no
    row is read or folded twice."""
    pages, out = _crash_at_the_annotations_manifest(
        tail_parts, tmp_path_factory, monkeypatch, "explode_crash"
    )
    gen_dir = f"{out}/graph_partials/mentions/g1"
    left = sorted(os.listdir(gen_dir))
    assert left
    stray = os.path.join(gen_dir, "0123456789abcdef.parquet")
    shutil.copy(os.path.join(gen_dir, left[0]), stray)
    bucket_dir = os.path.join(f"{out}/mentions/g1", sorted(os.listdir(f"{out}/mentions/g1"))[0])
    assert os.path.basename(bucket_dir).startswith("bucket=")
    table_stray = os.path.join(bucket_dir, "0123456789abcdef-0.parquet")
    shutil.copy(os.path.join(bucket_dir, sorted(os.listdir(bucket_dir))[0]), table_stray)

    run_kg(pages, out, **_tail_kwargs())
    assert not os.path.exists(stray) and not os.path.exists(table_stray)
    recorded = lineage.load_manifest(out, "annotations")["generations"]
    for root in ("mentions", "triples", "graph_partials/mentions", "graph_partials/triples"):
        assert sorted(os.listdir(f"{out}/{root}")) == sorted(recorded) == ["g0", "g1"], root
    graph = lineage.load_manifest(out, "graph")
    assert graph["partial_rows"] == {
        "surfaces": _partial_rows(out, "mentions"), "triples": _partial_rows(out, "triples"),
    }
    _assert_equal_outputs(out, tail_full)


def test_crash_between_the_explode_manifests_redoes_the_generation(
    tail_parts, tail_full, tmp_path_factory, monkeypatch
):
    """Both explodes of a generation are recorded by one manifest, the
    annotations manifest, so the window between them is a crash before it:
    the append's generation is written for both tables and recorded for
    none.  The resume redoes it: it rewrites every table and partial file
    of ``g1``, keeps every file of ``g0``, and every column equals a clean
    build's."""
    pages, out = _crash_at_the_annotations_manifest(
        tail_parts, tmp_path_factory, monkeypatch, "explode_manifest_crash"
    )
    g0, g1 = _gen_files(out, "g0"), _gen_files(out, "g1")

    run_kg(pages, out, **_tail_kwargs())
    assert sorted(lineage.load_manifest(out, "annotations")["generations"]) == ["g0", "g1"]
    assert _gen_files(out, "g0") == g0
    redone = _gen_files(out, "g1")
    assert sorted(redone) == sorted(g1)
    assert min(redone.values()) > max(g1.values())
    for table in ("mentions", "triples"):
        got, want = _sorted_table(out, table), _sorted_table(tail_full, table)
        assert got.num_rows and got.equals(want), table
    _assert_equal_outputs(out, tail_full)


def test_append_tags_and_explodes_in_one_execution_and_one_read(
    tail_parts, tmp_path_factory, monkeypatch
):
    """Before its linking manifest, an append starts one Ray Data
    execution, which reads only the new pages file: it tags the pages and
    writes both flat tables and both partials of the generation.  (The
    delta link after it starts none.)"""
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    base = str(tmp_path_factory.mktemp("one_execution"))
    pages, out = os.path.join(base, "pages"), os.path.join(base, "out")
    _grow(pages, tail_parts[0])
    run_kg(pages, out, **_tail_kwargs())
    _grow(pages, tail_parts[1])

    written, executions, reads = [], [], []
    real_write, real_execute, real_read = (
        lineage.write_manifest, StreamingExecutor.execute, ray.data.read_parquet
    )

    def write(out_dir, phase, *a, **kw):
        written.append(phase)
        return real_write(out_dir, phase, *a, **kw)

    def execute(self, *a, **kw):
        if "linking" not in written:
            executions.append(1)
        return real_execute(self, *a, **kw)

    def read(paths, *a, **kw):
        if "linking" not in written:
            reads.append(paths)
        return real_read(paths, *a, **kw)

    monkeypatch.setattr(lineage, "write_manifest", write)
    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    monkeypatch.setattr(ray.data, "read_parquet", read)
    run_kg(pages, out, **_tail_kwargs())
    monkeypatch.undo()
    new_file = os.path.join(os.path.abspath(pages), os.path.basename(tail_parts[1]))
    assert len(executions) == 1 and reads == [[new_file]]
    assert written[:2] == ["annotations", "linking"]
    assert lineage.load_manifest(out, "linking")["mode"] == "delta"
    assert sorted(lineage.load_manifest(out, "annotations")["generations"]) == ["g0", "g1"]
    for table in ("mentions", "triples"):
        assert os.listdir(f"{out}/{table}/g1") and os.listdir(f"{out}/graph_partials/{table}/g1")


def _sorted_file(path):
    t = pq.read_table(path)
    return t.sort_by([(f.name, "ascending") for f in t.schema if not pa.types.is_list(f.type)])


def test_explode_block_rewrites_its_own_files(tmp_path):
    """A retried explode task (here ``_explode_block`` called twice on one
    block) rewrites the same files with the same rows: each table's rows
    per ``bucket=<b>`` dir without the ``bucket`` column, and the partials
    beside them."""
    from pdf_entity_extraction_ray.pipelines.kg import _explode_block, _partials_dir
    from pdf_entity_extraction_ray.stages.annotate import (
        Annotator, explode_mentions_batch, explode_triples_batch,
    )
    from pdf_entity_extraction_ray.stages.graph import surface_partials, triple_partials

    sentences = [
        "John Smith works for Acme Corp and more.", "Jane Doe visited Berlin and more.",
        "Mary Major works for Globex Inc. and more.", "Ed Wood works for Initech Llc and more.",
    ]
    n = len(sentences)
    segments = pa.table({
        "url": [f"https://retry.example.test/page/{i}" for i in range(n)],
        "seg_id": pa.array([0] * n, pa.int32()),
        "lang": ["en"] * n,
        "text": sentences,
        "seg_offset": pa.array([0] * n, pa.int32()),
    })
    block = Annotator(_GAZETTEER, n_buckets=4)(segments)
    explodes = {
        "mentions": (explode_mentions_batch, surface_partials),
        "triples": (explode_triples_batch, triple_partials),
    }
    out = str(tmp_path)
    for table in explodes:
        os.makedirs(os.path.join(_partials_dir(out, table), "g0"))

    def files():
        return {rel: _sorted_file(os.path.join(out, rel)) for rel in _relpaths_mtimes(out)}

    written = _explode_block(block, explodes, out, "g0")
    first = files()
    assert _explode_block(block, explodes, out, "g0").equals(written)
    again = files()
    assert sorted(again) == sorted(first)
    for rel, rows in first.items():
        assert again[rel].equals(rows), rel
    for table in explodes:
        hive = [rel for rel in first if rel.startswith(f"{table}{os.sep}g0{os.sep}bucket=")]
        partials = [rel for rel in first if rel.startswith(f"graph_partials{os.sep}{table}")]
        assert len(partials) == 1 and hive, table
        assert all("bucket" not in first[rel].column_names for rel in hive)
        assert sum(first[rel].num_rows for rel in hive) == written[table][0].as_py() > 0


def test_scale_plan_builds_a_corpus_without_triples(tmp_path_factory):
    """The scale plan's graph phase skips a join with no input row instead
    of waiting on it forever: the build finishes (in a subprocess with a
    bound), its canonical triples and edges are empty tables with their
    columns, and its nodes equal the driver plan's."""
    import subprocess
    import sys

    import ray

    from pdf_entity_extraction_ray.sources.corpus import cached_catalog
    from pdf_entity_extraction_ray.stages.graph import CANONICAL_TRIPLES_SCHEMA, EDGES_SCHEMA

    name = cached_catalog(42, 25)[0].aliases[0]
    base = str(tmp_path_factory.mktemp("scale_no_triples"))
    pages, out, driver = (os.path.join(base, d) for d in ("pages", "out", "driver"))
    os.makedirs(pages)
    _mentionless_pages(os.path.join(pages, "part-0.parquet"), body=f"Marble stone {name} summit.")
    run_kg(pages, driver, n_buckets=4, concurrency=2)
    code = (
        "import ray, sys\n"
        f"ray.init(address={ray.get_runtime_context().gcs_address!r})\n"
        "from pdf_entity_extraction_ray.pipelines.kg import run_kg\n"
        f"res = run_kg({pages!r}, {out!r}, n_buckets=4, concurrency=2, auto_threshold=0)\n"
        "assert res['resolved_rewrite_mode'] == 'join', res\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    subprocess.run([sys.executable, "-c", code], cwd=root, timeout=120, check=True)
    for table, schema in (("triples_canonical", CANONICAL_TRIPLES_SCHEMA), ("edges", EDGES_SCHEMA)):
        assert pads.dataset(f"{out}/{table}").to_table().equals(schema.empty_table()), table
    got, want = _sorted_table(out, "nodes"), _sorted_table(driver, "nodes")
    assert got.num_rows and got.equals(want)
