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
    before = _relpaths_mtimes(f"{out}/annotations/g0")
    assert before, "g0 must hold the first batch's annotations"

    # the append: new files land next to the old ones
    for f in files[k:]:
        shutil.copyfile(os.path.join(pages_full, f), os.path.join(grow, f))
    res = run_kg(grow, out, n_buckets=4, concurrency=2)
    man2 = json.load(open(f"{out}/_lineage/annotations.json"))
    assert sorted(man2["generations"]) == ["g0", "g1"]
    assert sorted(r for r, _ in man2["generations"]["g1"]["files"]) == sorted(files[k:])
    # the first generation was not re-tagged: every file byte-untouched
    assert _relpaths_mtimes(f"{out}/annotations/g0") == before
    # explodes mirrored the generations
    for phase in ("mentions", "triples"):
        m = json.load(open(f"{out}/_lineage/{phase}.json"))
        assert sorted(m["exploded_gens"]) == ["g0", "g1"]

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
    the migration bug class: a legacy ``annotations/bucket=N`` next to the
    new ``g0`` would silently double every downstream row."""
    base = str(tmp_path_factory.mktemp("sweep"))
    pages = f"{small_corpus}/pages"
    out = os.path.join(base, "out")
    run_kg(pages, out, n_buckets=4, concurrency=2)
    want = _table_key(out, "mentions", ["url", "seg_id", "text", "type", "start", "end"])

    # plant a legacy-layout orphan holding real rows, then lose the manifest
    legacy = f"{out}/annotations/bucket=7"
    os.makedirs(legacy)
    src = next(
        os.path.join(dp, f)
        for dp, _d, fs in os.walk(f"{out}/annotations/g0")
        for f in fs
        if f.endswith(".parquet")
    )
    shutil.copyfile(src, os.path.join(legacy, "data.parquet"))
    os.remove(f"{out}/_lineage/annotations.json")
    for phase in ("mentions", "triples"):
        os.remove(f"{out}/_lineage/{phase}.json")

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
    assert sorted(man["recomputed_buckets"]) == [0, 1, 2, 3]
    # row count reflects the shrunken corpus, not a stale or doubled one
    n_pages = len(
        set(pads.dataset(grow).to_table(columns=["url"]).column("url").to_pylist())
    )
    got_urls = set(
        pads.dataset(f"{out}/annotations", partitioning="hive")
        .to_table(columns=["url"])
        .column("url")
        .to_pylist()
    )
    assert len(got_urls) == n_pages


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
