"""The P1 tagging step runs as a plain-function Ray task op with a
per-process stage cache (pipelines/kg.py ``_stage_batch`` /
``_cached_stage``), and a build finishes on any session size."""

import json
import os
import subprocess
import sys
import textwrap

import pyarrow as pa
import pyarrow.dataset as pads
import pytest
import ray.data

from pdf_entity_extraction_ray.pipelines import kg

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class CountingStage:
    """Stage stand-in: counts constructions, tags each row with its config."""

    built = 0

    def __init__(self, tag: str = "a", n_buckets: int = 0):
        type(self).built += 1
        self.tag = tag
        self.calls = []

    def __call__(self, batch: pa.Table) -> pa.Table:
        self.calls.append(batch.num_rows)
        return batch.append_column("tag", pa.array([self.tag] * batch.num_rows))


class CountingSubStage(CountingStage):
    pass


def _spec(cls, **kwargs):
    return kg._StageSpec(cls, kg.lineage.fingerprint(kwargs), kwargs)


@pytest.fixture
def fresh_cache():
    kg._cached_stage.cache_clear()
    CountingStage.built = 0
    yield
    kg._cached_stage.cache_clear()


def test_cache_builds_one_stage_per_class_and_config(fresh_cache):
    a1 = kg._cached_stage(_spec(CountingStage, tag="a"))
    a2 = kg._cached_stage(_spec(CountingStage, tag="a"))
    b = kg._cached_stage(_spec(CountingStage, tag="b"))
    assert a1 is a2
    assert b is not a1 and b.tag == "b"
    assert CountingStage.built == 2


def test_subclass_gets_its_own_instance(fresh_cache):
    base = kg._cached_stage(_spec(CountingStage, tag="a"))
    sub = kg._cached_stage(_spec(CountingSubStage, tag="a"))
    assert type(sub) is CountingSubStage and type(base) is CountingStage
    assert kg._cached_stage(_spec(CountingSubStage, tag="a")) is sub


def test_cache_stays_bounded(fresh_cache):
    for i in range(50):
        kg._cached_stage(_spec(CountingStage, tag=str(i)))
    info = kg._cached_stage.cache_info()
    assert info.currsize <= info.maxsize == 8


def test_stage_batch_slices_to_batch_size(fresh_cache):
    spec = _spec(CountingStage, tag="a")
    batch = pa.table({"x": list(range(10))})
    out = kg._stage_batch(batch, spec, batch_size=4)
    assert kg._cached_stage(spec).calls == [4, 4, 2]
    assert out.column("x").to_pylist() == list(range(10))
    assert out.column("tag").to_pylist() == ["a"] * 10
    empty = kg._stage_batch(batch.slice(0, 0), spec, batch_size=4)
    assert empty.num_rows == 0 and "tag" in empty.column_names


def test_tagging_is_a_task_op_with_passthrough(small_corpus, tmp_path, monkeypatch):
    """``concurrency`` and ``tagger_ray_remote_args`` reach the tagging
    ``map_batches`` call, which takes a function (a task op), not a class
    with ``fn_constructor_kwargs`` (an actor pool)."""
    calls = []
    real = ray.data.Dataset.map_batches

    def spy(self, fn, *args, **kwargs):
        calls.append((fn, kwargs))
        return real(self, fn, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "map_batches", spy)
    gens = kg._annotate_phase(
        str(tmp_path),
        f"{small_corpus}/pages",
        "test",
        {"gazetteer": [("Acme", "ORG")]},
        n_buckets=2,
        concurrency=3,
        batch_size=64,
        resume=False,
        override_num_blocks=None,
        tagger_ray_remote_args={"num_cpus": 1, "memory": 256 * 1024 * 1024},
    )
    (fn, kwargs), = [(f, k) for f, k in calls if f is kg._stage_batch]
    assert not isinstance(fn, type)
    assert "fn_constructor_kwargs" not in kwargs
    assert kwargs["concurrency"] == 3
    assert kwargs["num_cpus"] == 1 and kwargs["memory"] == 256 * 1024 * 1024
    assert kwargs["fn_kwargs"]["batch_size"] == 64
    assert kwargs["fn_kwargs"]["spec"].stage_cls is kg.Annotator
    # the explode op after the sort gets neither
    (_, explode_kwargs), = [(f, k) for f, k in calls if f is kg._explode_block]
    assert "concurrency" not in explode_kwargs and "num_cpus" not in explode_kwargs
    assert list(gens) == ["g0"]
    rows = pads.dataset(f"{tmp_path}/mentions", partitioning="hive").count_rows()
    assert rows == kg.lineage.load_manifest(str(tmp_path), "annotations")["rows"] > 0


def _rows(table_dir):
    t = pads.dataset(table_dir).to_table()
    cols = sorted(t.column_names)
    return sorted(zip(*(t.column(c).to_pylist() for c in cols)))


_CHILD = textwrap.dedent(
    """
    import json, sys
    import ray
    ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    ray.data.DataContext.get_current().enable_progress_bars = False
    from pdf_entity_extraction_ray.pipelines.kg import run_kg
    res = run_kg(sys.argv[2], sys.argv[3], n_buckets=4, resume=False)
    print(json.dumps({"edges": res["edges"], "nodes": res["nodes"]}))
    ray.shutdown()
    """
)


def test_build_finishes_on_any_session_size(small_corpus, tmp_path):
    """A build at 1, 2 and 3 CPUs finishes within a time bound, and its
    edges and nodes (every column) equal the 4-CPU test session's build of
    the same pages."""
    ref = kg.run_kg(f"{small_corpus}/pages", str(tmp_path / "ref"), n_buckets=4)
    want = {name: _rows(ref[name]) for name in ("edges", "nodes")}
    assert all(want.values())
    path = [REPO] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    for n_cpus in (1, 2, 3):
        out = str(tmp_path / f"cpus{n_cpus}")
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(n_cpus), f"{small_corpus}/pages", out],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        for name in ("edges", "nodes"):
            assert _rows(got[name]) == want[name], f"{name} differ at num_cpus={n_cpus}"
