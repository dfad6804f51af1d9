"""KG-build benchmark runner.

    python3 perfbench/run.py --workload head_build --seed 1 --seconds 30 --trace 0

Generates the workload's corpus and gold from ``--seed``, starts a local
Ray session with a fixed logical-CPU count, does one untimed warm-up build,
then calls ``run_kg`` back to back (one closed-loop caller) until
``--seconds`` have passed, checking every build's outputs.  With
``--trace 1`` it then makes one more build with every layer entry point
wrapped (see ``tracing.py``) and prints the per-layer metrics instead of
the end-to-end ones.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Everything it writes lives under ``.perfbench_work/`` in the checkout and is
removed on exit.  Workloads and their rationale: ``README.md`` here.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# one logical CPU per vCPU of the reference host; run_kg sizes its annotate
# pool to max(2, CPUs - 2) = 2 actors.  At 3 the second actor often got no
# work and builds were bimodal; at 2 the pool takes every CPU and the build
# deadlocks.  See README.md
NUM_CPUS = 4
# pause before each timed build so the previous build's actor teardown and
# idle-worker reaping finish outside the timed region
SETTLE_S = 0.5
OBJECT_STORE_BYTES = 512 * 2**20
# AF_UNIX socket paths are capped at 107 bytes and Ray puts its sockets ~64
# characters below its temp dir; past this length Ray keeps its default
MAX_RAY_TEMP_DIR_LEN = 40

END_TO_END_UNITS = {
    "wall_s": "s", "pages_per_s": "1/s", "triples_per_s": "1/s",
    "triple_precision": "frac", "triple_recall": "frac", "setup_s": "s",
    "peak_rss_mb": "MB",
}


class RssSampler(threading.Thread):
    """Peak summed RSS of this process and every descendant (the Ray
    raylet, GCS, object store and worker processes of the local session)."""

    INTERVAL_S = 0.5

    def __init__(self):
        super().__init__(daemon=True)
        import psutil  # vendored under ray/thirdparty_files, importable after ``import ray``

        self._psutil = psutil
        self._me = psutil.Process()
        self.peak = 0
        self._lock = threading.Lock()
        self._halt = threading.Event()

    def sample(self) -> int:
        total = 0
        for p in [self._me] + self._me.children(recursive=True):
            try:
                total += p.memory_info().rss
            except (self._psutil.NoSuchProcess, self._psutil.AccessDenied):
                continue
        return total

    def run(self):
        while not self._halt.is_set():
            rss = self.sample()
            with self._lock:
                self.peak = max(self.peak, rss)
            self._halt.wait(self.INTERVAL_S)

    def take_peak(self) -> int:
        """Peak since the last call (one build's peak)."""
        rss = self.sample()
        with self._lock:
            peak, self.peak = max(self.peak, rss), rss
        return peak

    def stop(self):
        self._halt.set()
        self.join()


def start_ray(work: str) -> None:
    import logging

    import ray

    temp_dir = os.path.join(work, "r")
    kwargs = {"_temp_dir": temp_dir} if len(temp_dir) <= MAX_RAY_TEMP_DIR_LEN else {}
    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR", log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES, **kwargs,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def timed_builds(wl, seconds: float, sampler: RssSampler) -> dict:
    """Closed loop of checked builds for ``seconds``; a build that raises or
    fails its output check counts as failed and the loop goes on."""
    walls, rss, checks, failed = [], [], [], 0
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or not (walls or failed):
        wl.reset()
        gc.collect()
        time.sleep(SETTLE_S)
        sampler.take_peak()
        try:
            wall, res = wl.build()
            rss.append(sampler.take_peak())
            checks.append(wl.check(res))
            walls.append(wall)
        except Exception:
            traceback.print_exc()
            failed += 1
    return {"walls": walls, "rss": rss, "checks": checks, "failed": failed}


def end_to_end(wl, loop: dict, setup_s: float) -> dict:
    wall = statistics.median(loop["walls"])
    triples = statistics.median(c["triples"] for c in loop["checks"])
    return {
        "wall_s": wall,
        "pages_per_s": wl.pages_per_run() / wall,
        "triples_per_s": triples / wall,
        "triple_precision": statistics.median(c["precision"] for c in loop["checks"]),
        "triple_recall": statistics.median(c["recall"] for c in loop["checks"]),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(loop["rss"]) / 1e6,
    }


def traced_build(wl, trace_dir: str, untraced_wall: float) -> dict:
    import counts
    from tracing import Tracer, load_worker_spans, span_metrics

    from pdf_entity_extraction_ray.state import lineage

    wl.reset()
    gens_before = set((lineage.load_manifest(wl.out_dir, "annotations") or {})
                      .get("generations", {}))
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    tracer = Tracer(wl.out_dir)
    since_ns = time.time_ns()
    with tracer.patched():
        t0 = time.monotonic()
        _, res = wl.build()
        t1 = time.monotonic()
    wl.check(res)
    m = span_metrics(tracer.spans, load_worker_spans(trace_dir), t0, t1)
    m["trace.wall_s"] = t1 - t0
    m["trace.overhead_s"] = (t1 - t0) - untraced_wall
    m.update(counts.linking_counts(wl.out_dir))
    m.update(counts.graph_counts(wl.out_dir))
    m.update(counts.lineage_counts(wl.out_dir, wl.pages_dir, gens_before))
    m.update(counts.io_counts(wl.out_dir, since_ns))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import pdf_entity_extraction_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: the pipeline package is not importable from {ROOT}: {e}",
              file=sys.stderr)
        return 2
    from tracing import TRACE_DIR_ENV
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    trace_dir = os.path.join(work, "trace")
    os.makedirs(work)
    # Ray worker processes inherit these through the raylet
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, os.path.dirname(os.path.abspath(__file__))]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ[TRACE_DIR_ENV] = trace_dir

    import ray

    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        wl.generate()

        t0 = time.perf_counter()
        start_ray(work)
        import pdf_entity_extraction_ray.pipelines.kg  # noqa: F401

        wl.warm_up()
        setup_s = time.perf_counter() - t0

        sampler = RssSampler()
        sampler.start()
        try:
            loop = timed_builds(wl, args.seconds, sampler)
        finally:
            sampler.stop()
        attempted = len(loop["walls"]) + loop["failed"]
        if not loop["walls"]:
            print("perfbench: every timed build failed", file=sys.stderr)
            return 1
        if args.trace:
            metrics = traced_build(wl, trace_dir, statistics.median(loop["walls"]))
            units = {k: layer_unit(k) for k in metrics}
        else:
            metrics = end_to_end(wl, loop, setup_s)
            units = END_TO_END_UNITS
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload={args.workload} seed={args.seed} cpus={NUM_CPUS} "
          f"builds={len(loop['walls'])} (timings are medians over these) "
          f"failed_frac={loop['failed'] / attempted:.3f}")
    print("# build walls (s): " + " ".join(f"{w:.3f}" for w in loop["walls"]))
    for k, v in metrics.items():
        print(f"#   {k:28s} {v:14.6g} {units[k]}")
    print(json.dumps({
        "correct": loop["failed"] == 0,
        "attempted": attempted,
        "failed": loop["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix.endswith("_s"):
        return "s"
    if suffix.endswith("_frac") or suffix == "pair_yield":
        return "frac"
    if suffix == "us_per_segment":
        return "us"
    if suffix == "mb_written":
        return "MB"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
