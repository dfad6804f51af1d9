"""Per-partition checkpointed lineage (north_rule: "any partition can resume
without recomputation").

The reference's poor-man's checkpointing is skip-if-cached JSON per document
(src/cache_data.py:15-16) and inter-phase JSON files (run.py:24-27).  Here
each phase writes bucket-partitioned Parquet (``bucket = hash(url) % B``,
content-derived so retries land in the same bucket) plus a ``_lineage``
manifest recording the input fingerprint, the rows the phase wrote, stage
config and wall time.  Per-bucket ``_COMPLETE`` markers, not row counts,
decide which buckets resume.  Resume logic:

* manifest present + fingerprint matches  -> phase is complete, skip.
* manifest absent, some bucket dirs exist -> keep ONLY buckets whose
  per-bucket ``_COMPLETE`` marker carries the current fingerprint (a dir
  without a marker is a mid-phase partial write; a marker with another
  fingerprint is a stale-config orphan — both are deleted), recompute the
  rest, then re-manifest.
* fingerprint mismatch                    -> stale output, recompute all.

Wall-clock timestamps appear in manifests as *metrics*, never as inputs to
any computation — determinism is preserved.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

# loaded with the module, not on the first url_buckets call: Ray task workers
# import this (via stages.annotate) when they first run any explode, so
# polars' ~0.15 s import stays off the timed tagging task of later builds
try:
    import polars as pl
except ImportError:
    pl = None


def url_buckets(urls, n_buckets: int):
    """Vectorized content-derived bucket ids for an Arrow string
    array/chunked-array -> numpy int32 — the hot-path form (polars
    xxhash64 runs the whole column in Rust; the per-row blake2b loop was
    the last Python row loop on the tagging path).  Stable across runs /
    workers / retries within one polars version; buckets are PHYSICAL
    clustering only (dropped from all outputs), so a hash change merely
    invalidates /tmp phase caches (CODE_VERSION covers that).  Falls back
    to the blake2b loop when polars is absent — consistent with
    :func:`url_bucket`, which routes through the same implementation."""
    import numpy as np
    import pyarrow as pa

    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    if not isinstance(urls, pa.Array):
        urls = pa.array(list(urls), pa.string())
    if pl is not None:
        h = pl.Series(pl.from_arrow(urls)).hash(seed=0).to_numpy()
        return (h % np.uint64(n_buckets)).astype(np.int32)
    return np.array(
        [
            int.from_bytes(hashlib.blake2b(u.encode(), digest_size=8).digest(), "little")
            % n_buckets
            for u in urls.to_pylist()
        ],
        dtype=np.int32,
    )


def url_bucket(url: str, n_buckets: int) -> int:
    """Scalar form of :func:`url_buckets` (identical values by
    construction — it routes through the vectorized implementation)."""
    import pyarrow as pa

    return int(url_buckets(pa.array([url], pa.string()), n_buckets)[0])


def fingerprint(parts: dict) -> str:
    """Canonical fingerprint of a phase's inputs + config."""
    return hashlib.blake2b(
        json.dumps(parts, sort_keys=True, default=str).encode(), digest_size=16
    ).hexdigest()


def _manifest_file(out_dir: str, phase: str) -> str:
    return os.path.join(out_dir, "_lineage", f"{phase}.json")


def load_manifest(out_dir: str, phase: str) -> dict | None:
    path = _manifest_file(out_dir, phase)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def write_manifest(
    out_dir: str,
    phase: str,
    fp: str,
    rows: int,
    wall_sec: float,
    extra: dict | None = None,
) -> None:
    """Write ``phase``'s manifest atomically.  ``rows`` is what the phase's
    call wrote: a per-page phase counts only its new generation(s), so no
    manifest write opens a stored generation's file."""
    os.makedirs(os.path.join(out_dir, "_lineage"), exist_ok=True)
    manifest = {"phase": phase, "fingerprint": fp, "rows": rows, "wall_sec": round(wall_sec, 3)}
    if extra:
        manifest.update(extra)
    tmp = _manifest_file(out_dir, phase) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(tmp, _manifest_file(out_dir, phase))


def input_snapshot(path: str) -> list[list]:
    """Deterministic metadata snapshot of a Parquet input: sorted
    ``[relpath, bytes]`` pairs.  Sizes (not mtimes) identify content —
    Parquet files are write-once in this pipeline, so "same name, same
    size" means "same rows", and any rewrite-in-place shows up as a size
    change and forces a full rebuild (:func:`snapshot_delta`)."""
    path = os.path.abspath(path)
    if os.path.isfile(path):
        return [[os.path.basename(path), os.path.getsize(path)]]
    out: list[list] = []
    for root, _dirs, files in os.walk(path):
        for f in files:
            if f.endswith(".parquet"):
                p = os.path.join(root, f)
                out.append([os.path.relpath(p, path), os.path.getsize(p)])
    return sorted(out)


def snapshot_delta(generations: dict, snapshot: list[list]):
    """Compare the current input snapshot against the files already
    consumed by recorded generations.

    Returns ``"changed"`` when any previously-consumed file is missing or
    resized (the append-only assumption broke -> full rebuild), else the
    list of NEW ``[relpath, bytes]`` entries (empty list = input
    unchanged -> phase complete)."""
    known: dict[str, int] = {}
    for gen in generations.values():
        for rel, size in gen["files"]:
            known[rel] = size
    current = {rel: size for rel, size in snapshot}
    for rel, size in known.items():
        if current.get(rel) != size:
            return "changed"
    return [[rel, size] for rel, size in snapshot if rel not in known]


MARKER = "_COMPLETE"  # underscore prefix: ignored by pyarrow/Ray dataset reads


def mark_buckets_complete(table_dir: str, fp: str) -> None:
    """Stamp every unmarked ``bucket=N`` dir with the phase fingerprint.

    Called only AFTER the phase's write returns: a bucket dir without a
    marker is by definition partially written (mid-phase crash) and a
    marker with a different fingerprint is an orphan from an older
    config — resume must trust neither."""
    if not os.path.isdir(table_dir):
        return
    for name in os.listdir(table_dir):
        if not name.startswith("bucket="):
            continue
        marker = os.path.join(table_dir, name, MARKER)
        if not os.path.exists(marker):
            tmp = marker + ".tmp"
            with open(tmp, "w") as f:
                f.write(fp)
            os.replace(tmp, marker)


def existing_buckets(table_dir: str, fp: str | None = None) -> set[int]:
    """Bucket ids safe to SKIP on resume: hive ``bucket=N`` dirs holding
    data AND a completion marker whose fingerprint matches ``fp``.

    With ``fp=None`` any marker is accepted (back-compat listing)."""
    found: set[int] = set()
    if not os.path.isdir(table_dir):
        return found
    for name in os.listdir(table_dir):
        if name.startswith("bucket="):
            sub = os.path.join(table_dir, name)
            marker = os.path.join(sub, MARKER)
            if not (
                os.path.isdir(sub)
                and any(f.endswith(".parquet") for f in os.listdir(sub))
                and os.path.exists(marker)
            ):
                continue
            if fp is not None:
                with open(marker) as fh:
                    if fh.read().strip() != fp:
                        continue
            found.add(int(name.split("=", 1)[1]))
    return found


def drop_incomplete_buckets(table_dir: str, keep: set[int]) -> None:
    """Delete every ``bucket=N`` dir not in ``keep`` — partial writes and
    stale-config orphans.  Without this, recomputation would APPEND files
    into half-written dirs, duplicating rows."""
    if not os.path.isdir(table_dir):
        return
    for name in os.listdir(table_dir):
        if name.startswith("bucket=") and int(name.split("=", 1)[1]) not in keep:
            shutil.rmtree(os.path.join(table_dir, name), ignore_errors=True)


def invalidate(out_dir: str, phase: str, table_dir: str | None = None) -> None:
    """Drop a phase's manifest (and optionally its output) so it recomputes."""
    path = _manifest_file(out_dir, phase)
    if os.path.exists(path):
        os.remove(path)
    if table_dir and os.path.isdir(table_dir):
        shutil.rmtree(table_dir)


class PhaseTimer:
    """Wall-time metric for manifests (measurement only, never an input)."""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.t0
        return False
