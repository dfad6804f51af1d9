"""Driver-contract guards: the invariants the grading harness relies on.

These are cheap meta-tests that catch drift before the driver does:
query/oracle key parity, the no-ray.init rule for library code, and the
entry module's shape.
"""

import importlib.util
import os


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _entry_module():
    spec = importlib.util.spec_from_file_location(
        "ray_entry_contract", os.path.join(REPO, "__ray_entry__.py")
    )
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m


def test_query_oracle_key_parity():
    m = _entry_module()
    qs, osql = m.queries(), m.oracle_sql()
    assert set(qs) == set(osql), sorted(set(qs) ^ set(osql))
    assert len(qs) >= 68
    for name, fn in qs.items():
        assert callable(fn), name
    for name, sql in osql.items():
        assert isinstance(sql, str) and sql.strip().lower().startswith(
            ("select", "with")
        ), name


def test_no_ray_init_in_library_code():
    """Library code and __ray_entry__ must never own the Ray session (the
    driver initialises Ray before importing) — only bench.py, scripts/ and
    the test fixture may call ray.init."""
    import ast

    offenders = []
    targets = [os.path.join(REPO, "__ray_entry__.py")]
    for root, _dirs, files in os.walk(os.path.join(REPO, "pdf_entity_extraction_ray")):
        targets.extend(os.path.join(root, f) for f in files if f.endswith(".py"))
    for path in targets:
        with open(path) as f:
            src = f.read()
        lines = src.splitlines()
        for node in ast.walk(ast.parse(src)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "init"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "ray"
            ):
                # the one allowed form: a CLI guarded by is_initialized
                ctx = "\n".join(lines[max(0, node.lineno - 4) : node.lineno + 1])
                if "is_initialized" not in ctx:
                    offenders.append(f"{path}:{node.lineno}")
    assert not offenders, offenders


def test_no_driver_threads_in_pipelines_or_stages():
    """``pipelines/`` and ``stages/`` import neither ``concurrent.futures``
    nor ``threading``.  Ray Data executions started concurrently from
    driver threads race in Ray's path resolution: each read and write
    tries ``from fsspec.implementations.http import HTTPFileSystem``,
    which fails without aiohttp, and concurrent failing imports can meet a
    partly initialised module and raise a plain ``ImportError`` that
    crashes the build.  No module plants a stand-in for that import, so
    every phase runs its executions one after another."""
    import ast

    banned = ("concurrent", "threading")
    offenders = []
    for sub in ("pipelines", "stages"):
        for root, _dirs, files in os.walk(os.path.join(REPO, "pdf_entity_extraction_ray", sub)):
            for f in (f for f in files if f.endswith(".py")):
                path = os.path.join(root, f)
                with open(path) as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        names = [a.name for a in node.names]
                    elif isinstance(node, ast.ImportFrom) and not node.level:
                        names = [node.module or ""]
                    else:
                        continue
                    if any(n.split(".")[0] in banned for n in names):
                        offenders.append(f"{path}:{node.lineno}")
    assert not offenders, offenders


def test_entry_module_shape():
    m = _entry_module()
    assert callable(m.entry)
    assert callable(m.queries)
    assert callable(m.oracle_sql)
