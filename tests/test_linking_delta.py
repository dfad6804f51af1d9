"""Delta linking: extending a block index with new surfaces equals a full
pass over the union.

``stages/linking.extend_index`` block-keys only the new surfaces and
pair-tests only pairs with a new member inside the blocks they touch.  The
surface map it leads to must be ``Table.equals`` to ``link_entities`` over
a ``block_index`` of the whole union, and the index itself must hold the
same members and pairs.  Three crafted appends pin the cases where an
append changes what was linked before: a new representative (and with it
the cluster's node id), a bridge between two clusters, and a block pushed
past ``MAX_BLOCK`` whose stored pair no other block yields.
"""

import random
import tempfile

import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdf_entity_extraction_ray.stages.linking import (
    BLOCK_ROWS_SCHEMA,
    MAX_BLOCK,
    BlockIndex,
    BlockKeyer,
    block_index,
    extend_index,
    link_entities,
    surfaces_match,
)


# the indexes' members live on disk; removed when the interpreter exits
_INDEX_ROOT = tempfile.TemporaryDirectory(prefix="block_index_")


def _table(rows):
    return pa.table(
        {"type": [t for t, _ in rows], "surface": [s for _, s in rows]},
        schema=pa.schema([("type", pa.string()), ("surface", pa.string())]),
    )


def _full(rows):
    """``block_index`` over ``rows`` (one Ray execution; the rows are
    already distinct, as ``distinct_surfaces`` would give them)."""
    index_dir = tempfile.mkdtemp(dir=_INDEX_ROOT.name)
    return block_index(ray.data.from_arrow(_table(sorted(set(rows)))), index_dir)


def _delta(base, *appends):
    """``_full(base)``, then each append extends the index and writes its
    increment, as the pipeline does."""
    index, _ = _full(base)
    counts = []
    for rows in appends:
        index, increment, c = extend_index(index, _table(rows))
        increment.write(index.index_dir, index.parts[-1])
        counts.append(c)
    return index, counts


def _sorted(tbl):
    return tbl.sort_by([(n, "ascending") for n in tbl.column_names])


def _members(index):
    return pa.Table.from_batches(index.member_batches(), schema=BLOCK_ROWS_SCHEMA)


def _assert_same_as_full(index, union):
    full, _ = _full(union)
    assert link_entities(index).equals(link_entities(full))
    assert _sorted(_members(index)).equals(_sorted(_members(full)))
    assert _sorted(index.pairs).equals(_sorted(full.pairs))
    assert _sorted(index.surfaces).equals(_sorted(full.surfaces))
    # the written index reads back as the one in memory
    read = BlockIndex.read(index.index_dir, index.parts)
    assert read.surfaces.equals(index.surfaces) and read.pairs.equals(index.pairs)


def _node(surface_map, surface):
    rows = surface_map.filter(pc.equal(surface_map.column("surface"), surface))
    return rows.column("node_id")[0].as_py(), rows.column("canonical")[0].as_py()


# a small vocabulary, so random surfaces share words, blocks and matches
_WORDS = ["Acme", "Corp", "Corp.", "Globex", "Inc", "Holdings", "John", "J.", "Smith",
          "Smyth", "Initech", "Llc", "Co", "Zeta", "Q.", "Quixotic"]
_surface = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join)
_row = st.tuples(st.sampled_from(["ORG", "PERSON", "DATE"]), _surface)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    universe=st.lists(_row, min_size=1, max_size=40, unique=True),
    cuts=st.lists(st.integers(0, 40), min_size=1, max_size=3),
)
def test_delta_linking_equals_full_pass_over_union(universe, cuts):
    """Split a random universe into a base and 1-3 appends.  Appends may
    repeat surfaces the index already holds."""
    bounds = sorted({min(c, len(universe)) for c in cuts} | {len(universe)})
    base = universe[: max(1, bounds[0])]
    appends, lo = [], len(base)
    for hi in bounds:
        if hi > lo:
            appends.append(universe[lo:hi] + base[:1])
            lo = hi
    index, counts = _delta(base, *appends)
    _assert_same_as_full(index, universe)
    assert all(c["blocks_retracted"] == 0 for c in counts)


def test_new_surface_changes_representative_and_node_id():
    base = [("ORG", "Acme Corp"), ("ORG", "Acme Corp.")]
    append = [("ORG", "Acme Corp Holdings")]
    before = link_entities(_full(base)[0])
    index, [counts] = _delta(base, append)
    after = link_entities(index)
    assert _node(before, "Acme Corp.")[1] == "Acme Corp."
    assert _node(after, "Acme Corp.")[1] == "Acme Corp Holdings"
    assert _node(after, "Acme Corp.")[0] != _node(before, "Acme Corp.")[0]
    assert counts["surfaces_keyed"] == 1
    _assert_same_as_full(index, base + append)


def test_new_surface_bridges_two_clusters():
    base = [("ORG", "Globex Inc"), ("ORG", "Globex Inc."),
            ("ORG", "Initech Llc"), ("ORG", "Initech Llc.")]
    append = [("ORG", "Globex Inc Initech Llc")]
    before = link_entities(_full(base)[0])
    assert len(set(before.column("node_id").to_pylist())) == 2
    index, _ = _delta(base, append)
    after = link_entities(index)
    assert len(set(after.column("node_id").to_pylist())) == 1
    _assert_same_as_full(index, base + append)


def _fillers(n, seed=7):
    """``n`` ORG surfaces sharing only the word "Zeta"; each other word is
    8 random letters, so no two of them match."""
    rng = random.Random(seed)
    letters = "bcdfghjklmnpqrstvwxz"
    return [("ORG", "Zeta " + "".join(rng.choice(letters) for _ in range(8)).title())
            for _ in range(n)]


def test_block_past_max_block_drops_its_stored_pairs():
    p, q = "Zeta Q. R.", "Zeta Quixotic Rhombus"
    keyer = BlockKeyer()
    # the pair matches, and "w:zeta" is the only block that yields it
    assert surfaces_match(p, q)
    assert keyer.keys_for(p) & keyer.keys_for(q) == {"w:zeta"}
    fillers = _fillers(MAX_BLOCK - 1)
    assert len(set(fillers)) == MAX_BLOCK - 1
    base = [("ORG", p), ("ORG", q)] + fillers[:-1]  # "w:zeta" holds MAX_BLOCK
    append = fillers[-1:]
    base_map = link_entities(_full(base)[0])
    assert _node(base_map, p)[0] == _node(base_map, q)[0]

    index, [counts] = _delta(base, append)
    assert counts["blocks_retracted"] == 1
    after = link_entities(index)
    assert _node(after, p)[0] != _node(after, q)[0]
    _assert_same_as_full(index, base + append)


def test_counts_scale_with_the_append():
    base = [("ORG", "Acme Corp"), ("ORG", "Acme Corp."), ("DATE", "2020-01-01")]
    index, full_counts = _full(base)
    assert full_counts["surfaces_keyed"] == 2 and full_counts["blocks_retracted"] == 0
    assert full_counts["pairs_tested"] >= 1
    # a repeat of a known surface and a new unlinked one key nothing
    _, _, counts = extend_index(index, _table([("ORG", "Acme Corp"), ("DATE", "2021-01-01")]))
    assert counts == {"surfaces_keyed": 0, "pairs_tested": 0, "blocks_retracted": 0}
    append = [("ORG", "Acme Corporation")]
    merged, increment, counts = extend_index(index, _table(append))
    assert counts["surfaces_keyed"] == 1 and increment.surfaces.num_rows == 1
    # one test per block a pair shares, as in the full pass
    union_counts = _full(base + append)[1]
    assert 0 < counts["pairs_tested"] < union_counts["pairs_tested"]
    assert merged.surfaces.num_rows == 4
