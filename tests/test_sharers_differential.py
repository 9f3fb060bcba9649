"""Differential tests: sparse directory structures vs frozen dense references.

Two layers, matching how the sparse directory could break:

1. **Structure level** -- :class:`repro.mem.sharers.SparseSharerSet`
   against a plain-``set`` reference model under randomized
   add/discard/clear/iterate/query sequences (Hypothesis, 200+ examples
   per property).  The reference computes farthest-sharer hops by brute
   force from raw (x, y) coordinates, independent of the corner
   decomposition under test.
2. **Machine level** -- two identical machines run the same randomized
   coherence trace, one with the production ``SparseSharerSet`` and one
   with a dense drop-in built on a plain ``set``.  Simulated time, every
   memory value, every per-core access counter, every core's cached
   state and the full directory content must come out identical: the
   sparse representation is a pure data-structure swap with zero effect
   on simulated behaviour.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Machine, mesh_profile, tile_gx
from repro.mem.sharers import FEW_MAX, MeshGeometry, SparseSharerSet
from repro.noc.topology import Mesh

# -- structure-level reference model ---------------------------------------


def _identity_geo(width: int, height: int) -> MeshGeometry:
    n = width * height
    return MeshGeometry(width, list(range(n)), n)


class DenseModel:
    """Frozen reference: plain set + brute-force Manhattan geometry."""

    def __init__(self, width: int):
        self.width = width
        self.s = set()

    def add(self, cid):
        self.s.add(cid)

    def discard(self, cid):
        self.s.discard(cid)

    def clear(self):
        self.s.clear()

    def others(self, cid):
        return bool(self.s - {cid})

    def farthest_hop(self, home_node, exclude=-1):
        cand = [c for c in self.s if c != exclude]
        if not cand:
            raise ValueError("empty")
        hx, hy = home_node % self.width, home_node // self.width
        return max(abs(c % self.width - hx) + abs(c // self.width - hy)
                   for c in cand)


def _assert_same_observable(sp, ref, width, height):
    assert len(sp) == len(ref.s)
    assert bool(sp) == bool(ref.s)
    assert list(sp) == sorted(ref.s)          # ascending in both modes
    assert sp == ref.s                        # __eq__ vs plain set
    probe = sorted(ref.s)[:3] + [0, width * height - 1]
    for cid in probe:
        assert (cid in sp) == (cid in ref.s)
        assert sp.others(cid) == ref.others(cid)


_MESH = st.sampled_from([(2, 2), (4, 4), (6, 6), (8, 3), (16, 16), (32, 32)])


@st.composite
def _trace(draw):
    width, height = draw(_MESH)
    n = width * height
    cids = st.integers(0, n - 1)
    op = st.one_of(
        st.tuples(st.just("add"), cids),
        st.tuples(st.just("discard"), cids),
        st.tuples(st.just("clear"), st.just(0)),
        # (home node, exclude cid) geometry probe; exclude == -1 means
        # no exclusion, matching the protocol's default
        st.tuples(st.just("farthest"), st.tuples(
            cids, st.one_of(st.just(-1), cids))),
    )
    return width, height, draw(st.lists(op, min_size=1, max_size=60))


@settings(max_examples=200, deadline=None)
@given(_trace())
def test_sparse_sharers_match_dense_model(trace):
    width, height, ops = trace
    sp = SparseSharerSet(_identity_geo(width, height))
    ref = DenseModel(width)
    for kind, arg in ops:
        if kind == "add":
            sp.add(arg)
            ref.add(arg)
        elif kind == "discard":
            sp.discard(arg)
            ref.discard(arg)
        elif kind == "clear":
            sp.clear()
            ref.clear()
        else:
            home, exclude = arg
            if ref.others(exclude):
                assert sp.farthest_hop(home, exclude) == \
                    ref.farthest_hop(home, exclude)
        _assert_same_observable(sp, ref, width, height)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 35), min_size=FEW_MAX + 1, max_size=40,
                unique=True),
       st.integers(0, 35), st.integers(-1, 35))
def test_bitmap_conversion_is_invisible(members, home, exclude):
    """Crossing FEW_MAX (list -> bitmap) must not change any observable."""
    sp = SparseSharerSet(_identity_geo(6, 6))
    ref = DenseModel(6)
    for cid in members:
        sp.add(cid)
        ref.add(cid)
        sp.add(cid)                 # idempotent in both modes
    assert sp._few is None          # really converted
    _assert_same_observable(sp, ref, 6, 6)
    if ref.others(exclude):
        assert sp.farthest_hop(home, exclude) == ref.farthest_hop(home, exclude)
    # discarding back below FEW_MAX stays in bitmap mode but must still
    # agree (the dirty-aggregate rebuild path)
    for cid in members[:FEW_MAX]:
        sp.discard(cid)
        ref.discard(cid)
        _assert_same_observable(sp, ref, 6, 6)
        if ref.others(exclude):
            assert sp.farthest_hop(home, exclude) == \
                ref.farthest_hop(home, exclude)


@st.composite
def _crossing_trace(draw):
    """A permuted core->node placement on 6x6 or 16x16 plus op bursts
    that grow a set past FEW_MAX (few -> bitmap) and clear it back
    (bitmap -> few), with discards and geometry probes in between."""
    width, height = draw(st.sampled_from([(6, 6), (16, 16)]))
    n = width * height
    placement = draw(st.permutations(range(n)))
    cids = st.integers(0, n - 1)
    burst = st.one_of(
        st.lists(st.tuples(st.just("add"), cids),
                 min_size=FEW_MAX - 2, max_size=2 * FEW_MAX + 2),
        st.lists(st.tuples(st.just("discard"), cids), max_size=4),
        st.lists(st.tuples(st.just("farthest"),
                           st.tuples(st.integers(0, n - 1),
                                     st.one_of(st.just(-1), cids))),
                 min_size=1, max_size=4),
        st.just([("clear", 0)]),
    )
    bursts = draw(st.lists(burst, min_size=1, max_size=12))
    return width, height, placement, [op for b in bursts for op in b]


@settings(max_examples=200, deadline=None)
@given(_crossing_trace())
def test_farthest_hop_and_footprint_across_few_max(trace):
    """Against the mesh itself: ``farthest_hop`` is the brute-force max of
    ``Mesh.hops`` over the members' nodes, in few mode (which scans and
    keeps no aggregates) and bitmap mode alike, and ``nominal_bytes``
    keeps its footprint formula: 8 bytes per few-mode member or one bit
    per id up to the highest bitmap member, plus 64 bytes of aggregates
    in both modes."""
    width, height, placement, ops = trace
    mesh = Mesh(width, height)
    sp = SparseSharerSet(MeshGeometry(width, placement, width * height))
    members = set()
    bitmap = False
    for kind, arg in ops:
        if kind == "add":
            sp.add(arg)
            members.add(arg)
            bitmap = bitmap or len(members) > FEW_MAX
        elif kind == "discard":
            sp.discard(arg)
            members.discard(arg)
        elif kind == "clear":
            sp.clear()
            members.clear()
            bitmap = False
        else:
            home, exclude = arg
            others = [placement[c] for c in members if c != exclude]
            if others:
                assert sp.farthest_hop(home, exclude) == max(
                    mesh.hops(home, node) for node in others)
        assert (sp._few is None) == bitmap
        if not bitmap:
            assert sp._agg is None
            footprint = 8 * len(members)
        else:
            footprint = (max(members, default=-1) + 1 + 7) // 8
        assert sp.nominal_bytes() == footprint + 64
        assert list(sp) == sorted(members)


def test_sharers_long_random_walk():
    """Seeded long-run soak across mesh sizes (non-hypothesis): exercises
    many dirty-rebuild cycles and the protocol's exact call pattern
    (add / clear / others / farthest with the requester excluded)."""
    for seed, (width, height) in enumerate([(6, 6), (16, 16), (32, 32)]):
        rng = random.Random(seed)
        n = width * height
        sp = SparseSharerSet(_identity_geo(width, height))
        ref = DenseModel(width)
        for _ in range(2_000):
            r = rng.random()
            cid = rng.randrange(n)
            if r < 0.5:
                sp.add(cid)
                ref.add(cid)
            elif r < 0.7:
                sp.discard(cid)
                ref.discard(cid)
            elif r < 0.75:
                sp.clear()
                ref.clear()
            else:
                home = rng.randrange(n)
                if ref.others(cid):
                    assert sp.farthest_hop(home, exclude=cid) == \
                        ref.farthest_hop(home, exclude=cid)
            assert len(sp) == len(ref.s)
        _assert_same_observable(sp, ref, width, height)


# -- machine-level differential trace harness ------------------------------


class DenseSharerSet:
    """Dense drop-in for the directory: the pre-refactor representation
    (a plain set per line), wrapped in the SparseSharerSet API."""

    def __init__(self, geo: MeshGeometry):
        self._geo = geo
        self._s = set()

    def __len__(self):
        return len(self._s)

    def __bool__(self):
        return bool(self._s)

    def __contains__(self, cid):
        return cid in self._s

    def __iter__(self):
        return iter(sorted(self._s))

    def add(self, cid):
        self._s.add(cid)

    def discard(self, cid):
        self._s.discard(cid)

    def clear(self):
        self._s.clear()

    def others(self, cid):
        return bool(self._s - {cid})

    def farthest_hop(self, home_node, exclude=-1):
        geo = self._geo
        hu, hv = geo.node_u[home_node], geo.node_v[home_node]
        best = None
        for c in self._s:
            if c == exclude:
                continue
            d = max(geo.core_u[c] - hu, hu - geo.core_u[c],
                    geo.core_v[c] - hv, hv - geo.core_v[c])
            if best is None or d > best:
                best = d
        if best is None:
            raise ValueError("empty")
        return best

    def nominal_bytes(self):
        return 8 * len(self._s)


def _coherence_trace(cfg, nthreads, naddrs, ops_each, seed):
    """Run one randomized load/store/faa/cas trace; return the full
    observable state (simulated time, values, counters, directory)."""
    machine = Machine(cfg)
    addrs = [machine.mem.alloc(1, isolated=True) for _ in range(naddrs)]
    results = []

    def script(ctx, rng):
        def prog(ctx=ctx, rng=rng):
            for _ in range(ops_each):
                a = addrs[rng.randrange(naddrs)]
                r = rng.random()
                if r < 0.4:
                    v = yield from ctx.load(a)
                    results.append(("ld", ctx.tid, v))
                elif r < 0.7:
                    yield from ctx.store(a, rng.randrange(100))
                elif r < 0.9:
                    v = yield from ctx.faa(a, 1)
                    results.append(("faa", ctx.tid, v))
                else:
                    ok = yield from ctx.cas(a, 0, rng.randrange(100))
                    results.append(("cas", ctx.tid, ok))
                yield from ctx.work(rng.randrange(0, 40))
        return prog()

    # spread across the mesh: long NoC paths make the farthest-sharer
    # arithmetic matter
    stride = max(1, machine.cfg.num_cores // nthreads)
    ctxs = [machine.thread(t, core_id=(t * stride) % machine.cfg.num_cores)
            for t in range(nthreads)]
    for t, ctx in enumerate(ctxs):
        machine.spawn(ctx, script(ctx, random.Random(seed * 1009 + t)))
    machine.run()

    directory = {
        line: (entry.owner, frozenset(entry.sharers))
        for line, entry in machine.mem._lines.items()
    }
    cached = {(c.cid, a): machine.mem.cached_state(c.cid, a)
              for c in machine.cores[:machine.cfg.num_cores] for a in addrs}
    return {
        "now": machine.now,
        "events": machine.sim.events_processed,
        "values": [machine.mem.peek(a) for a in addrs],
        "results": results,
        "loads": [c.loads for c in machine.cores],
        "stalls": [c.stall_mem for c in machine.cores],
        "directory": directory,
        "cached": cached,
    }


def test_directory_differential_dense_vs_sparse(monkeypatch):
    """Identical randomized coherence traces under the sparse directory
    and the dense reference must produce identical observables -- on the
    paper's 6x6 and on a 16x16 big mesh."""
    import repro.mem.cache as cache_mod

    for cfg_fn in (tile_gx, lambda: mesh_profile(16, 16)):
        for seed in range(4):
            sparse = _coherence_trace(cfg_fn(), nthreads=6, naddrs=5,
                                      ops_each=30, seed=seed)
            monkeypatch.setattr(cache_mod, "SparseSharerSet", DenseSharerSet)
            try:
                dense = _coherence_trace(cfg_fn(), nthreads=6, naddrs=5,
                                         ops_each=30, seed=seed)
            finally:
                monkeypatch.setattr(cache_mod, "SparseSharerSet",
                                    SparseSharerSet)
            assert sparse == dense


def test_directory_differential_cache_atomics(monkeypatch):
    """Same differential on the x86-like profile, where atomics execute
    at the cache (CacheAtomics) instead of the memory controller --
    tile-gx above covers the controller path and the ``invalidate_all``
    entry reclamation behind it; this covers the other rmw pipeline."""
    import repro.mem.cache as cache_mod
    from repro.machine import x86_like

    for seed in range(3):
        sparse = _coherence_trace(x86_like(), nthreads=5, naddrs=4,
                                  ops_each=25, seed=seed)
        monkeypatch.setattr(cache_mod, "SparseSharerSet", DenseSharerSet)
        try:
            dense = _coherence_trace(x86_like(), nthreads=5, naddrs=4,
                                     ops_each=25, seed=seed)
        finally:
            monkeypatch.setattr(cache_mod, "SparseSharerSet", SparseSharerSet)
        assert sparse == dense
