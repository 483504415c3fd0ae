"""Table-driven replay for :class:`repro.snooping.machine.BusMachine`.

The bus analogue of :mod:`repro.kernels.directory`: with no evictions,
each block's snoop life is an independent finite state machine over the
per-processor line states (and, for the competitive-update family, the
per-copy staleness counters).  The kernel packs that state into one
integer — ``field_bits`` bits per processor, state index in the low
three bits, counter above — grows a single DFA lazily (bus charges do
not depend on a home node, so one sub-DFA covers every block), and
replays each block's symbol sequence as a tight walk appending one
interned delta index per access.

Finite geometries replay on the same tables: cache sets that can never
evict keep the per-block walks, and each conflict set replays as one
interleaved group walk (:func:`_walk_bus_group`) carrying per-processor
recency order, popping LRU/FIFO victims exactly as
``SetAssociativeCache.insert`` does (a dirty victim is one writeback
transaction; clean replacement is silent on a bus) and re-entering the
victim's walk at its post-eviction state.  Symbol sequences switch to
the 16-bit wide encoding past 128 processors, with chunk-skipping
holder decodes, raising the processor cap to 1024.

Multi-holder bus requests are composed from the compiler's single-holder
probes: every holder's reaction depends only on its own line, and the
requester fill / writer upgrade is the highest-:data:`RANK` candidate
(migratory beats shared beats default — exactly the wired-OR of the
Migratory and Shared bus lines).  A rank tie between *different*
candidates has no wired-OR reading, so the walk aborts to the
reference path rather than guess.

:func:`envelope` lists every gate; :class:`Replay` runs the walks for
batch replay (:func:`try_replay`) and the streaming backend alike.
``try_replay`` returns ``None`` without touching the machine whenever
the replay falls outside the envelope; the caller then runs the
reference path, keeping behavior identical.
"""

from __future__ import annotations

from collections import Counter

from repro.cache.core import InfiniteCache, SetAssociativeCache
from repro.common.errors import ProtocolError
from repro.common.stats import BusStats, CacheStats
from repro.kernels import registry
from repro.kernels.tables import (
    DIRTY_SNOOP,
    RANK,
    SNOOP_STATES,
    KernelUnsupported,
)

# Delta vector layout (all additive):
# 0 read_hits  1 read_misses  2 write_hits  3 write_misses  4 upgrades
# 5 bus read_miss  6 bus write_miss  7 invalidation  8 update
_VEC = 9

#: Delta slot charged for a bus write hit, by transaction kind.
_WH_SLOT = {"invalidation": 7, "update": 8}

#: Processor cap: symbols must fit the 16-bit wide encoding.
_MAX_PROCS = 1024


def _holders(key: int, fb: int, skip: int) -> list[tuple[int, int, int]]:
    """Decode the packed fields into ``(node, state, counter)`` triples,
    skipping the requester (whose line is not snooped).

    Scans eight processors per step so wide-processor keys with sparse
    holders skip empty regions in one shift.
    """
    mask = (1 << fb) - 1
    cb = 8 * fb
    cmask = (1 << cb) - 1
    holders = []
    p = 0
    while key:
        chunk = key & cmask
        if chunk:
            q = p
            while chunk:
                f = chunk & mask
                if f and q != skip:
                    holders.append((q, f & 7, f >> 3))
                chunk >>= fb
                q += 1
        key >>= cb
        p += 8
    return holders


def _prefer(best, cand):
    """Wired-OR composition of per-holder outcomes: highest rank wins.

    ``best``/``cand`` are ``(state, counter)`` pairs (requester fills
    carry counter 0).  Equal candidates collapse; a rank tie between
    different candidates means the single-holder probes cannot be
    composed, so the walk falls back.
    """
    if best is None or cand == best:
        return cand
    rb, rc = RANK[best[0]], RANK[cand[0]]
    if rb == rc:
        raise KernelUnsupported("ambiguous multi-holder snoop combination")
    return cand if rc > rb else best


def _expand(table, node: list, sym: int):
    """Grow one DFA edge by running the integer protocol semantics.

    Mirrors ``BusMachine._access_block`` exactly: the packed fields play
    the caches, the compiled rows play the protocol handlers, and the
    transaction/event charges are evaluated here — once per edge, never
    per access.
    """
    rows = table.rows
    key = node[-1]
    proc = sym >> 1
    fb = table.field_bits
    mask = (1 << fb) - 1
    shift = fb * proc
    pf = (key >> shift) & mask
    ps = pf & 7
    d = [0] * _VEC
    nkey = key
    if not sym & 1:
        if ps:
            d[0] = 1  # read hit: touch plus the protocol's read_hit hook
            s, c = rows.read_hit[(ps, pf >> 3)]
            nkey = key & ~(mask << shift) | (s | c << 3) << shift
        else:
            d[1] = d[5] = 1
            fill = None
            for p, s, c in _holders(key, fb, proc):
                ns, nc, fs, _fd = rows.read_react[(s, c)]
                pos = fb * p
                nkey = nkey & ~(mask << pos) | (ns | nc << 3) << pos
                fill = _prefer(fill, (fs, 0))
            if fill is None:
                fill = (rows.read_cold[0], 0)
            nkey |= (fill[0] | fill[1] << 3) << shift
    elif ps:
        d[2] = 1
        if rows.needs_bus[ps]:
            d[4] = 1  # upgrade
            d[_WH_SLOT[rows.wh_kind]] = 1
            local = None
            for p, s, c in _holders(key, fb, proc):
                ns, nc = rows.wh_remote[(s, c)]
                pos = fb * p
                nkey = nkey & ~(mask << pos) | (ns | nc << 3) << pos
                local = _prefer(local, rows.wh_local[(ps, s, c)])
            if local is None:
                local = rows.wh_local_cold[ps]
            nkey = nkey & ~(mask << shift) | (local[0] | local[1] << 3) << shift
        else:
            # Bus-silent write; the staleness counter is untouched.
            ns = rows.silent[ps]
            nkey = key & ~(mask << shift) | (ns | (pf >> 3) << 3) << shift
    else:
        d[3] = d[6] = 1
        fill = None
        for p, s, c in _holders(key, fb, proc):
            ns, nc, fs, _fd = rows.write_react[(s, c)]
            pos = fb * p
            nkey = nkey & ~(mask << pos) | (ns | nc << 3) << pos
            fill = _prefer(fill, (fs, 0))
        if fill is None:
            fill = (rows.write_cold[0], 0)
        nkey |= (fill[0] | fill[1] << 3) << shift
    # The third slot holds the lazily-computed eviction metadata
    # (miss/removal summary) the group walks need; plain walks never
    # touch it (see _edge_meta).
    edge = node[sym] = [table.node(nkey, nkey), table.intern_delta(tuple(d)), None]
    return edge


def _edge_meta(src_key: int, dst_key: int, sym: int, fb: int):
    """``(is_miss, removed)`` summary of one edge, for set bookkeeping.

    ``is_miss`` is whether the requester filled a line (its field was 0),
    ``removed`` the processors whose copy this access destroyed
    (invalidated holders: field nonzero -> 0).  Computed once per edge
    on first use by a group walk and memoised in the edge's third slot.
    """
    proc = sym >> 1
    mask = (1 << fb) - 1
    cb = 8 * fb
    cmask = (1 << cb) - 1
    is_miss = not (src_key >> (fb * proc)) & mask
    removed = []
    p = 0
    src, dst = src_key, dst_key
    while src:
        schunk = src & cmask
        if schunk != dst & cmask:
            tchunk = dst & cmask
            q = p
            while schunk:
                if (schunk & mask) and not tchunk & mask:
                    removed.append(q)
                schunk >>= fb
                tchunk >>= fb
                q += 1
        src >>= cb
        dst >>= cb
        p += 8
    return (is_miss, tuple(removed))


def _delta_counts(out: list[int]):
    """Occurrence counts of each delta index, via C-level byte scans."""
    distinct = set(out)
    try:
        buf = bytes(out)
    except ValueError:  # more than 256 interned deltas in this table
        return Counter(out).items()
    return [(idx, buf.count(idx)) for idx in distinct]


def _aggregate(table, out: list[int]) -> tuple:
    """Sum a walk's delta indices into a totals tuple."""
    totals = [0] * _VEC
    deltas = table.deltas
    for idx, count in _delta_counts(out):
        totals = [t + count * v for t, v in zip(totals, deltas[idx])]
    return tuple(totals)


def _walk(table, root: list, syms):
    """Replay one block's symbol sequence; return the walk summary.

    ``syms`` is any iterable of symbol ints — the byte string of
    :meth:`block_sequences` or a ``memoryview('H')`` over the wide form.
    """
    node = root
    out: list[int] = []
    append = out.append
    for sym in syms:
        edge = node[sym]
        if edge is None:
            edge = _expand(table, node, sym)
        append(edge[1])
        node = edge[0]
    return _aggregate(table, out), node[-1]


def _walk_bus_group(table, count: int, stream, ways: int, lru: bool):
    """Replay one conflict set's interleaved access stream.

    ``stream`` entries are ``(dense_block_id << 32) | symbol``
    (:meth:`PackedTrace.set_streams`) over ``count`` distinct blocks.
    The walk advances each block's DFA node exactly like the
    independent walks, and additionally mirrors the machine's per-set
    replacement state: ``resident[proc]`` is that processor's recency
    list for this set (oldest first), updated on fills, invalidations,
    and — for LRU — hits.  A fill into a full set pops the victim and
    clears its field; a dirty victim is one writeback transaction,
    clean replacement is silent.  The victim's walk re-enters at the
    post-eviction node: the segment restart.

    Returns ``(totals, final_keys, recency, (writebacks, dirty,
    clean))``.
    """
    fb = table.field_bits
    node_of = table.node
    nodes = [node_of(0, 0) for _ in range(count)]
    resident: dict[int, list[int]] = {}
    out: list[int] = []
    append = out.append
    writebacks = ev_dirty = ev_clean = 0
    dirty_states = DIRTY_SNOOP
    for entry in stream:
        dense = entry >> 32
        sym = entry & 0xFFFFFFFF
        node = nodes[dense]
        edge = node[sym]
        if edge is None:
            edge = _expand(table, node, sym)
        meta = edge[2]
        if meta is None:
            meta = edge[2] = _edge_meta(node[-1], edge[0][-1], sym, fb)
        append(edge[1])
        nodes[dense] = edge[0]
        proc = sym >> 1
        if meta[1]:
            for q in meta[1]:
                resident[q].remove(dense)
        rp = resident.get(proc)
        if rp is None:
            rp = resident[proc] = []
        if meta[0]:
            # A fill; evict the oldest line first when the set is full,
            # exactly as SetAssociativeCache.insert does.
            if len(rp) >= ways:
                victim = rp.pop(0)
                vnode = nodes[victim]
                vkey = vnode[-1]
                vshift = fb * proc
                vf = (vkey >> vshift) & ((1 << fb) - 1)
                if vf & 7 in dirty_states:
                    writebacks += 1
                    ev_dirty += 1
                else:
                    ev_clean += 1
                nvkey = vkey & ~(((1 << fb) - 1) << vshift)
                nodes[victim] = node_of(nvkey, nvkey)
            rp.append(dense)
        elif lru:
            rp.remove(dense)
            rp.append(dense)
    finals = tuple(node[-1] for node in nodes)
    recency = tuple(
        (proc, tuple(ids))
        for proc, ids in sorted(resident.items()) if ids
    )
    return (_aggregate(table, out), finals, recency,
            (writebacks, ev_dirty, ev_clean))


def envelope(machine, packed=None, stream: bool = False) -> str | None:
    """The bus kernel's envelope: the first gate that ``machine`` (and
    ``packed``, when given) fails, or ``None`` inside it.

    Batch replay and the streaming backend (``stream``) both check this
    one list, in this order; each gate's name is the fallback reason
    recorded when it fails:

    * ``disabled`` — the kill switches (:func:`registry.disabled`,
      ``REPRO_NO_KERNEL``);
    * ``step-hook`` / ``checker`` — an observer or the coherence checker
      must see every step, which the kernel elides;
    * ``machine-subclass``, or a subclass's own
      ``kernel_fallback_reason`` — the rows encode exactly
      :class:`BusMachine`'s transitions;
    * ``num-procs`` — more processors than the packed keys hold (1024);
    * ``not-fresh`` — a machine that has already replayed something;
    * ``finite-cache`` (streams only) / ``cache-type`` (neither
      set-associative nor infinite);
    * a protocol family's own ``kernel_fallback_reason`` — the family
      declares itself outside the DFA abstraction (see
      :mod:`repro.protocols.registry`);
    * ``table-unsupported`` — a protocol the compiler cannot lower
      (including every protocol type it does not ship);
    * ``trace-procs`` — a trace naming more processors than the machine;
    * ``symbol-range`` — a processor id outside the symbol encoding;
    * ``replacement-random`` — conflict sets (see
      :meth:`PackedTrace.set_streams`) under random replacement, whose
      RNG draws are unobservable here.
    """
    from repro.snooping.machine import BusMachine

    if not registry.kernels_enabled():
        return "disabled"
    if machine.step_hook is not None:
        return "step-hook"
    if machine._check:
        return "checker"
    if type(machine) is not BusMachine:
        return machine.kernel_fallback_reason
    config = machine.config
    num_procs = config.num_procs
    if num_procs > _MAX_PROCS:
        return "num-procs"
    if (machine.bus_stats != BusStats()
            or machine.cache_stats != CacheStats()
            or any(len(cache) for cache in machine.caches)):
        return "not-fresh"
    cache_type = type(machine.caches[0]) if machine.caches else None
    if cache_type is not InfiniteCache:
        if stream:
            return "finite-cache"
        if cache_type is not SetAssociativeCache:
            return "cache-type"
    protocol = machine.protocol
    family_reason = getattr(protocol, "kernel_fallback_reason", None)
    if family_reason is not None:
        return family_reason
    try:
        registry.bus_table(protocol, num_procs)
    except (KernelUnsupported, ProtocolError):
        return "table-unsupported"
    if packed is None:
        return None
    if packed.num_procs > num_procs:
        return "trace-procs"
    try:
        registry.block_sequences(packed, machine._block_shift)
    except (ValueError, OverflowError):
        return "symbol-range"
    if (registry.conflict_sets(machine, packed)
            and config.cache.replacement == "random"):
        return "replacement-random"
    return None


class Replay(registry.KernelReplay):
    """A bus machine's replay on the compiled tables.

    Bus charges carry no home node or invalidation sizes, so a block's
    state between segments is just its final packed key; a block's
    first walk starts at the root and shares the per-sequence result
    cache.  Conflict sets (finite caches, batch only) replay as group
    walks.
    """

    ENGINE = "bus"
    envelope = staticmethod(envelope)

    def __init__(self, machine):
        super().__init__(machine)
        self._table = registry.bus_table(machine.protocol,
                                         machine.config.num_procs)
        #: block -> final packed state of every block walked (ints
        #: only, so the dict stays out of the cyclic GC's way).
        self._states: dict[int, int] = {}
        self._totals = [0] * _VEC
        self._groups: list[tuple] = []
        self._evictions = [0] * 3

    def _walk_segment(self, packed) -> None:
        machine = self.machine
        seqs, wide = registry.block_sequences(packed, machine._block_shift)
        conflicts = registry.conflict_sets(machine, packed)
        conflict_blocks: set[int] = set()
        for blocks, _stream in conflicts.values():
            conflict_blocks.update(blocks)
        table = self._table
        node_of = table.node
        seq_results = table.seq_results
        states = self._states
        vecs = []
        for block, seq in seqs.items():
            key = states.get(block)
            if key is not None:
                syms = memoryview(seq).cast("H") if wide else seq
                result = _walk(table, node_of(key, key), syms)
            else:
                if block in conflict_blocks:
                    continue
                seq_key = (seq, 1) if wide else seq
                result = seq_results.get(seq_key)
                if result is None:
                    syms = memoryview(seq).cast("H") if wide else seq
                    result = _walk(table, node_of(0, 0), syms)
                    table.cache_seq_result(seq_key, result)
            vec, final_key = result
            vecs.append(vec)
            states[block] = final_key
        totals = self._totals
        for i, column in enumerate(zip(*vecs)):
            totals[i] += sum(column)
        ways = machine.config.cache.associativity
        lru = machine.config.cache.replacement == "lru"
        for blocks, stream in conflicts.values():
            group_key = (ways, lru, stream.tobytes())
            result = table.group_results.get(group_key)
            if result is None:
                result = _walk_bus_group(table, len(blocks), stream, ways, lru)
                table.cache_group_result(group_key, result)
            vec, gfinals, recency, gev = result
            for i, v in enumerate(vec):
                totals[i] += v
            for i, v in enumerate(gev):
                self._evictions[i] += v
            self._groups.append((blocks, gfinals, recency))

    def _commit(self):
        machine = self.machine
        _apply(machine, self._table, self._totals,
                      self._states.items())
        if self._groups:
            _apply_groups(machine, self._table, self._groups)
        if any(self._evictions):
            _apply_evictions(machine, self._evictions)
        return machine.bus_stats


def try_replay(machine, packed):
    """Replay ``packed`` on the kernel and return the stats, or return
    ``None`` — machine untouched, fallback counted — when the
    :func:`envelope` declines the replay or a walk aborts."""
    try:
        replay = Replay(machine)
        replay.feed(packed)
    except registry.Declined:
        return None
    return replay.finish()


def _insert_line(cache, block: int, field: int) -> None:
    """Re-insert one line from its packed field (state + counter)."""
    s = field & 7
    cache.insert(block, SNOOP_STATES[s], s in DIRTY_SNOOP)
    if field >> 3:
        cache.lookup(block).counter = field >> 3


def _apply(machine, table, totals, finals) -> None:
    """Write the walk totals and final per-block lines into the machine.

    ``by_kind`` keys are only created for nonzero totals, matching the
    object engine's lazy population.  Cache lines are re-inserted in
    first-touch block order; these blocks' sets never evicted, so the
    recency order is unobservable and this canonical order is as good
    as the historical one.
    """
    cache_stats = machine.cache_stats
    cache_stats.read_hits += totals[0]
    cache_stats.read_misses += totals[1]
    cache_stats.write_hits += totals[2]
    cache_stats.write_misses += totals[3]
    cache_stats.upgrades += totals[4]
    bus = machine.bus_stats
    bus.read_miss += totals[5]
    bus.write_miss += totals[6]
    bus.invalidation += totals[7]
    bus.update += totals[8]
    for kind, i in (("read_miss", 5), ("write_miss", 6),
                    ("invalidation", 7), ("update", 8)):
        if totals[i]:
            bus.by_kind[kind] += totals[i]
    caches = machine.caches
    fb = table.field_bits
    mask = (1 << fb) - 1
    for block, final_key in finals:
        p = 0
        while final_key:
            f = final_key & mask
            if f:
                _insert_line(caches[p], block, f)
            final_key >>= fb
            p += 1


def _apply_groups(machine, table, groups) -> None:
    """Write the conflict-set walk results into the machine.

    Each processor's lines are re-inserted in the walk's final recency
    order (oldest first), so the machine's per-set ordering — observable
    by any further accesses after the replay — matches the reference path's
    exactly.
    """
    caches = machine.caches
    fb = table.field_bits
    mask = (1 << fb) - 1
    for blocks, gfinals, recency in groups:
        for proc, order in recency:
            cache = caches[proc]
            for dense in order:
                f = (gfinals[dense] >> (fb * proc)) & mask
                _insert_line(cache, blocks[dense], f)


def _apply_evictions(machine, ev_totals) -> None:
    """Charge the group walks' replacement traffic into the machine."""
    writebacks, dirty, clean = ev_totals
    if writebacks:
        bus = machine.bus_stats
        bus.writeback += writebacks
        bus.by_kind["writeback"] += writebacks
    machine.cache_stats.evictions_dirty += dirty
    machine.cache_stats.evictions_clean += clean
