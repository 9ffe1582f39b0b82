"""The fused reference kernel: one generated loop per machine shape.

A simulated data reference on the layered path -- :class:`~repro.core.
machine.Machine`'s general path over :mod:`repro.cache.hierarchy`,
:mod:`repro.cpu.timing` and :mod:`repro.cpu.speculation` -- crosses eight
Python call frames, and at Figure-5 reference volumes those frames, not
the arithmetic, dominate wall time.  :func:`compiled_kernel` returns a
loop, generated from the templates below and compiled with :func:`exec`
against one config's constants, that costs a whole *chunk* of entries
in one frame.  A chunk is three parallel containers: ``kinds[i]`` (one
of the entry kinds below), ``ops[i]`` (its integer operand) and a sparse
``extras`` dict (prefetch line counts, forwarded references'
resolutions).  Two callers feed it, both through :func:`run_stream`:

* the Machine fast path, which appends each cheap operation's kind and
  address to a pending chunk and drains it through the kernel (DESIGN.md
  Section 5b);
* replay, whose decoder yields chunks in the same layout
  (:class:`repro.trace.kernels.SpecializedSession`).

The layered path stays the specification: every float operation here
happens in the same order on the same values as there, so the resulting
:class:`~repro.core.stats.MachineStats` are bit-identical.  The
fast/general, batch and kernel parity suites enforce that contract.
Constants baked in:

* line size, set masks, associativities, latencies, MSHR capacity,
  store-buffer depth, IPC, per-instruction overhead and the malloc/free
  cost model are baked in as literals (floats via :func:`repr`, which
  round-trips exactly);
* the replacement policy is specialized at generation time -- the LRU
  promote-on-hit shift is emitted only for LRU caches, the xorshift
  victim picker only for random ones, so FIFO/random kernels carry no
  dead branches;
* the hot counters (cycle, stall buckets, hit/miss counters, traffic,
  latency sums) are promoted to loop locals and written back to the
  component objects only at the end of the chunk and around the rare
  entry kinds (forwarded references, software prefetches) that run
  against the layered components, which share one spill and reload.

The loop has one arm per reference *class*: the reads (LOAD and the
word-granular ACCESS_R) share one probe arm and the writes (STORE and
ACCESS_W) the other, with ``kind == LOAD`` / ``kind == STORE`` gating
the latency statistics and speculation checks only a counted reference
pays.  Every L1 hit and every MSHR merge completes inside its arm and
``continue``s; a full miss of either class falls out of the dispatch
chain into the one full-miss arm (the L2 probe and fill, the inclusion
drops, the L1 fill and its victim's route, the MSHR allocation), which
ends in one completion per class.  Emitting that arm once instead of
once per entry kind halves the generated source and with it the time
and memory :func:`compile` takes.

With an L1 miss-path mechanism configured, the full-miss arm calls the
hierarchy's :class:`~repro.cache.misspath.MissPath` object at exactly
the points ``MemoryHierarchy.access`` and ``_fill_from_below`` call it:
``probe`` before the L2 (a stage hit fills L1, allocates no MSHR, moves
no fill bytes and is ready ``l1_hit + misspath_hit`` after its start),
``accept_victim`` for every L1 victim (only a dirty spill is written
back to L2), ``on_demand_fill`` after each fill from below, and
``invalidate`` for each L1 line of an L2 victim.  No stage logic is
inlined and no hot local is added, so a mechanism costs the loop one
method call per miss-path event and nothing per hit.

On top of the literal-folding, the loop applies transformations that
are *provably* state-equivalent to the layered path.  **Sentinel tag
probes**: :class:`repro.cache.cache.Cache` keeps ``-1`` in every vacant
tag slot, so way 0 is probed with one compare and the other ways are
scanned to the constant associativity.  **MSHR probe elision**:
``mshr_max``, a sound upper bound on every fill's ready time, skips the
MSHR probe once every fill has completed.  **Residual elision**: when
the hit latency sits inside the OoO window with half a cycle to spare,
a read hit's stall check is dropped, which is exact while every
reference starts below ``2**49`` (see :func:`_elides_residual`; both
callers guard it).  And the loop pays per reference only for what the
reference changes, by six rewrites, each with a boundary stream in
``tests/integration/test_kernel_boundaries.py`` that a wrong version
fails:

1. **Speculation by stretch.**  A load misspeculates only if
   ``_by_final`` maps its final word to another initial word, so while
   every entry maps a word to itself (``DependenceSpeculator.clean``) no
   unforwarded load can, and unforwarded stores keep it so.
   :func:`run_stream` runs :data:`SPEC_COUNTERS` -- no store queue, no
   map probe -- over each stretch that starts clean and ends before the
   next LOAD_FWD/STORE_FWD, then refills the window from the
   stretch's last W STOREs: after W pushes no older entry remains, so
   that is the window ``on_store`` would have left, and the LOAD_FWD
   opening the next stretch checks against it.  From a forwarded store,
   or an unclean window, :data:`SPEC_FULL` runs until W counted stores
   later, when every entry the window held has left it.  The Machine
   never pends a forwarded reference, so a live machine pays full
   bookkeeping only for the W stores after each forwarded store.
2. **Counters from the chunk.**  Every LOAD/STORE/ACCESS_R/ACCESS_W
   graduates one instruction and counts one L1 hit or miss, every
   LOAD/STORE one latency sample: ``instructions``, the latency counts
   and the L1 hit counters are added once per stretch from
   ``kinds.count``, and a miss takes its hit back.  Integer sums
   commute, and the layered call-outs only add to these counters.
   ``loads_checked``/``stores_tracked`` move in lockstep with the
   latency counts, so they are derived at spill time.
3. **No index.**  The loop is ``for kind, address in zip(kinds, ops)``;
   extras come from ``next_extra`` in entry order, the order the
   Machine appends them in and the only one ``Chunk.unpack`` accepts.
4. **MSHR expiry only when the file is full.**  An expired entry is
   invisible: a probe merges only with a fill in flight, and the layered
   allocate expires such entries before reading the file's length or
   minimum.  So they linger, and the expiry scan runs only when
   ``len(inflight) >= MSHR_CAPACITY`` (and the floor says something
   expired), before the full-stall check, which then sees the layered
   path's live entries in its order.  The allocating line's own expired
   entry is deleted first: assigning over it would keep its old position,
   which the full-stall tie-break (first entry with the earliest ready
   time) reads.  ``mshr_max`` only tightens at a scan, so it stays sound.
5. **One completion for every read hit.**  A read hit whose MSHR probe
   finds no fill of its own completes like the way-0 hit: ``ready`` is
   ``start + hit_latency`` either way, so it takes the same residual
   elision and ``(start + hit) - start`` latency sum.
6. **A sorted store buffer.**  Only the multiset of ready times is
   observable, so ``TimingModel.store_completes`` and the kernel keep it
   sorted: expiry is ``bisect_right`` and a slice delete, the earliest
   entry is ``buffer[0]``, inserts use ``insort``; no floor, no scan.

Supported-feature matrix (see DESIGN.md Section 5g): a config is
:func:`specializable` iff it uses no timeline sampling, no event log and
no adaptive relocation.  Everything else -- every L1 miss-path
mechanism, all replacement policies, speculation on or off, any
geometry, latency or cost values -- is covered.  Other configs stay on
the layered path.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from string import Template
from typing import TYPE_CHECKING, Callable

from repro.cache.hierarchy import MemoryHierarchy
from repro.cpu.timing import TimingModel

if TYPE_CHECKING:
    from repro.core.machine import MachineConfig

#: Reference start cycles below this keep the hit-arm residual elision
#: exact (see :func:`_elides_residual`).
CYCLE_GUARD = 2.0 ** 49

# Chunk entry kinds (the per-entry ``kinds`` byte).  LOAD and STORE are
# unforwarded references (final == initial); the _FWD kinds carry their
# forwarding resolution ``(final, hops)`` in ``extras``.
LOAD = 0
STORE = 1
EXEC = 2        # plain computation: instruction count
ACCESS_R = 3    # Read_FBit / Unforwarded_Read: timed read of one word
ACCESS_W = 4    # Unforwarded_Write: timed write of one word
LOAD_FWD = 5
STORE_FWD = 6
PREFETCH = 7    # address; ``extras`` holds the line count
MALLOC = 8      # nbytes (the cost is config-dependent)
FREE = 9        # forwarding-chain length (ditto)
TRAP = 10       # trap handler installed / removed

#: Replacement-mode constants, mirrored from repro.cache.cache.
_LRU = 0
_RANDOM = 2

#: Speculation modes of the generated kernel.
SPEC_OFF = 0        #: speculation_window == 0: no speculator at all.
SPEC_FULL = 1       #: stream may forward references: full bookkeeping.
SPEC_COUNTERS = 2   #: no forwarded references: counters only (see above).


class SpecializationError(Exception):
    """The config uses a feature the specializer does not cover."""


def specializable(config: MachineConfig) -> bool:
    """True iff ``config`` is covered by the generated kernel.

    The exclusions are exactly the features whose accounting lives
    outside the fused reference pipeline: timeline sampling (per
    reference tick hooks), the discrete event log (it reports L2
    inclusion victims the kernel inlines away) and adaptive relocation
    (which implies a timeline).  Such configs run the layered path, on a
    live machine and in replay alike.  Every L1 miss-path mechanism is
    covered: the kernel calls the hierarchy's ``MissPath`` object where
    the layered path does.
    """
    return (
        config.timeline_interval == 0
        and config.events_capacity == 0
        and config.adapt is None
    )


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------

def _emit(lines: list[str], level: int, block: str) -> None:
    """Append ``block`` (written at indent 0) at ``level`` * 4 spaces."""
    pad = "    " * level
    for line in block.strip("\n").split("\n"):
        lines.append(pad + line if line else "")


def _elides_residual(c: dict) -> bool:
    """True when an L1-hit load provably never stalls the OoO window.

    The computed ``ready - start`` for a hit is ``fl(start + h) - start``
    with ``h = hit_latency``; by Sterbenz the subtraction is exact, so
    the value is ``h`` plus the rounding error of the addition, at most
    ``2**-53 * (start + h) < 0.5`` for ``start <`` :data:`CYCLE_GUARD`
    (the run-time guards in ``Machine._drain`` and
    ``SpecializedSession.finish``).  With half a cycle of margin on the
    window the residual is then provably negative and the check -- and
    with it the entire ``ready`` staging -- can be dropped from the hit
    arm.
    """
    return c["L1_HIT_LATENCY"] + 0.5 <= c["OOO_WINDOW"]


#: DependenceSpeculator.on_load + misspeculation_flush, inlined for an
#: unforwarded load (initial == final); loads_checked is derived at
#: spill time.
_ON_LOAD = """\
if by_final:
    word = address & ~7
    store_initial = by_final_get(word)
    if store_initial is not None and store_initial != word:
        spec_stats.misspeculations += 1
        timing.misspeculations += 1
        inst_stall += $MISSPECULATION_PENALTY
        cycle += $MISSPECULATION_PENALTY"""

#: DependenceSpeculator.on_store, inlined (final == initial);
#: stores_tracked is derived at spill time.
_ON_STORE = """\
word = address & ~7
queue_append((word, word))
by_final[word] = word
counts[word] = counts_get(word, 0) + 1
if len(queue) > $SPEC_WINDOW:
    old_final, _old_initial = queue_popleft()
    remaining = counts[old_final] - 1
    if remaining:
        counts[old_final] = remaining
    else:
        del counts[old_final]
        del by_final[old_final]"""


def _load_done(c: dict, spec: int, arm: str) -> str:
    """A read's completion: ``TimingModel.load_completes``, then a LOAD's
    latency sum and speculation check.

    ``arm`` picks what is statically known about ``ready``:

    * ``"hit"`` -- an L1 hit with no fill of its own in flight: ``ready``
      is ``start + hit_latency`` with ``start == cycle`` untouched so
      far.  When :func:`_elides_residual` holds for the config, the
      OoO-window check is dropped (the residual is provably negative,
      see there) and ``start``/``ready`` are never bound to locals; the
      latency sum still performs the identical ``(cycle + hit) - cycle``
      float operations the general path does.
    * ``"bound"`` -- ``start`` and ``ready`` are already bound: the full
      residual check.

    ``kind == LOAD`` gates the latency sum and the check: an ACCESS_R
    charges the same walk and stall, but no latency statistics and no
    dependence speculation.  The count itself comes from the chunk.
    """
    out: list[str] = []
    e = lambda level, block: _emit(out, level, block)  # noqa: E731
    latency = "ready - start"
    if arm == "hit" and _elides_residual(c):
        latency = "(cycle + $L1_HIT_LATENCY) - cycle"
    else:
        if arm == "hit":
            e(0, "start = cycle\nready = start + $L1_HIT_LATENCY")
        e(0, """\
residual = ready - start - $OOO_WINDOW
if residual > 0.0:
    load_stall += residual
    cycle += residual""")
    e(0, f"""\
if kind == {LOAD}:
    load_ord += {latency}""")
    if spec == SPEC_FULL:
        e(1, _ON_LOAD)
    return "\n".join(out)


def _store_done(spec: int) -> str:
    """A write's completion: ``TimingModel.store_completes`` over the
    sorted buffer (its length tracked in a local), then a STORE's
    latency sum and ``on_store``."""
    out: list[str] = []
    _emit(out, 0, f"""\
if blen and buffer[0] <= cycle:
    del buffer[:bisect_right(buffer, cycle)]
    blen = len(buffer)
if blen >= $STORE_BUFFER_DEPTH:
    stall = buffer[0] - cycle
    if stall > 0.0:
        store_stall += stall
        cycle += stall
    del buffer[0]
    blen -= 1
if ready > cycle:
    insort(buffer, ready)
    blen += 1
if kind == {STORE}:
    store_ord += ready - start""")
    if spec == SPEC_FULL:
        _emit(out, 1, _ON_STORE)
    return "\n".join(out)


def _probe_arm(c: dict, spec: int, store: bool) -> str:
    """One reference class's arm: the L1 probe, hits and MSHR merges.

    The reads (LOAD, ACCESS_R) share one arm and the writes (STORE,
    ACCESS_W) the other.  The chunk has already counted every reference
    of the class as an L1 hit; a miss takes its hit back.  Every hit and
    every merge completes in place and ``continue``s; a full miss falls
    out of the arm, with ``line``, ``base``, ``start`` and ``is_write``
    bound, into :func:`_miss_arm`.
    """
    out: list[str] = []
    e = lambda level, block: _emit(out, level, block)  # noqa: E731
    hits, misses, partial, full = (
        ("l1_sh", "l1_sm", "mc_sp", "mc_sf") if store
        else ("l1_lh", "l1_lm", "mc_lp", "mc_lf")
    )
    # TimingModel.execute(1), inlined.  The two cycle adds fold into one
    # left-associated expression -- same operations, same order, same
    # rounding -- and 1 * ipc == ipc exactly, so the multiply is gone.
    # The way-0 probe leans on the Cache tag-sentinel invariant (vacant
    # slots hold -1, which no line address equals), so the occupancy
    # count is only fetched on a miss.
    e(0, """\
cycle = cycle + $IPC + $INST_OVERHEAD
inst_stall += $INST_OVERHEAD
line = address >> $LINE_SHIFT
base = (line & $SET_MASK) * $ASSOC
if tags[base] == line:""")
    if store:
        e(1, "dirty[base] = 1")
    else:
        # The way-0 read hit, the dominant reference: the LRU promote is
        # a no-op there, and the MSHR probe is elided when every
        # in-flight fill has provably completed (``mshr_max`` is a sound
        # upper bound on the latest ready time).
        e(1, "if mshr_max <= cycle:")
        e(2, _load_done(c, spec, "hit"))
        e(2, "continue")
    e(1, "hit = base")
    e(0, "else:")
    # Deeper ways: the sentinel makes a constant-bound scan safe (vacant
    # slots never match).  The way-1 probe is unrolled; deeper ways only
    # exist for associativity > 2.
    e(1, "hit = -1")
    if c["ASSOC"] > 1:
        e(1, """\
if tags[base + 1] == line:
    hit = base + 1""")
        if c["ASSOC"] > 2:
            e(1, """\
else:
    for slot in range(base + 2, base + $ASSOC):
        if tags[slot] == line:
            hit = slot
            break""")
        if c["L1_MODE"] == _LRU:
            # hit > base here, so the promote runs unconditionally; a
            # write leaves the promoted line dirty whatever it was.
            e(1, "if hit >= 0:")
            if not store:
                e(2, "d = dirty[hit]")
            e(2, f"""\
slot = hit
while slot > base:
    tags[slot] = tags[slot - 1]
    dirty[slot] = dirty[slot - 1]
    slot -= 1
tags[base] = line
dirty[base] = {"1" if store else "d"}""")
        elif store:
            e(1, """\
if hit >= 0:
    dirty[hit] = 1""")
    # The MSHR probe runs only while some fill may still be in flight.
    # A probe that finds its line's entry expired leaves it in place:
    # expired entries are invisible to every probe, and an allocation
    # deletes its line's own entry before inserting (see _miss_arm).
    if store:
        e(0, f"""\
start = cycle
pending = None
if mshr_max > start:
    pending = inflight_get(line << $LINE_SHIFT)
    if pending is not None and pending <= start:
        pending = None
if pending is None and hit < 0:
    {hits} -= 1
    {misses} += 1
    {full} += 1
    is_write = 1
else:
    if pending is None:
        ready = start + $L1_HIT_LATENCY
    else:
        ready = pending
        ms_comb += 1
        if hit < 0:
            {hits} -= 1
            {misses} += 1
        {partial} += 1""")
        e(1, _store_done(spec))
        e(1, "continue")
        return "\n".join(out)
    # A read merges with a fill still in flight; a read hit that finds
    # no fill of its own completes like the way-0 hit.
    e(0, f"""\
if mshr_max > cycle:
    pending = inflight_get(line << $LINE_SHIFT)
    if pending is not None and pending > cycle:
        start = cycle
        ready = pending
        ms_comb += 1
        if hit < 0:
            {hits} -= 1
            {misses} += 1
        {partial} += 1""")
    e(2, _load_done(c, spec, "bound"))
    e(2, "continue")
    e(0, "if hit >= 0:")
    e(1, _load_done(c, spec, "hit"))
    e(1, "continue")
    e(0, f"""\
{hits} -= 1
{misses} += 1
{full} += 1
is_write = 0
start = cycle""")
    return "\n".join(out)


def _miss_arm(c: dict, spec: int) -> str:
    """The one full-miss arm, shared by both reference classes.

    ``MemoryHierarchy.access`` from its full-miss classification on,
    fused: the miss-path probe, ``_fill_from_below`` with a single L2
    probe and the inclusion drops, the L1 fill and its victim's route to
    L2, ``MSHRFile.allocate``, then one completion per class.  With a
    mechanism configured the hierarchy's ``MissPath`` object is called
    at exactly the points the layered path calls it; none of its stage
    logic is inlined.
    """
    out: list[str] = []
    e = lambda level, block: _emit(out, level, block)  # noqa: E731
    mp = c["MISSPATH"]
    # With a miss path, the from-below halves run only when no stage
    # supplies the line.
    low = 1 if mp else 0
    e(0, """\
line_addr = line << $LINE_SHIFT
set_index = line & $SET_MASK""")
    if mp:
        e(0, """\
stage_dirty = misspath_probe(line_addr)
if stage_dirty is None:""")
    # MemoryHierarchy._fill_from_below: single L2 probe.
    e(low, """\
l2_line = line_addr >> $L2_SHIFT
l2_set = l2_line & $L2_SET_MASK
l2_base = l2_set * $L2_ASSOC
n2 = l2_set_len[l2_set]
l2_hit = -1
if n2:
    if l2_tags[l2_base] == l2_line:
        l2_hit = l2_base
    elif n2 > 1:
        if l2_tags[l2_base + 1] == l2_line:
            l2_hit = l2_base + 1
        else:
            for slot in range(l2_base + 2, l2_base + n2):
                if l2_tags[slot] == l2_line:
                    l2_hit = slot
                    break
if l2_hit >= 0:""")
    if c["L2_MODE"] == _LRU:
        e(low + 1, """\
if l2_hit != l2_base:
    d = l2_dirty[l2_hit]
    slot = l2_hit
    while slot > l2_base:
        l2_tags[slot] = l2_tags[slot - 1]
        l2_dirty[slot] = l2_dirty[slot - 1]
        slot -= 1
    l2_tags[l2_base] = l2_line
    l2_dirty[l2_base] = d""")
    # Fills probe the L2 as reads regardless of demand access type.
    e(low, """\
    l2_stats.load_hits += 1
    latency = $L2_FILL_LATENCY
else:
    l2_stats.load_misses += 1
    latency = $FULL_MISS_LATENCY
    t2mf += $L2_LINE_SIZE
    if n2 >= $L2_ASSOC:""")
    if c["L2_MODE"] == _RANDOM:
        e(low + 2, """\
state = l2._rng_state
state ^= (state << 13) & 0xFFFFFFFF
state ^= state >> 17
state ^= (state << 5) & 0xFFFFFFFF
l2._rng_state = state
victim = l2_base + state % n2""")
    else:
        e(low + 2, "victim = l2_base + n2 - 1")
    # Inclusion: the L2 victim's L1 lines leave every miss-path stage and
    # then L1.  Both only touch L1-side state, so they may run before the
    # L2 set shifts.
    e(low + 2, """\
victim_dirty = l2_dirty[victim]
l2_stats.evictions += 1
if victim_dirty:
    l2_stats.dirty_evictions += 1
    t2mw += $L2_LINE_SIZE
ev_first = l2_tags[victim] << $L2_SHIFT >> $LINE_SHIFT
for inv_line in range(ev_first, ev_first + $INCLUSION_COUNT):""")
    if mp:
        e(low + 3, "misspath_invalidate(inv_line << $LINE_SHIFT)")
    e(low + 3, """\
inv_set = inv_line & $SET_MASK
inv_base = inv_set * $ASSOC
inv_n = set_len[inv_set]
for slot in range(inv_base, inv_base + inv_n):
    if tags[slot] == inv_line:
        end = inv_base + inv_n - 1
        while slot < end:
            tags[slot] = tags[slot + 1]
            dirty[slot] = dirty[slot + 1]
            slot += 1
        tags[end] = -1
        set_len[inv_set] = inv_n - 1
        break""")
    e(low, """\
        slot = victim
    else:
        l2_set_len[l2_set] = n2 + 1
        slot = l2_base + n2
    while slot > l2_base:
        l2_tags[slot] = l2_tags[slot - 1]
        l2_dirty[slot] = l2_dirty[slot - 1]
        slot -= 1
    l2_tags[l2_base] = l2_line
    l2_dirty[l2_base] = 0
t12f += $LINE_SIZE""")
    if mp:
        # A stage hit fills L1 dirty if the stage copy or the access is.
        e(0, """\
    fill_dirty = is_write
else:
    fill_dirty = stage_dirty | is_write""")
    e(0, """\
n = set_len[set_index]
if n >= $ASSOC:""")
    if c["L1_MODE"] == _RANDOM:
        e(1, """\
state = l1._rng_state
state ^= (state << 13) & 0xFFFFFFFF
state ^= state >> 17
state ^= (state << 5) & 0xFFFFFFFF
l1._rng_state = state
victim = base + state % n""")
    else:
        e(1, "victim = base + n - 1")
    # The victim's route to L2 touches only L2 and the stages, so it may
    # run before the L1 set shifts.
    e(1, """\
victim_dirty = dirty[victim]
l1_ev += 1
if victim_dirty:
    l1_dev += 1""")
    if mp:
        e(1, """\
spilled = misspath_accept(tags[victim] << $LINE_SHIFT, victim_dirty)
if spilled is not None and spilled[1]:
    t12w += $LINE_SIZE
    l2_fill(spilled[0], True)""")
    else:
        e(2, """\
t12w += $LINE_SIZE
l2_fill(tags[victim] << $LINE_SHIFT, True)""")
    e(0, f"""\
    slot = victim
else:
    set_len[set_index] = n + 1
    slot = base + n
while slot > base:
    tags[slot] = tags[slot - 1]
    dirty[slot] = dirty[slot - 1]
    slot -= 1
tags[base] = line
dirty[base] = {"fill_dirty" if mp else "is_write"}""")
    if mp:
        e(0, """\
if stage_dirty is None:
    misspath_fill(line_addr)""")
    # MSHRFile.allocate, inlined.  Expired entries linger until the file
    # fills; only then does the expiry scan run (and only if the floor
    # says an entry has expired).  The line's own entry, if any, has
    # expired (a live one would have merged) and is deleted first, so
    # the insertion order the full-stall tie-break reads is the layered
    # path's, where the probe deleted it.
    e(low, """\
if line_addr in inflight:
    del inflight[line_addr]
begin = start
if len(inflight) >= $MSHR_CAPACITY:
    if mshr_floor <= start:
        for key, r in list(inflight.items()):
            if r <= start:
                del inflight[key]
        if inflight:
            mshr_floor = min(inflight.values())
            mshr_max = max(inflight.values())
        else:
            mshr_floor = INF
            mshr_max = 0.0
    if len(inflight) >= $MSHR_CAPACITY:
        begin = min(inflight.values())
        ms_fs += 1
        ms_fsc += begin - start
        for key, r in list(inflight.items()):
            if r == begin:
                del inflight[key]
                break
ready = begin + latency
inflight[line_addr] = ready
if ready < mshr_floor:
    mshr_floor = ready
if ready > mshr_max:
    mshr_max = ready
ms_alloc += 1""")
    if mp:
        # A stage hit allocates no MSHR and moves no fill bytes.
        e(0, """\
else:
    ready = start + $L1_HIT_LATENCY + $MISSPATH_HIT_LATENCY""")
    e(0, "if is_write:")
    e(1, _store_done(spec))
    e(0, "else:")
    e(1, _load_done(c, spec, "bound"))
    return "\n".join(out)


#: (local, attribute) pairs spilled/reloaded around layered call-outs.
_STATE = [
    ("cycle", "timing.cycle"),
    ("instructions", "timing.instructions"),
    ("inst_stall", "timing.inst_stall_cycles"),
    ("load_stall", "timing.load_stall_cycles"),
    ("store_stall", "timing.store_stall_cycles"),
    ("mshr_floor", "mshr._floor"),
    ("load_count", "load_latency.count"),
    ("load_ord", "load_latency.ordinary_cycles"),
    ("store_count", "store_latency.count"),
    ("store_ord", "store_latency.ordinary_cycles"),
    ("l1_lh", "l1_stats.load_hits"),
    ("l1_lm", "l1_stats.load_misses"),
    ("l1_sh", "l1_stats.store_hits"),
    ("l1_sm", "l1_stats.store_misses"),
    ("l1_ev", "l1_stats.evictions"),
    ("l1_dev", "l1_stats.dirty_evictions"),
    ("mc_lp", "miss_classes.load_partial"),
    ("mc_lf", "miss_classes.load_full"),
    ("mc_sp", "miss_classes.store_partial"),
    ("mc_sf", "miss_classes.store_full"),
    ("ms_comb", "mshr_stats.combines"),
    ("ms_alloc", "mshr_stats.allocations"),
    ("ms_fs", "mshr_stats.full_stalls"),
    ("ms_fsc", "mshr_stats.full_stall_cycles"),
    ("t12f", "traffic.l1_l2_fill_bytes"),
    ("t12w", "traffic.l1_l2_writeback_bytes"),
    ("t2mf", "traffic.l2_mem_fill_bytes"),
    ("t2mw", "traffic.l2_mem_writeback_bytes"),
]


def _flush(spec: int) -> str:
    """Spill the hot locals back to the component objects.

    ``loads_checked``/``stores_tracked`` increment in lockstep with the
    latency counts on every kernel path (counted references bump both;
    ACCESS_R/ACCESS_W bump neither; forwarded references run layered,
    which bumps both), so they are derived from the deltas here instead
    of being maintained per reference.
    """
    lines = [f"{attr} = {local}" for local, attr in _STATE]
    if spec:
        lines.append("spec_stats.loads_checked = spec_lbase + load_count")
        lines.append("spec_stats.stores_tracked = spec_sbase + store_count")
    return "\n".join(lines)


def _reload(spec: int) -> str:
    """(Re)load the hot locals and derived bounds from the components."""
    lines = [f"{local} = {attr}" for local, attr in _STATE]
    if spec:
        lines.append("spec_lbase = spec_stats.loads_checked - load_count")
        lines.append("spec_sbase = spec_stats.stores_tracked - store_count")
    lines.append("mshr_max = max(inflight.values()) if inflight else 0.0")
    lines.append("blen = len(buffer)")
    return "\n".join(lines)


def _exec_inline(count_expr: str) -> str:
    """TimingModel.execute, inlined against the loop locals: one arm."""
    return f"""\
count = {count_expr}
instructions += count
cycle += count * $IPC
overhead = count * $INST_OVERHEAD
inst_stall += overhead
cycle += overhead
continue"""


def kernel_source(config: MachineConfig, spec_mode: int | None = None) -> str:
    """Return the generated chunk-loop source for ``config``.

    ``spec_mode`` is one of the ``SPEC_*`` constants; ``None`` derives
    the conservative mode from the config alone (full bookkeeping
    whenever a speculator exists).  Exposed for the tests (which assert
    the constants really are baked in) and for debugging;
    :func:`compiled_kernel` compiles it.
    """
    if not specializable(config):
        raise SpecializationError(
            "config uses features outside the specializer's matrix "
            "(timeline sampling, event log, or adaptive relocation)"
        )
    if spec_mode is None:
        spec_mode = SPEC_FULL if config.speculation_window > 0 else SPEC_OFF
    c = _constants(config)
    out: list[str] = []
    e = lambda level, block: _emit(out, level, block)  # noqa: E731
    e(0, """\
def _replay(kinds, ops, next_extra, hierarchy, timing, speculator,
            prefetcher, load_latency, store_latency, trap_installed):
    l1 = hierarchy.l1
    l2 = hierarchy.l2
    mshr = hierarchy.mshr
    tags = l1._tags
    dirty = l1._dirty
    set_len = l1._set_len
    l1_stats = l1.stats
    l2_tags = l2._tags
    l2_dirty = l2._dirty
    l2_set_len = l2._set_len
    l2_stats = l2.stats
    l2_fill = l2.fill
    inflight = mshr._inflight
    inflight_get = inflight.get
    mshr_stats = mshr.stats
    miss_classes = hierarchy.miss_classes
    traffic = hierarchy.traffic
    buffer = timing._store_buffer
    access = hierarchy.access
    execute = timing.execute
    load_completes = timing.load_completes
    store_completes = timing.store_completes
    forwarding_trap_cost = timing.forwarding_trap_cost
    forwarding_trap = timing.forwarding_trap
    prefetch_block = prefetcher.prefetch_block""")
    if c["MISSPATH"]:
        e(1, """\
misspath = hierarchy.misspath
misspath_probe = misspath.probe
misspath_accept = misspath.accept_victim
misspath_fill = misspath.on_demand_fill
misspath_invalidate = misspath.invalidate""")
    if spec_mode:
        e(1, """\
spec_stats = speculator.stats
on_load = speculator.on_load
on_store = speculator.on_store""")
    if spec_mode == SPEC_FULL:
        e(1, """\
by_final = speculator._by_final
by_final_get = by_final.get
queue = speculator._queue
queue_append = queue.append
queue_popleft = queue.popleft
counts = speculator._counts
counts_get = counts.get""")
    e(1, _reload(spec_mode))
    # Every LOAD/STORE/ACCESS_R/ACCESS_W graduates one instruction and
    # counts one L1 hit or miss, and every LOAD/STORE one latency
    # sample: the chunk counts them all up front as hits, and a miss
    # takes its hit back.  Integer sums commute, and nothing the loop
    # calls reads these counters (the layered call-outs only add).
    e(1, f"""\
loads = kinds.count({LOAD})
stores = kinds.count({STORE})
reads = loads + kinds.count({ACCESS_R})
writes = stores + kinds.count({ACCESS_W})
instructions += reads + writes
load_count += loads
store_count += stores
l1_lh += reads
l1_sh += writes""")
    # ``address`` is each entry's operand: an address, or the count of
    # an EXEC/MALLOC/FREE, or the handler flag of a TRAP.
    e(1, "for kind, address in zip(kinds, ops):")
    # Dispatch arms ordered by measured frequency across the Figure-5
    # traces (loads ~61%, exec ~15%, word accesses ~8% each, stores ~7%)
    # so the common kinds fall out of the chain early.  Every arm but a
    # full miss ends in ``continue``; a full miss of either class falls
    # out of the chain into the one miss arm after it.
    e(2, f"if kind == {LOAD} or kind == {ACCESS_R}:")
    e(3, _probe_arm(c, spec_mode, store=False))
    e(2, f"elif kind == {EXEC}:")
    e(3, _exec_inline("address"))
    e(2, f"elif kind == {STORE} or kind == {ACCESS_W}:")
    e(3, _probe_arm(c, spec_mode, store=True))
    e(2, f"elif kind == {MALLOC}:")
    e(3, _exec_inline("$MALLOC_BASE + (address >> 6)"))
    e(2, f"elif kind == {FREE}:")
    e(3, _exec_inline("$FREE_BASE + 2 * address"))
    e(2, f"elif kind == {TRAP}:")
    e(3, "trap_installed = address != 0\ncontinue")
    e(2, "else:")
    # Software prefetches and forwarded references are rare; both run
    # against the layered components with the hot locals spilled around
    # them, and take their extras in entry order.  A forwarded
    # LOAD_FWD/STORE_FWD (replay only -- the Machine costs forwarded
    # references on its general path) takes the layered sequence of the
    # forwarded handler of repro.core.machine.layered_costs; only it
    # reads ``trap_installed``.
    e(3, _flush(spec_mode))
    e(3, f"""\
if kind == {PREFETCH}:
    execute(1)
    prefetch_block(address, next_extra(), timing.cycle)
else:
    final, hops = next_extra()
    is_store = kind == {STORE_FWD}
    execute(1)
    hop_cycles = 0.0
    for word in hops:
        hstart = timing.cycle
        result = access(word, False, hstart)
        load_completes(result.ready, True)
        hop_cycles += result.ready - hstart
    fstart = timing.cycle
    result = access(final, is_store, fstart)
    latency_stats = store_latency if is_store else load_latency
    if is_store:
        store_completes(result.ready, True)
    else:
        load_completes(result.ready, True)
    latency_stats.count += 1
    latency_stats.ordinary_cycles += result.ready - fstart
    latency_stats.forwarded += 1
    nhops = len(hops)
    latency_stats.forwarding_cycles += hop_cycles + forwarding_trap_cost(nhops)
    forwarding_trap(nhops)
    if trap_installed:
        timing.stall($USER_TRAP_CYCLES, "inst")""")
    if spec_mode:
        e(4, """\
if is_store:
    on_store(address, final)
elif on_load(address, final):
    timing.misspeculation_flush()""")
    e(3, _reload(spec_mode))
    e(3, "continue")
    e(2, _miss_arm(c, spec_mode))
    e(1, _flush(spec_mode))
    e(1, "return trap_installed")
    source = "\n".join(out) + "\n"
    subst = {
        key: (repr(value) if isinstance(value, float) else str(value))
        for key, value in c.items()
    }
    return Template(source).substitute(subst)


def _constants(config: MachineConfig) -> dict:
    """Derive the baked-in literals for ``config``.

    Geometry-derived values (shifts, masks, modes) come from a throwaway
    hierarchy/timing instance, guaranteeing they match what the general
    path would compute for the same config.  ``MISSPATH`` is a flag, not
    the mechanism: the kernel calls whatever ``MissPath`` the hierarchy
    holds, so every mechanism of one shape shares one kernel.
    """
    hierarchy = MemoryHierarchy(config.hierarchy)
    timing = TimingModel(config.timing)
    cfg = hierarchy.config
    l1 = hierarchy.l1
    l2 = hierarchy.l2
    l2_line_size = max(cfg.l2_line_size, cfg.line_size)
    return {
        "LINE_SHIFT": l1.line_shift,
        "SET_MASK": l1._set_mask,
        "ASSOC": l1.associativity,
        "L1_MODE": l1._mode,
        "L2_SHIFT": l2.line_shift,
        "L2_SET_MASK": l2._set_mask,
        "L2_ASSOC": l2.associativity,
        "L2_MODE": l2._mode,
        "LINE_SIZE": cfg.line_size,
        "L2_LINE_SIZE": l2_line_size,
        "INCLUSION_COUNT": l2_line_size // cfg.line_size,
        "L1_HIT_LATENCY": cfg.l1_hit_latency,
        "L2_FILL_LATENCY": cfg.l2_fill_latency,
        "FULL_MISS_LATENCY": cfg.full_miss_latency,
        "MSHR_CAPACITY": hierarchy.mshr.capacity,
        "IPC": timing._ipc,
        "INST_OVERHEAD": config.timing.inst_overhead,
        "OOO_WINDOW": config.timing.ooo_window,
        "STORE_BUFFER_DEPTH": config.timing.store_buffer_depth,
        "MISSPECULATION_PENALTY": config.timing.misspeculation_penalty,
        "SPEC_WINDOW": config.speculation_window,
        "MALLOC_BASE": config.malloc_base_cost,
        "FREE_BASE": config.free_base_cost,
        "USER_TRAP_CYCLES": config.user_trap_cycles,
        "MISSPATH": 0 if hierarchy.misspath is None else 1,
        "MISSPATH_HIT_LATENCY": cfg.misspath_hit_latency,
    }


#: Compiled kernels, keyed by (constants, spec mode).  A 42-cell sweep
#: compiles only a handful of distinct kernels (one per machine shape).
_KERNEL_CACHE: dict[tuple, Callable] = {}


def compiled_kernel(config: MachineConfig, spec_mode: int | None = None) -> Callable:
    """Return (compiling on first use) the chunk loop for ``config``.

    The loop is called as ``kernel(kinds, ops, next_extra, hierarchy,
    timing, speculator, prefetcher, load_latency, store_latency,
    trap_installed)``, costs every entry of ``kinds``/``ops`` against
    those components, taking each prefetch's or forwarded reference's
    extra from ``next_extra()`` in entry order, and returns the trap
    flag as the entries leave it.  :func:`run_stream` is its one caller.
    """
    if spec_mode is None:
        spec_mode = SPEC_FULL if config.speculation_window > 0 else SPEC_OFF
    key = (tuple(sorted(_constants(config).items())), spec_mode)
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        source = kernel_source(config, spec_mode)
        namespace = {
            "INF": float("inf"), "bisect_right": bisect_right, "insort": insort,
        }
        exec(compile(source, "<fused-reference-kernel>", "exec"), namespace)
        kernel = namespace["_replay"]
        _KERNEL_CACHE[key] = kernel
    return kernel


def _next_forwarded(kinds, start: int) -> int:
    """Index of the first LOAD_FWD/STORE_FWD from ``start`` on, else the end."""
    end = len(kinds)
    for kind in (LOAD_FWD, STORE_FWD):
        found = kinds.find(kind, start, end)
        if found >= 0:
            end = found
    return end


def _after_stores(kinds, start: int, count: int) -> int:
    """Index past the ``count``-th STORE/STORE_FWD from ``start`` on, else the end."""
    for index in range(start, len(kinds)):
        if kinds[index] == STORE or kinds[index] == STORE_FWD:
            count -= 1
            if not count:
                return index + 1
    return len(kinds)


def _last_stores(kinds, ops, count: int) -> list:
    """The operands of the last ``count`` STORE entries, oldest first."""
    found = []
    index = len(kinds)
    while len(found) < count:
        index = kinds.rfind(STORE, 0, index)
        if index < 0:
            break
        found.append(ops[index])
    found.reverse()
    return found


def run_stream(kernels: dict, config: MachineConfig, kinds, ops, extras: dict,
               hierarchy, timing, speculator, prefetcher, load_latency,
               store_latency, trap_installed: bool) -> bool:
    """Cost one chunk of entries; returns the trap flag as it leaves it.

    The kernel's one entry point (``Machine._drain`` and
    ``SpecializedSession.run_chunk`` call it).  ``kernels`` is the
    caller's table of the loops it has used, by speculation mode, each
    compiled the first time a stretch needs it; ``extras`` holds its
    rows in entry order.  With a speculator the chunk runs stretch by stretch (rewrite
    1 above): :data:`SPEC_COUNTERS` from a clean window up to the next
    forwarded reference, then a refill; :data:`SPEC_FULL` from a
    forwarded store, or an unclean window, until ``window`` counted
    stores later.
    """
    next_extra = iter(extras.values()).__next__
    components = hierarchy, timing, speculator, prefetcher, load_latency, store_latency
    n = len(kinds)
    pos = 0
    while pos < n:
        if speculator is None:
            mode, end = SPEC_OFF, n
        elif kinds[pos] != STORE_FWD and speculator.clean():
            mode, end = SPEC_COUNTERS, _next_forwarded(kinds, pos + 1)
        else:
            mode, end = SPEC_FULL, _after_stores(kinds, pos + 1, speculator.window)
        part_kinds, part_ops = (
            (kinds[pos:end], ops[pos:end]) if pos or end < n else (kinds, ops)
        )
        kernel = kernels.get(mode)
        if kernel is None:
            kernel = kernels[mode] = compiled_kernel(config, mode)
        trap_installed = kernel(
            part_kinds, part_ops, next_extra, *components, trap_installed
        )
        if mode == SPEC_COUNTERS:
            speculator.refill(_last_stores(part_kinds, part_ops, speculator.window))
        pos = end
    return trap_installed
