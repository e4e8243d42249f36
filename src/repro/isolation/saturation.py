"""Polynomial consistency checks for RC, RA and CC by edge saturation.

The premises of the Read Committed, Read Atomic and Causal axioms never
mention the commit order, so the axiom schema

    premise(t2, read) ⇒ ⟨t2, t1⟩ ∈ co

pins down a fixed set of *forced* commit-order edges.  A total order
satisfying the axioms and extending ``so ∪ wr`` exists iff
``so ∪ wr ∪ forced`` is acyclic:

* (⇒) any witnessing ``co`` contains all forced edges, so the union embeds
  into a total order and is acyclic;
* (⇐) if acyclic, any topological extension is a witnessing ``co`` because
  the premises, being co-free, are unaffected by the choice of extension.

This matches the polynomial-time consistency results of Biswas & Enea
[OOPSLA 2019] for these levels and is cross-validated against the
brute-force reference checker in the tests.

Implementation: the check starts from the history's cached
:class:`~repro.core.bitrel.RelationMatrix` (the ``so ∪ wr`` closure, built
once per history), copies it, and feeds forced edges into the copy
**incrementally**.  Since edges are only ever added, the union is cyclic
iff some single addition closes a cycle — which the maintained closure
answers in O(1) — so the check aborts at the first contradictory edge
instead of saturating fully and re-running a DFS cycle search.
"""

from __future__ import annotations

from typing import List, Optional, Iterator, Set, Tuple

from ..core.bitrel import RelationMatrix, _popcount, iter_bits
from ..core.events import INIT_TXN, Event, EventType, TxnId
from ..core.history import History
from .axioms import Axiom, PremiseMask, axiom_instances


def _check_co_free(axioms: Tuple[Axiom, ...]) -> None:
    for axiom in axioms:
        if not axiom.co_free:
            raise ValueError(f"axiom {axiom.name!r} is not co-free; saturation does not apply")


def iter_forced_edges(history: History, axioms: Tuple[Axiom, ...]) -> Iterator[Tuple[TxnId, TxnId]]:
    """Forced commit-order edges ``(t2, t1)``, streamed as they are found.

    Streaming lets :func:`satisfies_by_saturation` stop at the first edge
    that closes a cycle, skipping the remaining quantifier instances.
    """
    _check_co_free(axioms)
    for t1, t2, read in axiom_instances(history):
        for axiom in axioms:
            IncrementalSaturation.premise_evals += 1
            if axiom.premise(history, {}, t2, read):
                yield t2, t1
                break


def forced_edges(history: History, axioms: Tuple[Axiom, ...]) -> Set[Tuple[TxnId, TxnId]]:
    """All commit-order edges ``(t2, t1)`` forced by co-free axioms."""
    return set(iter_forced_edges(history, axioms))


def satisfies_by_saturation(history: History, axioms: Tuple[Axiom, ...]) -> bool:
    """Polynomial ``h ⊨ I`` for levels whose axioms are all co-free.

    The verdict is served from the history's cached
    :class:`IncrementalSaturation` state when one exists — the DPOR hot
    path derives each child node's state from its parent's
    (:func:`derive_extension_states`), making this O(1) per node.  On a
    cache miss (roots, abort rebuilds, standalone histories) the state is
    batch-built once and cached for any future extensions.
    """
    states = history.saturation_states()
    state = states.get(axioms)
    if state is None:
        if not history.causal_matrix().is_acyclic():
            return False
        state = IncrementalSaturation.from_history(history, axioms)
        states[axioms] = state
    return state.consistent


class IncrementalSaturation:
    """Online saturation state for one co-free-axiom level (RC, RA or CC).

    Where :func:`satisfies_by_saturation` re-derives every forced edge from
    scratch per history, this class maintains ``so ∪ wr ∪ forced`` across a
    *growing* history: the caller feeds transactions, base (``so``/``wr``)
    edges and freshly quantifier-expanded axiom instances as events arrive,
    and :meth:`advance` evaluates only the instances whose premise has not
    fired yet.  Correctness rests on the premises being **monotone** in the
    history prefix: they mention only ``po``/``so``/``wr`` (co-free), all of
    which grow-only, so a premise that is false now can only *become* true
    later — an instance therefore needs re-checking until it fires, never
    after.  The verdict is O(1): the maintained closure's acyclicity flag.

    Pending instances are kept **grouped by read**: one entry ``(t1, read,
    t2s)`` stands for the instances ``(t1, t2, read)`` of every ``t2`` whose
    bit is set in ``t2s`` (bits index :attr:`matrix`'s nodes), in the order
    they were queued.  When the level's one axiom has a bitmask premise
    (RC, RA, CC) and the state's matrix indexes its nodes as the history
    it is advanced against does (:meth:`_masks_apply`: every state built
    by :meth:`from_history` or derived from one), a whole group is decided
    by one AND with the read's premise mask, counting one
    :attr:`premise_evals` tick per instance.  Otherwise (session axioms,
    the online checker's facts view) each instance is evaluated on its
    own, one tick per premise evaluated.

    The one non-monotone step is an **abort**: an aborted transaction's
    writes vanish (§2.2.1), retroactively deleting every instance it was the
    writer of — including forced edges already baked into the closure.
    :meth:`retract_writer` undoes exactly those (fired edges are recorded
    one-step in the matrix, so clearing them and re-closing is exact);
    aborts of write-free transactions need no matrix work at all.
    """

    __slots__ = (
        "axioms",
        "matrix",
        "_pending",
        "_drop_unfired",
        "_prior_source",
        "_premise_mask",
        "fired_edges",
        "fired_writers",
    )

    #: Axiom premise evaluations since interpreter start (batch and
    #: incremental paths both count).  The per-node cost profile of the
    #: exploration reports deltas of this counter — it is the "saturation
    #: ticks" axis of ``scripts/profile_explore.py``.
    premise_evals: int = 0

    def __init__(self, axioms: Tuple[Axiom, ...], matrix: Optional[RelationMatrix] = None):
        _check_co_free(axioms)
        self.axioms = axioms
        #: The maintained ``so ∪ wr ∪ forced`` relation, closure kept by add_edge.
        self.matrix = RelationMatrix((INIT_TXN,)) if matrix is None else matrix
        #: Unfired instances grouped by read: ``(t1, read, t2 bitmask)``.
        self._pending: List[Tuple[TxnId, Event, int]] = []
        #: With only static premises (RC), an unfired instance can never
        #: fire later — evaluate once and drop instead of re-scanning.
        self._drop_unfired = all(axiom.static_premise for axiom in axioms)
        self._prior_source = bool(axioms) and all(
            axiom.prior_source_premise for axiom in axioms
        )
        #: The single axiom's premise mask, if it has one (no registered
        #: level combines mask-premise axioms).
        self._premise_mask: Optional[PremiseMask] = (
            axioms[0].premise_mask if len(axioms) == 1 else None
        )
        #: Forced edges ``(t2, t1)`` actually fired so far.  Premises
        #: are monotone and unaffected by aborts of *other* transactions,
        #: so a fired edge stays valid until its writer ``t2`` aborts —
        #: which lets the online checker (a) retract a never-fired aborted
        #: writer by just dropping its pending instances, and (b) restore
        #: edges fired by since-evicted readers after a rebuild, with no
        #: evict-time re-derivation.
        self.fired_edges: Set[Tuple[TxnId, TxnId]] = set()
        #: Distinct writers with at least one fired edge — the O(1) index
        #: behind :meth:`has_fired_writer` and the monitor's GC gate
        #: ("compact only when every fired edge's writer is committed").
        self.fired_writers: Set[TxnId] = set()

    @classmethod
    def from_history(cls, history: History, axioms: Tuple[Axiom, ...]) -> "IncrementalSaturation":
        """Batch-build the state for an existing history (abort rebuilds).

        Starts from a copy of the history's cached ``so ∪ wr`` closure and
        replays the full quantifier expansion once: one group per read,
        its writers read off the history's per-variable writer mask.
        """
        state = cls(axioms, matrix=history.causal_matrix().copy())
        index = history.txn_index_map()
        writer_mask = history.writer_mask
        pending = state._pending
        for read, t1 in history.wr.items():
            event = history.event(read)
            t2s = writer_mask(event.var) & ~(1 << index[t1])
            if t2s:
                pending.append((t1, event, t2s))
        state.advance(history)
        return state

    def add_transaction(self, tid: TxnId) -> None:
        """Grow the node universe by one (isolated) transaction."""
        self.matrix.add_node(tid)

    def add_base_edge(self, src: TxnId, dst: TxnId) -> None:
        """Record a new ``so`` or ``wr`` edge."""
        if src != dst:
            self.matrix.add_edge(src, dst)

    def add_instance(self, t1: TxnId, t2: TxnId, read: Event) -> None:
        """Queue a new axiom instance ``(t1, t2, read)`` for evaluation."""
        bit = 1 << self.matrix.index_of(t2)
        pending = self._pending
        if pending:
            last_t1, last_read, t2s = pending[-1]
            if last_read is read and last_t1 == t1:
                pending[-1] = (t1, read, t2s | bit)
                return
        pending.append((t1, read, bit))

    def evaluate_instance(self, t1: TxnId, t2: TxnId, read: Event, facts) -> bool:
        """Evaluate one instance right now instead of queuing it.

        Only meaningful for states whose premises are all *static* (RC):
        the verdict is final the moment the instance exists, so the online
        hot path evaluates against its O(1) prefix-facts view and never
        queues.  ``facts`` is anything premise-compatible with a
        :class:`~repro.core.history.History`.  Returns whether the
        instance fired (its forced edge was added).
        """
        for axiom in self.axioms:
            IncrementalSaturation.premise_evals += 1
            if axiom.premise(facts, {}, t2, read):
                self.force_edge(t2, t1)
                return True
        return False

    def force_edge(self, t2: TxnId, t1: TxnId) -> None:
        """Apply and record one forced edge whose premise was decided."""
        self.matrix.add_edge(t2, t1)
        self.fired_edges.add((t2, t1))
        self.fired_writers.add(t2)

    def has_fired_writer(self, tid: TxnId) -> bool:
        """Whether any fired edge is quantified over ``tid`` as writer."""
        return tid in self.fired_writers

    def retract_writer(self, tid: TxnId) -> None:
        """Undo an aborted writer's contribution, in place and exactly.

        An abort retroactively empties ``tid``'s write set (§2.2.1):
        every instance quantifying ``tid`` as writer never existed, so its
        fired edges leave the relation and its pending instances are
        dropped.  Premises are co-free, so un-firing ``tid``'s edges
        cannot un-fire anyone else's — clearing the one-step bits and
        re-closing the matrix (:meth:`RelationMatrix.retract_edges`)
        reproduces exactly the state a from-scratch rebuild without
        ``tid``-as-writer instances would build, at O(live²) bit ops
        instead of a full history re-expansion.
        """
        if tid in self.fired_writers:
            dead_edges = [edge for edge in self.fired_edges if edge[0] == tid]
            self.matrix.retract_edges(dead_edges)
            self.fired_edges.difference_update(dead_edges)
            self.fired_writers.discard(tid)
        if self._pending and tid in self.matrix:
            keep = ~(1 << self.matrix.index_of(tid))
            self._pending = [
                (t1, read, t2s & keep) for t1, read, t2s in self._pending if t2s & keep
            ]

    def advance(self, history: History, affected: Optional[int] = None) -> None:
        """Evaluate pending premises against the current prefix history.

        Instances whose premise holds contribute their forced edge ``⟨t2,
        t1⟩`` to the maintained closure and are retired; the rest stay
        pending.  One pass suffices per fed event: co-free premises cannot
        be enabled by the forced edges this pass adds.

        ``affected`` (bitmask premises only) names, by matrix index, the
        transactions whose reads may have changed premise since the last
        pass; groups of other reads stay pending untested.  Without it
        every pending group is re-tested.

        Once the closure is cyclic the pass is skipped entirely — more
        edges cannot un-close a cycle, and the only event that can restore
        consistency (an abort retracting a writer) goes through a
        :meth:`from_history` rebuild anyway.  This mirrors the batch
        checker's first-contradiction early exit.
        """
        if not self._pending or not self.matrix.is_acyclic():
            return
        if self._masks_apply(history):
            self._advance_masked(history, affected)
        else:
            self._advance_each(history)

    def _masks_apply(self, history) -> bool:
        """Whether the bitmask premise can decide pending groups against
        ``history``: the level has one, and the bits of this state's matrix
        mean the transactions they mean in ``history`` (not so for the
        online checker's facts view, which is no :class:`History`)."""
        return (
            self._premise_mask is not None
            and isinstance(history, History)
            and self.matrix.nodes == history.txn_order()
        )

    def _advance_masked(self, history: History, affected: Optional[int]) -> None:
        """:meth:`advance` by read groups, one premise mask per group."""
        premise_mask = self._premise_mask
        matrix = self.matrix
        nodes = matrix.nodes
        index = history.txn_index_map()
        drop = self._drop_unfired
        pending = self._pending
        still: List[Tuple[TxnId, Event, int]] = []
        ticks = 0
        for pos, group in enumerate(pending):
            t1, read, t2s = group
            if affected is not None and not (affected >> index[read.eid.txn]) & 1:
                still.append(group)
                continue
            fired = t2s & premise_mask(history, read)  # type: ignore[misc]
            remaining = fired
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                self.force_edge(nodes[low.bit_length() - 1], t1)
                if not matrix.is_acyclic():
                    # First contradiction: the verdict is settled for this
                    # history and every append-extension.  The instances
                    # after it stay pending unevaluated (an abort rebuild
                    # discards this state anyway).
                    upto = (low << 1) - 1
                    ticks += _popcount(t2s & upto)
                    left = t2s & ~(upto if drop else fired & upto)
                    if left:
                        still.append((t1, read, left))
                    still.extend(pending[pos + 1 :])
                    IncrementalSaturation.premise_evals += ticks
                    self._pending = still
                    return
            ticks += _popcount(t2s)
            if not drop and t2s != fired:
                still.append((t1, read, t2s & ~fired) if fired else group)
        IncrementalSaturation.premise_evals += ticks
        self._pending = still

    def _advance_each(self, history) -> None:
        """:meth:`advance` one instance at a time, with the per-instance premises."""
        axioms = self.axioms
        matrix = self.matrix
        nodes = matrix.nodes
        drop = self._drop_unfired
        pending = self._pending
        still: List[Tuple[TxnId, Event, int]] = []
        for pos, (t1, read, t2s) in enumerate(pending):
            left = 0
            remaining = t2s
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                t2 = nodes[low.bit_length() - 1]
                fired = False
                for axiom in axioms:
                    IncrementalSaturation.premise_evals += 1
                    if axiom.premise(history, {}, t2, read):
                        fired = True
                        break
                if fired:
                    self.force_edge(t2, t1)
                    if not matrix.is_acyclic():
                        left |= remaining
                        if left:
                            still.append((t1, read, left))
                        still.extend(pending[pos + 1 :])
                        self._pending = still
                        return
                elif not drop:
                    left |= low
            if left:
                still.append((t1, read, left))
        self._pending = still

    def evict(self, drop: Set[TxnId]) -> None:
        """Compact the state to the transactions outside ``drop``.

        The matrix is restricted via
        :meth:`~repro.core.bitrel.RelationMatrix.remove_nodes` (closure
        shortcuts through dropped nodes are preserved), and every pending
        instance mentioning a dropped participant — as source ``t1``,
        writer ``t2`` or reader — is discarded; the surviving groups'
        writer masks are re-indexed to the compacted matrix.  Exactness is
        the caller's contract: the monitor's per-level eviction predicates
        (:mod:`repro.isolation.liveness`) only nominate transactions whose
        dropped instances are provably frozen-false or whose forced edges
        could never lie on a future cycle, and only while the state is
        consistent (evicting nodes of an already-closed cycle could
        otherwise erase the cycle).
        """
        if not drop:
            return
        old = self.matrix
        self.matrix = old.remove_nodes(drop)
        # A fired edge with an evicted endpoint leaves the record: its
        # closure contribution is already baked in (and survives
        # remove_nodes as shortcut edges), and rebuilds are restricted to
        # the live window anyway.
        self.fired_edges = {
            edge for edge in self.fired_edges
            if edge[0] not in drop and edge[1] not in drop
        }
        self.fired_writers = {edge[0] for edge in self.fired_edges}
        if not self._pending:
            return
        keep_mask = 0
        for i, node in enumerate(old.nodes):
            if node not in drop:
                keep_mask |= 1 << i
        plan = RelationMatrix._compress_plan(keep_mask, len(old.nodes))
        compress = RelationMatrix._compress_row
        self._pending = [
            (t1, read, compress(t2s, keep_mask, plan))
            for t1, read, t2s in self._pending
            if t2s & keep_mask and t1 not in drop and read.eid.txn not in drop
        ]

    def prune_pending(self, dead) -> int:
        """Drop pending instances ``dead(t1, t2, read)`` says can never fire.

        ``dead`` must only answer ``True`` for instances whose premise is
        *frozen* false — e.g. RA's one-step ``so ∪ wr`` premise once the
        reading transaction is complete, or CC's causal premise once the
        reader's ancestor cone has no pending transaction.  Returns the
        number of instances dropped.  This is what keeps the monitor's
        pending list O(live window) instead of O(history).
        """
        if not self._pending:
            return 0
        nodes = self.matrix.nodes
        kept: List[Tuple[TxnId, Event, int]] = []
        dropped = 0
        for t1, read, t2s in self._pending:
            left = t2s
            for i in iter_bits(t2s):
                if dead(t1, nodes[i], read):
                    left ^= 1 << i
                    dropped += 1
            if left:
                kept.append((t1, read, left))
        self._pending = kept
        return dropped

    def fork(self) -> "IncrementalSaturation":
        """An independent state to extend for a child history.

        O(n): the matrix rows are copied (word-packed memcpy for ≤ 64
        transactions) and the pending-group list is copied shallowly
        (groups are immutable tuples).  The original is untouched, so a
        parent node's state can be forked once per child branch.
        """
        dup = object.__new__(IncrementalSaturation)
        dup.axioms = self.axioms
        dup.matrix = self.matrix.copy_mutable()
        dup._pending = list(self._pending)
        dup._drop_unfired = self._drop_unfired
        dup._prior_source = self._prior_source
        dup._premise_mask = self._premise_mask
        dup.fired_edges = set(self.fired_edges)
        dup.fired_writers = set(self.fired_writers)
        return dup

    @property
    def static_only(self) -> bool:
        """All premises static: instances decide eagerly, never queue."""
        return self._drop_unfired

    @property
    def prior_source_only(self) -> bool:
        """Every premise is ``⟨t2, read⟩ ∈ wr ∘ po`` (the RC shape): a new
        read's instances reduce to hash lookups in the reader's prior
        wr-source set."""
        return self._prior_source

    @property
    def pending_instances(self) -> int:
        """Number of instances whose premise has not fired yet."""
        pending = self._pending
        return sum(_popcount(t2s) for _, _, t2s in pending) if pending else 0

    @property
    def consistent(self) -> bool:
        """O(1) verdict: ``so ∪ wr ∪ forced`` acyclic on the current prefix."""
        return self.matrix.is_acyclic()


def derive_extension_states(
    parent: History,
    child: History,
    kind: "EventType",
    tid: TxnId,
    event: Optional[Event] = None,
    writer: Optional[TxnId] = None,
) -> None:
    """Derive ``child``'s saturation states from ``parent``'s by diffing.

    ``child`` must be ``parent`` extended by exactly one step of kind
    ``kind`` on transaction ``tid`` (``event`` is the appended event for
    non-BEGIN kinds; ``writer`` the wr-source for an external read).  For
    every axiom set with a state cached on the parent, the child gets a
    state reflecting just the delta — shared outright when the step cannot
    change the verdict, forked and minimally advanced otherwise — instead
    of re-deriving every forced edge from scratch per node.

    The one step this cannot express is an **abort of a transaction with
    writes**: retired instances and already-forced edges would have to be
    retracted.  In that case nothing is derived — the child's cache stays
    empty and :func:`satisfies_by_saturation` falls back to the
    :meth:`IncrementalSaturation.from_history` rebuild (the correctness
    escape hatch).
    """
    states = parent.saturation_states()
    if not states:
        return
    if kind is EventType.ABORT and any(
        e.type is EventType.WRITE for e in parent.txns[tid].events
    ):
        return
    child_states = child.saturation_states()
    for axioms, state in states.items():
        child_states[axioms] = _derive_state(state, parent, child, kind, tid, event, writer)


def _derive_state(
    state: IncrementalSaturation,
    parent: History,
    child: History,
    kind: "EventType",
    tid: TxnId,
    event: Optional[Event],
    writer: Optional[TxnId],
) -> IncrementalSaturation:
    """One derived state; shares ``state`` itself whenever the verdict and
    instance set are provably unchanged by the step."""
    if not state.consistent:
        # Monotone: append-extensions never un-close a cycle (aborts of
        # writers take the rebuild path above), so the inconsistent state
        # is shared verbatim with the whole subtree.  Its matrix may lag
        # the node universe; only the O(1) verdict is ever read.
        return state
    if kind is EventType.BEGIN:
        # New sink node: no reads, no writes — no new instances, and no
        # pending premise can fire through a fresh sink's so edge.
        forked = state.fork()
        forked.add_transaction(tid)
        order = child.sessions[tid.session]
        prev = order[-2] if len(order) > 1 else INIT_TXN
        forked.add_base_edge(prev, tid)
        return forked
    if kind is EventType.READ and writer is not None:
        # New wr edge + new instances quantified over the read (one group:
        # every visible writer of the variable but the source).  The edge
        # can also enable pending so∪wr (RA) / causal (CC) premises — but
        # with bitmask premises only those of reads in ``tid`` or its
        # causal descendants, so only their groups are re-tested.
        assert event is not None
        forked = state.fork()
        forked.add_base_edge(writer, tid)
        index = child.txn_index_map()
        t2s = child.writer_mask(event.var) & ~(1 << index[writer])
        if t2s:
            forked._pending.append((writer, event, t2s))
        causal = child.cached_causal_matrix()
        affected = None if causal is None else (1 << index[tid]) | causal.descendants_mask(tid)
        forked.advance(child, affected)
        return forked
    if kind is EventType.WRITE:
        assert event is not None
        if event.var in parent.txns[tid].writes():
            # Overwrite: writers_of and wr are unchanged — no new
            # instances, no new edges, premises see the same relations.
            return state
        # First write of ``var`` by ``tid``: exactly the instances pairing
        # the new writer with every existing read of ``var`` are new.  A
        # write adds no so/wr edge, so pending instances cannot newly
        # fire — only the fresh instances need evaluating.
        premise_mask = state._premise_mask if state._masks_apply(child) else None
        bit = 1 << state.matrix.index_of(tid)
        forked = None
        for read_eid, t1 in child.wr.items():
            if t1 == tid:
                continue
            read_ev = child.event(read_eid)
            if read_ev.var != event.var:
                continue
            if premise_mask is not None:
                IncrementalSaturation.premise_evals += 1
                fired = bool(premise_mask(child, read_ev) & bit)
            else:
                fired = False
                for axiom in state.axioms:
                    IncrementalSaturation.premise_evals += 1
                    if axiom.premise(child, {}, tid, read_ev):
                        fired = True
                        break
            if fired:
                if forked is None:
                    forked = state.fork()
                forked.force_edge(tid, t1)
            elif not state._drop_unfired:
                if forked is None:
                    forked = state.fork()
                forked._pending.append((t1, read_ev, bit))
        return state if forked is None else forked
    # COMMIT, local READ, write-free ABORT: writes() visibility, wr and so
    # are all unchanged — the state transfers verbatim.
    return state
