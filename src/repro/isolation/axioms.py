"""The axiom schema of the paper (eq. (1), Fig. 2, Fig. A.1).

Every axiom has the shape::

    ∀x ∀t1 ≠ t2 ∀t3.  ⟨t1, t3⟩ ∈ wr_x ∧ t2 writes x ∧ φ(t2, t3/read) ⇒ ⟨t2, t1⟩ ∈ co

where φ varies per isolation level and may mention ``po``/``so``/``wr`` and
the commit order ``co`` itself.  This module represents axioms as premise
predicates evaluated against a candidate *total* commit order and provides
:func:`axiom_instances` (the quantifier expansion) used by the brute-force
reference checker in :mod:`repro.isolation.reference`.

Premises that do not mention ``co`` (Read Committed, Read Atomic, Causal
Consistency) admit the polynomial saturation check of
:mod:`repro.isolation.saturation`.  Those three also come in a bitmask
form: for one read, the set of every ``t2`` that satisfies the premise, by
the history's dense transaction index.  Saturation tests a whole group of
instances sharing a read against that one mask; the per-instance premise
stays the reference (``iter_forced_edges``) and serves the online
checker's facts view and the session-guarantee axioms, which have no mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from ..core.events import INIT_TXN, Event, TxnId
from ..core.history import History

#: Position of each transaction in a candidate total commit order.
CoPositions = Mapping[TxnId, int]

#: φ(history, co_positions, t2, read_event) — the read event identifies both
#: t3 = tr(read) and the variable x = var(read).
Premise = Callable[[History, CoPositions, TxnId, Event], bool]

#: φ's co-free bitmask form: ``mask(history, read)`` has bit ``i`` set iff
#: the premise holds for the transaction of dense index ``i`` as ``t2``.
PremiseMask = Callable[[History, Event], int]


@dataclass(frozen=True)
class Axiom:
    """A named instance of the axiom schema."""

    name: str
    premise: Premise
    #: True when the premise never inspects ``co`` (enables saturation).
    co_free: bool
    #: True when the premise is fully determined the moment its quantifier
    #: instance exists: it inspects only the read's transaction up to the
    #: read (``wr ∘ po``), which is immutable once the read event is
    #: appended.  Lets the online checker evaluate the instance once and
    #: drop it instead of re-scanning it per streamed event; premises over
    #: ``so ∪ wr`` (RA) or its closure (CC) grow with the stream and stay
    #: re-checkable until they fire.
    static_premise: bool = False
    #: True when the premise is exactly "the reader read from ``t2`` at an
    #: earlier position" (``⟨t2, read⟩ ∈ wr ∘ po``).  For an instance
    #: evaluated *the moment its read is appended*, that equals membership
    #: of ``t2`` in the reader's prior wr-source set — the online hot path
    #: then decides it with one hash lookup instead of a log scan.
    prior_source_premise: bool = False
    #: Bitmask form of a co-free premise (see :data:`PremiseMask`).  A mask
    #: may depend only on ``tr(read)``'s log, the wr sources of its reads
    #: and its ``(so ∪ wr)+`` ancestors: then a new wr edge into a
    #: transaction changes only the masks of reads in that transaction and
    #: its causal descendants, and saturation re-tests nothing else.
    premise_mask: Optional[PremiseMask] = None


def axiom_instances(history: History) -> Iterator[Tuple[TxnId, TxnId, Event]]:
    """Expand the quantifiers of the schema for ``history``.

    Yields triples ``(t1, t2, read)`` with ``⟨t1, tr(read)⟩ ∈ wr_x``,
    ``t2 writes x`` and ``t1 ≠ t2``.  Aborted transactions never appear as
    ``t1`` or ``t2`` because their ``writes`` set is empty (§2.2.1).
    """
    writers: Dict[str, List[TxnId]] = {}
    for read, t1 in history.wr.items():
        event = history.event(read)
        var = event.var
        if var not in writers:
            writers[var] = history.writers_of(var)
        for t2 in writers[var]:
            if t2 != t1:
                yield t1, t2, event


def _wr_po_premise(history: History, co: CoPositions, t2: TxnId, read: Event) -> bool:
    """Read Committed: ⟨t2, read⟩ ∈ wr ∘ po.

    Some event po-before the read, in the same transaction, reads from t2.
    """
    t3 = read.eid.txn
    log = history.txns[t3]
    for earlier in log.events[: read.eid.pos]:
        if earlier.is_external_read and history.wr.get(earlier.eid) == t2:
            return True
    return False


def _so_wr_premise(history: History, co: CoPositions, t2: TxnId, read: Event) -> bool:
    """Read Atomic: ⟨t2, t3⟩ ∈ so ∪ wr (one step)."""
    t3 = read.eid.txn
    return history.so_before(t2, t3) or history.wr_edge(t2, t3)


def _causal_premise(history: History, co: CoPositions, t2: TxnId, read: Event) -> bool:
    """Causal Consistency: ⟨t2, t3⟩ ∈ (so ∪ wr)+."""
    return history.causally_before(t2, read.eid.txn)


def _wr_po_mask(history: History, read: Event) -> int:
    """Read Committed as a mask: wr sources of the po-earlier reads of tr(read)."""
    index = history.txn_index_map()
    wr = history.wr
    mask = 0
    for earlier in history.txns[read.eid.txn].events[: read.eid.pos]:
        if earlier.is_external_read:
            source = wr.get(earlier.eid)
            if source is not None:
                mask |= 1 << index[source]
    return mask


def _so_wr_mask(history: History, read: Event) -> int:
    """Read Atomic as a mask: the one-step ``so ∪ wr`` predecessors of tr(read)."""
    t3 = read.eid.txn
    index = history.txn_index_map()
    wr = history.wr
    mask = 0
    if t3 != INIT_TXN and INIT_TXN in index:
        mask = 1 << index[INIT_TXN]
    for earlier in history.sessions.get(t3.session, ())[: t3.index]:
        mask |= 1 << index[earlier]
    for event in history.txns[t3].events:
        if event.is_external_read:
            source = wr.get(event.eid)
            if source is not None:
                mask |= 1 << index[source]
    return mask


def _causal_mask(history: History, read: Event) -> int:
    """Causal Consistency as a mask: the ``(so ∪ wr)+`` ancestors of tr(read)."""
    return history.causal_matrix().ancestors_mask(read.eid.txn)


def _ser_premise(history: History, co: CoPositions, t2: TxnId, read: Event) -> bool:
    """Serializability: ⟨t2, t3⟩ ∈ co."""
    return co[t2] < co[read.eid.txn]


# -- session-guarantee premises (Terry et al. 1994, lifted to the schema) ----------
#
# Each classic session guarantee is one co-free premise — a sub-relation of
# ``(so ∪ wr)+`` — so each admits the same saturation check as RC/RA/CC and
# they compose by union (SESSION = all four, which still sits strictly below
# CC because the compositions never chain more than one ``so`` segment).
# The premises only consult the surface shared by ``History`` and the online
# checker's ``_PrefixFacts`` view (``txns[tid].events``, ``wr``,
# ``so_before``, ``wr_edge``), and they tolerate *absent* transactions
# (``wr_edge`` is total, returning False for unknown ids) so the streaming
# monitor can garbage-collect around them.


def _ryw_premise(history: History, co: CoPositions, t2: TxnId, read: Event) -> bool:
    """Read Your Writes: ⟨t2, t3⟩ ∈ so.

    A write by an earlier transaction of the reader's own session must not
    be undone by reading something older.
    """
    return history.so_before(t2, read.eid.txn)


def _monotonic_reads_premise(history: History, co: CoPositions, t2: TxnId, read: Event) -> bool:
    """Monotonic Reads: ⟨t2, t3⟩ ∈ wr ∘ so.

    Some earlier transaction of the reader's session already read from t2,
    so t2's writes are in the session's past view and must stay visible.
    """
    t3 = read.eid.txn
    return any(
        history.wr_edge(t2, TxnId(t3.session, i)) for i in range(t3.index)
    )


def _monotonic_writes_premise(history: History, co: CoPositions, t2: TxnId, read: Event) -> bool:
    """Monotonic Writes: ⟨t2, t3⟩ ∈ so ∘ wr.

    The reader observed some transaction ``src``; writes made earlier in
    ``src``'s session (t2) must be ordered before anything older the
    reader saw.
    """
    t3 = read.eid.txn
    log = history.txns[t3]
    for event in log.events:
        if event.is_external_read:
            src = history.wr.get(event.eid)
            if src is not None and history.so_before(t2, src):
                return True
    return False


def _writes_follow_reads_premise(history: History, co: CoPositions, t2: TxnId, read: Event) -> bool:
    """Writes Follow Reads: ⟨t2, t3⟩ ∈ wr ∘ so? ∘ wr.

    The reader observed ``src``, and ``src`` (or an earlier transaction of
    ``src``'s session) read from t2 — so src's writes causally follow t2's
    and t2 must be visible first.
    """
    t3 = read.eid.txn
    log = history.txns[t3]
    for event in log.events:
        if not event.is_external_read:
            continue
        src = history.wr.get(event.eid)
        if src is None:
            continue
        if history.wr_edge(t2, src):
            return True
        if any(history.wr_edge(t2, TxnId(src.session, i)) for i in range(src.index)):
            return True
    return False


def _prefix_premise(history: History, co: CoPositions, t2: TxnId, read: Event) -> bool:
    """Prefix (half of SI): ⟨t2, t3⟩ ∈ co* ∘ (wr ∪ so)."""
    t3 = read.eid.txn
    for t4 in history.txns:
        if t4 == t3:
            continue
        if co[t2] <= co[t4] and (history.so_before(t4, t3) or history.wr_edge(t4, t3)):
            return True
    return False


def _conflict_premise(history: History, co: CoPositions, t2: TxnId, read: Event) -> bool:
    """Conflict (other half of SI).

    t3 writes some y also written by a t4 with ⟨t2, t4⟩ ∈ co* and
    ⟨t4, t3⟩ ∈ co.
    """
    t3 = read.eid.txn
    t3_writes = history.txns[t3].writes()
    if not t3_writes:
        return False
    for var in t3_writes:
        for t4 in history.writers_of(var):
            if t4 != t3 and co[t2] <= co[t4] and co[t4] < co[t3]:
                return True
    return False


READ_COMMITTED_AXIOM = Axiom(
    "Read Committed",
    _wr_po_premise,
    co_free=True,
    static_premise=True,
    prior_source_premise=True,
    premise_mask=_wr_po_mask,
)
READ_ATOMIC_AXIOM = Axiom("Read Atomic", _so_wr_premise, co_free=True, premise_mask=_so_wr_mask)
CAUSAL_AXIOM = Axiom("Causal", _causal_premise, co_free=True, premise_mask=_causal_mask)
SERIALIZABILITY_AXIOM = Axiom("Serializability", _ser_premise, co_free=False)
PREFIX_AXIOM = Axiom("Prefix", _prefix_premise, co_free=False)
CONFLICT_AXIOM = Axiom("Conflict", _conflict_premise, co_free=False)
READ_YOUR_WRITES_AXIOM = Axiom("Read Your Writes", _ryw_premise, co_free=True)
MONOTONIC_READS_AXIOM = Axiom("Monotonic Reads", _monotonic_reads_premise, co_free=True)
MONOTONIC_WRITES_AXIOM = Axiom("Monotonic Writes", _monotonic_writes_premise, co_free=True)
WRITES_FOLLOW_READS_AXIOM = Axiom(
    "Writes Follow Reads", _writes_follow_reads_premise, co_free=True
)

#: The four session guarantees compose by union into the SESSION level.
SESSION_AXIOMS: Tuple[Axiom, ...] = (
    READ_YOUR_WRITES_AXIOM,
    MONOTONIC_READS_AXIOM,
    MONOTONIC_WRITES_AXIOM,
    WRITES_FOLLOW_READS_AXIOM,
)

#: Axiom sets per level name, as in Fig. 2 / Fig. A.1 (paper levels) plus
#: the registry extensions (session guarantees, PSI, PC, bounded staleness).
AXIOMS_BY_LEVEL: Dict[str, Tuple[Axiom, ...]] = {
    "RC": (READ_COMMITTED_AXIOM,),
    "RA": (READ_ATOMIC_AXIOM,),
    "CC": (CAUSAL_AXIOM,),
    "SI": (PREFIX_AXIOM, CONFLICT_AXIOM),
    "SER": (SERIALIZABILITY_AXIOM,),
    "TRUE": (),
    "RYW": (READ_YOUR_WRITES_AXIOM,),
    "MR": (MONOTONIC_READS_AXIOM,),
    "MW": (MONOTONIC_WRITES_AXIOM,),
    "WFR": (WRITES_FOLLOW_READS_AXIOM,),
    "SESSION": SESSION_AXIOMS,
    "PC": (PREFIX_AXIOM,),
    "PSI": (CAUSAL_AXIOM, CONFLICT_AXIOM),
    # Bounded staleness: the RC axiom plus the counting order predicate in
    # ORDER_PREDICATES below (not expressible in the implication schema).
    "BS-3": (READ_COMMITTED_AXIOM,),
}

#: Order predicate: an extra whole-order constraint ``P(history, co)`` on a
#: candidate *total* commit order, for levels (bounded staleness) whose
#: definition counts over ``co`` rather than implying single edges.
OrderPredicate = Callable[[History, CoPositions], bool]


def bounded_staleness_predicate(k: int) -> OrderPredicate:
    """At most ``k - 1`` other writers between a read's source and the reader.

    For every external read ``x ←wr t1`` by ``t3``:
    ``|{t2 writes x, t2 ∉ {t1, t3} : co[t1] < co[t2] < co[t3]}| < k``.
    """

    def predicate(history: History, co: CoPositions) -> bool:
        for eid, t1 in history.wr.items():
            t3 = eid.txn
            var = history.event(eid).var
            stale = 0
            for t2 in history.writers_of(var):
                if t2 != t1 and t2 != t3 and co[t1] < co[t2] < co[t3]:
                    stale += 1
                    if stale >= k:
                        return False
        return True

    return predicate


#: Extra whole-order constraints per level name (empty for schema-only levels).
ORDER_PREDICATES: Dict[str, OrderPredicate] = {
    "BS-3": bounded_staleness_predicate(3),
}


def axioms_hold(history: History, co_order: Tuple[TxnId, ...], axioms: Tuple[Axiom, ...]) -> bool:
    """Evaluate ``⟨h, co⟩ ⊨ axioms`` for a *total* commit order ``co_order``."""
    co: Dict[TxnId, int] = {tid: i for i, tid in enumerate(co_order)}
    for t1, t2, read in axiom_instances(history):
        for axiom in axioms:
            if axiom.premise(history, co, t2, read) and not co[t2] < co[t1]:
                return False
    return True
