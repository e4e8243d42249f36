"""ComputeReorderings and Swap (paper §5.2).

``ComputeReorderings(h, <)`` proposes pairs ``(r, t)`` of a read event and
the just-completed transaction that could be re-ordered so that ``r`` reads
from ``t``; ``Swap`` performs the re-ordering, producing a history that is
*feasible by construction*: it keeps everything ordered before ``r``, the
transaction ``t`` with its complete causal past, and moves the (truncated)
transaction of ``r`` to the end of the order with ``r`` now reading from
``t``.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..core.events import EventId, EventType, TxnId
from ..core.history import History
from ..core.ordered_history import OrderedHistory
from ..lang.program import Program


def compute_reorderings(oh: OrderedHistory) -> List[Tuple[EventId, TxnId]]:
    """Pairs ``(r, t)`` eligible for re-ordering (§5.2).

    Non-empty only when the last added event is a COMMIT — this keeps the
    at-most-one-pending-transaction invariant, because the swap truncates
    the reader's transaction, making it the unique pending one.  Pairs
    require: ``r`` is an external read, ``t`` (the last completed
    transaction) writes ``var(r)``, ``tr(r) < t`` in the history order, and
    ``tr(r)`` and ``t`` are not causally related.

    Aborted transactions are never proposed as ``t``: they have no visible
    writes, so re-ordering them cannot produce a new history (footnote 5).
    """
    history = oh.history
    last = oh.last
    if history.event(last).type is not EventType.COMMIT:
        return []
    target = last.txn
    target_writes = history.txns[target].writes()
    if not target_writes:
        return []
    # One maintained so∪wr closure answers the causality test for every
    # candidate read — no per-pair reachability search.
    matrix = oh.causal_matrix()
    pairs: List[Tuple[EventId, TxnId]] = []
    for read in history.reads():
        if read.var not in target_writes:
            continue
        reader = read.eid.txn
        if reader == target or not oh.txn_before(reader, target):
            continue
        if matrix.reaches_reflexive(reader, target):
            continue
        pairs.append((read.eid, target))
    # Deterministic exploration order: by position of the read in <.
    pairs.sort(key=lambda pair: oh.index(pair[0]))
    return pairs


def doomed_events(oh: OrderedHistory, pivot: EventId, target: TxnId, strict: bool = True) -> Set[EventId]:
    """The deletion set ``D = {e | pivot < e ∧ (tr(e), target) ∉ (so ∪ wr)*}``.

    With ``strict=False`` the pivot itself is included (the variant used by
    ``readLatest``, §5.3).
    """
    history = oh.history
    index = history.txn_index_map()
    # (tr(e), target) ∈ (so ∪ wr)* as one mask over dense indices.
    kept = oh.causal_matrix().ancestors_mask(target) | (1 << index[target])
    return {eid for eid in oh.events_from(pivot, strict=strict) if not (kept >> index[eid.txn]) & 1}


def swap(oh: OrderedHistory, read: EventId, target: TxnId) -> OrderedHistory:
    """``Swap(h, <, r, t)`` (§5.2): re-order so that ``r`` reads from ``t``.

    Returns the new ordered history: all events before ``r`` are kept, plus
    ``t`` and its causal past; the truncated transaction of ``r`` moves to
    the end of the order, with ``r`` re-pointed (and re-valued) to read from
    ``t``.
    """
    history = oh.history
    doomed = doomed_events(oh, read, target, strict=True)
    pruned = history.remove_events(doomed)
    rebound = pruned.with_read_source(read, target)
    reader = read.txn
    reader_events = [e.eid for e in rebound.txns[reader].events]
    kept = {e.eid for e in rebound.events()}
    order = [eid for eid in oh.order if eid in kept and eid.txn != reader]
    order.extend(reader_events)
    return OrderedHistory(rebound, order)
