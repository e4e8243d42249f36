"""The Optimality condition of explore-ce: ``swapped`` and ``readLatest`` (§5.3).

Re-orderings must be restricted to avoid exploring the same history on two
branches.  A swap of ``(r, t)`` is enabled only when

* the swapped history is consistent with the exploration level, and
* every read deleted by the swap — and the re-ordered read ``r`` itself —
  (a) has not itself been swapped in the past (``¬swapped``), and
  (b) currently reads from the causally-latest valid write (``readLatest``).

These are exactly the two redundancy sources illustrated by Figs. 12 and 13
of the paper.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..core.bitrel import iter_bits
from ..core.events import EventId, EventType, TxnId
from ..core.history import History
from ..core.ordered_history import OrderedHistory
from ..isolation.base import IsolationLevel
from ..lang.program import Program
from ..semantics.scheduler import NextAction, extend_history
from .swaps import doomed_events


def is_swapped(program: Program, oh: OrderedHistory, read: EventId) -> bool:
    """``swapped(h, <, r)`` (§5.3).

    ``r`` reads from a transaction ``t`` that the scheduler would only have
    produced *after* ``r`` (so their current order must stem from a swap),
    with two refinements that rule out spurious classifications:

    (1) ``t < r`` in the history order and ``t >or r`` in the oracle order;
    (2) there is no transaction ``t'`` before ``tr(r)`` in the oracle order
        and not wholly after ``r`` in the history order that is a causal
        successor of ``t``;
    (3) ``r`` is the po-first read of its transaction reading from ``t``,
        and no po-earlier read of the transaction is itself swapped.

    The second half of (3) realises the paper's reading of the condition —
    "after swapping r and t in h, later read events from the same
    transaction as r can[not] be considered as swapped" (§5.3) — for later
    reads whose source *differs* from ``t``: once an earlier read of the
    transaction was swapped, the transaction's block has been moved behind
    or-later writers, so a subsequent read choosing such a writer through
    ValidWrites is a re-execution, not a swap.  Without this, completeness
    fails (a 4-transaction witness lives in the test suite).
    """
    history = oh.history
    source = history.wr.get(read)
    if source is None:
        return False
    reader = read.txn
    # (1) — ``t < r`` always holds by the footnote-7 invariant.
    if not oh.txn_before_event(source, read):
        return False
    if not program.oracle_before(reader, source):
        return False
    # (2)
    matrix = oh.causal_matrix()
    for other in history.txns:
        if other == reader or not program.oracle_before(other, reader):
            continue
        if oh.event_before_txn(read, other):
            continue
        if matrix.reaches(source, other):
            return False
    # (3)
    reader_log = history.txns[reader]
    for event in reader_log.events[: read.pos]:
        if not event.is_external_read:
            continue
        if history.wr.get(event.eid) == source:
            return False
        if is_swapped(program, oh, event.eid):
            return False
    return True


def _pruned_history(
    oh: OrderedHistory, pivot: EventId, target: TxnId, level: IsolationLevel
) -> Tuple[History, Set[EventId]]:
    """readLatest's pruned history ``h \\ D`` with ``D = {e | pivot ≤ e ∧
    (tr(e), target) ∉ (so ∪ wr)*}`` (§5.3), with its consistency caches
    warm, and the deletion set ``D``.

    Event removal is the non-monotone step saturation cannot diff across,
    so the pruned history starts cache-cold: its closure and its state for
    ``level`` are built once here, and every extension of it (readLatest's
    candidates, the swapped history) derives from them instead of
    rebuilding.
    """
    doomed = doomed_events(oh, pivot, target, strict=False)
    pruned = oh.history.remove_events(doomed)
    pruned.causal_matrix()
    level.satisfies(pruned)
    return pruned, doomed


def read_latest(
    oh: OrderedHistory,
    read: EventId,
    target: TxnId,
    level: IsolationLevel,
    pruned: Optional[History] = None,
) -> bool:
    """``readLatest_I(h, <, r', t)`` (§5.3).

    Whether ``r'`` reads from the ``<``-latest transaction in its causal
    past (computed in the pruned history ``h' = h \\ {e | r' ≤ e ∧
    (tr(e), t) ∉ (so ∪ wr)*}``, i.e. with ``r'`` and its own wr dependency
    removed) from which reading is consistent with ``level``.  ``pruned``
    passes that history in when the caller already has it (see
    :func:`_pruned_history`).

    Candidates are tried latest first, so the first consistent one is the
    answer and the earlier ones are never checked.
    """
    history = oh.history
    current_source = history.wr.get(read)
    if current_source is None:
        return True
    if pruned is None:
        pruned, _ = _pruned_history(oh, read, target, level)
    reader = read.txn
    var = history.event(read).var
    tids = pruned.txn_order()
    # Committed writers of var in the reader's causal past (the reader
    # itself is pending, so never a candidate).
    mask = pruned.writer_mask(var) & pruned.causal_matrix().ancestors_mask(reader)
    committed = [tids[i] for i in iter_bits(mask) if pruned.txns[tids[i]].is_committed]
    committed.sort(key=oh.txn_position, reverse=True)
    for tid in committed:
        # Same derivation as ValidWrites: extend_history diffs the
        # candidate's closure (and saturation states) from pruned's
        # caches, so the consistency check never rebuilds the relation.
        if level.satisfies(_reappend_read(pruned, read, var, tid)):
            return tid == current_source
    return False


def _reappend_read(pruned: History, read: EventId, var: str, writer: TxnId) -> History:
    """``h' ⊕ r' ⊕ wr(t', r')``: put the read back with a new source."""
    reader = read.txn
    log = pruned.txns[reader]
    if len(log.events) != read.pos:
        raise AssertionError(f"pruned log of {reader!r} does not end right before {read!r}")
    return extend_history(pruned, NextAction(EventType.READ, reader, var), writer=writer)


def pruned_swap(
    oh: OrderedHistory,
    read: EventId,
    target: TxnId,
    level: IsolationLevel,
) -> Tuple[OrderedHistory, History, Set[EventId]]:
    """``Swap(h, <, r, t)`` built from readLatest's pruned history for ``r``.

    ``Swap`` keeps exactly the events that readLatest's pruning for ``r``
    keeps, plus ``r`` itself re-pointed to ``t``.  So the swapped history is
    that pruned history with the read re-appended (:func:`_reappend_read`):
    its closure and saturation states are derived from the pruned
    history's instead of rebuilt.  The result equals
    :func:`~repro.dpor.swaps.swap`'s, ``<`` and the order of ``txns``
    included.  Returns the swapped ordered history, the warm pruned
    history and the pruning's deletion set (``r`` included).
    """
    pruned, doomed = _pruned_history(oh, read, target, level)
    swapped = _reappend_read(pruned, read, oh.history.event(read).var, target)
    reader = read.txn
    order = [eid for eid in oh.order if eid.txn != reader and eid not in doomed]
    order.extend(EventId(reader, pos) for pos in range(read.pos + 1))
    return OrderedHistory(swapped, order), pruned, doomed


def optimality(
    program: Program,
    oh: OrderedHistory,
    read: EventId,
    target: TxnId,
    level: IsolationLevel,
) -> Tuple[bool, Optional[OrderedHistory]]:
    """The Optimality predicate gating a swap (§5.3).

    Returns ``(enabled, swapped_history)`` — the swapped history is computed
    as part of the check (its consistency is the first conjunct), so the
    caller reuses it instead of swapping twice.  It comes from
    :func:`pruned_swap`, whose pruned history then answers ``readLatest``
    for ``read`` as well.
    """
    swapped_oh, pruned, doomed = pruned_swap(oh, read, target, level)
    if not level.satisfies(swapped_oh.history):
        return False, None
    # Reads deleted by the swap, plus the re-ordered read itself.
    affected: List[EventId] = [read]
    for event in oh.history.reads():
        if event.eid in doomed and event.eid != read:
            affected.append(event.eid)
    for eid in affected:
        if is_swapped(program, oh, eid):
            return False, None
        if not read_latest(oh, eid, target, level, pruned if eid == read else None):
            return False, None
    return True, swapped_oh
