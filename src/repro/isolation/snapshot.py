"""Snapshot Isolation and Prefix Consistency via interval semantics.

A history satisfies SI (the Prefix ∧ Conflict axioms of Fig. 2(b,c)) iff its
transactions can be assigned start and commit points on a single timeline
such that

* a transaction starts only after all its ``so ∪ wr`` predecessors have
  committed (session guarantees / co extends so ∪ wr);
* every external read of ``x`` reads from the **last writer of x committed
  before the reader's start** (the snapshot; this captures Prefix);
* two transactions that both write some variable have **disjoint**
  start–commit intervals (the first-committer-wins rule; this captures
  Conflict).

This is the classical timestamp characterisation of (strong session) SI
[Berenson et al. 1995; Cerone & Gotsman, J.ACM 2018], and is cross-validated
against the brute-force axiomatic checker in the tests.

**Prefix Consistency** (PC) is exactly SI minus Conflict — each transaction
still reads a prefix-closed snapshot of the commit order, but conflicting
writers may overlap (lost updates return; the long fork stays forbidden).
Dropping the first-committer-wins rule from the same search decides it:
soundness in both directions follows because the commit points of any
interval assignment form a witnessing ``co`` for Prefix, and conversely a
``co`` satisfying Prefix yields an assignment by starting each transaction
just after its latest ``co*∘(wr ∪ so)`` predecessor commits.

The search interleaves start/commit actions and memoizes failing states on
``(started, committed, last-writer map)`` — polynomial for a fixed number of
sessions by the same frontier argument as the SER checker.

Like the SER checker, the search runs on the dense indexing of the
history's cached :class:`~repro.core.bitrel.RelationMatrix`: ``started``
and ``committed`` are int bitmasks, start-eligibility is one word-parallel
``ancestors_mask(t) & ~committed`` test against the maintained closure, and
first-committer-wins is a write-footprint bitmask intersection over the
active set.  No per-check adjacency or predecessor map is rebuilt.

**Witness and hint.**  :func:`interval_witness` returns the schedule the
search found: ``("start", t)`` and ``("commit", t)`` steps in timeline
order (``init`` is started and committed before the first step).  It is
recorded while the recursion unwinds from the success, so failing branches
pay nothing for it.  The optional ``hint`` is a preferred schedule in the
same form, such as an earlier prefix's witness: at every state the first
hinted step not yet taken is tried before the usual order (commits of
active transactions, then starts), under the same start and commit rules
as every other candidate.  The hint only reorders the search, and the
failure memo does not depend on the order, so it never changes the
verdict; steps naming transactions the history does not contain are
skipped.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Set, Tuple

from ..core.bitrel import iter_bits
from ..core.events import INIT_TXN, TxnId
from ..core.history import History
from .summaries import SearchCounter, dense_summaries

#: One step of an interval schedule: ``("start", t)`` or ``("commit", t)``.
Step = Tuple[str, TxnId]

#: Step kinds, indexed by the low bit of the search's step encoding
#: (``index << 1 | is_commit``).
_KINDS = ("start", "commit")


def satisfies_si(history: History) -> bool:
    """Whether ``history`` satisfies Snapshot Isolation.

    Runs on ``history.causal_matrix()`` — callers that already maintain
    the ``so ∪ wr`` closure (the online checker) seed it via
    ``History.adopt_causal_matrix`` so no from-scratch build happens here.
    """
    return _interval_search(history, first_committer_wins=True) is not None


def satisfies_pc(history: History) -> bool:
    """Whether ``history`` satisfies Prefix Consistency (SI minus Conflict)."""
    return _interval_search(history, first_committer_wins=False) is not None


def interval_witness(
    history: History, first_committer_wins: bool = True, hint: Sequence[Step] = ()
) -> Optional[Tuple[Step, ...]]:
    """An interval schedule witnessing SI (PC without first-committer-wins),
    or None.  ``hint`` is tried first at every state (see the module
    docstring); it changes how fast a witness is found, never whether one is.
    """
    path = _interval_search(history, first_committer_wins, hint)
    if path is None:
        return None
    nodes = history.causal_matrix().nodes
    return tuple((_KINDS[step & 1], nodes[step >> 1]) for step in path)


def _interval_search(
    history: History, first_committer_wins: bool, hint: Sequence[Step] = ()
) -> Optional[List[int]]:
    """The witness as encoded steps (``index << 1 | is_commit``), or None."""
    matrix = history.causal_matrix()
    if not matrix.is_acyclic():
        return None

    n = len(matrix)
    ancestors, reads_of, writes_of, write_mask, num_vars = dense_summaries(history, matrix)
    index = matrix.index_map()
    hinted = [index[tid] << 1 | (kind == "commit") for kind, tid in hint if tid in index]

    full = (1 << n) - 1
    failed: Set[Tuple[int, int, Tuple[int, ...]]] = set()
    starts = range(0, 2 * n, 2)
    visits = 0
    #: The witness, last step first: appended while unwinding a success.
    path: List[int] = []

    def search(started: int, committed: int, last_writer: Tuple[int, ...], pos: int) -> bool:
        nonlocal visits
        visits += 1
        if committed == full:
            return True
        state = (started, committed, last_writer)
        if state in failed:
            return False
        active = started & ~committed
        # Commit an active transaction, else start one.
        candidates = chain([i << 1 | 1 for i in iter_bits(active)], starts)
        if hinted:
            # The hinted step: the first hinted step not taken yet
            # (everything before ``pos`` is taken on this path).
            while pos < len(hinted) and (
                (committed if hinted[pos] & 1 else started) >> (hinted[pos] >> 1) & 1
            ):
                pos += 1
            if pos < len(hinted):
                candidates = chain((hinted[pos],), candidates)
        if first_committer_wins:
            active_writes = 0
            for other in iter_bits(active):
                active_writes |= write_mask[other]
        for step in candidates:
            i = step >> 1
            if step & 1:
                if not active >> i & 1:
                    continue
                if writes_of[i]:
                    updated = list(last_writer)
                    for var in writes_of[i]:
                        updated[var] = i
                    next_writer = tuple(updated)
                else:
                    next_writer = last_writer
                found = search(started, committed | (1 << i), next_writer, pos)
            else:
                # Start a transaction whose causal predecessors have committed.
                if started >> i & 1 or ancestors[i] & ~committed:
                    continue
                # Snapshot reads: every external read sees the snapshot at start.
                if any(last_writer[var] != src for var, src in reads_of[i]):
                    continue
                # First-committer-wins: no overlapping writer of a common
                # variable (SI only; PC lets conflicting writers overlap).
                if first_committer_wins and write_mask[i] & active_writes:
                    continue
                found = search(started | (1 << i), committed, last_writer, pos)
            if found:
                path.append(step)
                return True
        failed.add(state)
        return False

    init = matrix.index_of(INIT_TXN)
    initial_writer = tuple(init for _ in range(num_vars))
    found = search(1 << init, 1 << init, initial_writer, 0)
    SearchCounter.search_states += visits
    if not found:
        return None
    path.reverse()
    return path
