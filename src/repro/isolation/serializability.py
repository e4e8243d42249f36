"""Serializability checking by memoized search over commit prefixes.

A history satisfies SER iff there is a total commit order extending
``so ∪ wr`` in which every external read of ``x`` reads from the *last*
previously-committed writer of ``x`` (this is the Fig. 2(d) axiom: every
x-writer committed before the reading transaction must be committed before
the read's source).

The search builds the commit order left to right.  A state is fully
described by the set of committed transactions plus the last committed
writer of each variable, so states are memoized on that pair — this is the
frontier argument of Biswas & Enea [OOPSLA 2019]: for a fixed number of
sessions the number of downward-closed committed sets is polynomial, which
is also why the paper's `explore-ce*(·, SER)` filter stays cheap on
histories with few sessions (§7.3).

Aborted and pending transactions take part in the order (the commit order of
Def. 2.2 is total on *all* transaction logs) but expose no writes.

The search runs on the dense indexing of the history's cached
:class:`~repro.core.bitrel.RelationMatrix`: the committed set is one int
bitmask, and a transaction is enabled iff ``ancestors_mask(t) & ~committed``
is zero — a single word-parallel test against the maintained ``so ∪ wr``
closure (valid because every committed set the search reaches is
closure-downward-closed, so ancestor- and direct-predecessor-completeness
coincide).  No per-check adjacency or predecessor map is rebuilt.

**Witness and hint.**  :func:`ser_witness` returns the commit order the
search found (``init`` first), recorded while the recursion unwinds from
the success, so failing branches pay nothing for it.  It also takes an
optional ``hint``, a preferred order such as an earlier prefix's witness:
at every state the transaction it names first among the uncommitted ones
is tried before the usual index order, under the same enabledness and
last-writer rules as every other candidate.  The hint only reorders the
search, and the failure memo does not depend on the order, so it never
changes the verdict; names the history does not contain are skipped.
:func:`satisfies_ser` is the hint-free ``bool`` form the explore-ce* Valid
filter calls.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Set, Tuple

from ..core.events import INIT_TXN, TxnId
from ..core.history import History
from .summaries import SearchCounter, dense_summaries


def satisfies_ser(history: History) -> bool:
    """Whether ``history`` is serializable.

    Runs on ``history.causal_matrix()`` — callers that already maintain
    the ``so ∪ wr`` closure (the online checker) seed it via
    ``History.adopt_causal_matrix`` so no from-scratch build happens here.
    """
    return _ser_search(history, ()) is not None


def ser_witness(history: History, hint: Sequence[TxnId] = ()) -> Optional[Tuple[TxnId, ...]]:
    """A total commit order (``init`` first) witnessing SER, or None.

    ``hint`` is tried first at every state (see the module docstring); it
    changes how fast a witness is found, never whether one is.
    """
    path = _ser_search(history, hint)
    if path is None:
        return None
    nodes = history.causal_matrix().nodes
    return tuple(nodes[i] for i in path)


def _ser_search(history: History, hint: Sequence[TxnId]) -> Optional[List[int]]:
    """The witness as dense indices in commit order, or None."""
    matrix = history.causal_matrix()
    if not matrix.is_acyclic():
        return None

    n = len(matrix)
    ancestors, reads_of, writes_of, _write_mask, num_vars = dense_summaries(history, matrix)
    index = matrix.index_map()
    hinted = [index[tid] for tid in hint if tid in index]

    full = (1 << n) - 1
    failed: Set[Tuple[int, Tuple[int, ...]]] = set()
    every = range(n)
    visits = 0
    #: The witness, last commit first: appended while unwinding a success.
    path: List[int] = []

    def search(committed: int, last_writer: Tuple[int, ...], pos: int) -> bool:
        nonlocal visits
        visits += 1
        if committed == full:
            return True
        state = (committed, last_writer)
        if state in failed:
            return False
        candidates = every
        if hinted:
            # The hinted step: the first hinted transaction not committed
            # yet (everything before ``pos`` is committed on this path).
            while pos < len(hinted) and committed >> hinted[pos] & 1:
                pos += 1
            if pos < len(hinted):
                candidates = chain((hinted[pos],), every)
        for i in candidates:
            if committed >> i & 1 or ancestors[i] & ~committed:
                continue
            # The SER axiom: each external read must read from the latest
            # committed writer of its variable at this point.
            if any(last_writer[var] != src for var, src in reads_of[i]):
                continue
            if writes_of[i]:
                updated = list(last_writer)
                for var in writes_of[i]:
                    updated[var] = i
                next_writer = tuple(updated)
            else:
                next_writer = last_writer
            if search(committed | (1 << i), next_writer, pos):
                path.append(i)
                return True
        failed.add(state)
        return False

    # init commits first and is the initial last-writer of every variable.
    init = matrix.index_of(INIT_TXN)
    initial_writer = tuple(init for _ in range(num_vars))
    found = search(1 << init, initial_writer, 0)
    SearchCounter.search_states += visits
    if not found:
        return None
    path.append(init)
    path.reverse()
    return path
