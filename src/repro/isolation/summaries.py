"""Shared dense per-transaction summaries for the SER and SI searches.

Both frontier-memoized checkers run on the dense indexing of the history's
cached :class:`~repro.core.bitrel.RelationMatrix` and need the same
pre-computation: ancestor bitmasks for enabledness, per-transaction read
lists (variable index, wr-source index), write lists, and write-footprint
bitmasks.  Extracted here so the two checkers cannot drift apart.

:class:`SearchCounter` is the searches' shared work counter: a
process-wide tally read as a delta around a call, like
:attr:`~repro.core.bitrel.RelationMatrix.word_ops`.
"""

from __future__ import annotations

from typing import List, NamedTuple, Set, Tuple

from ..core.bitrel import RelationMatrix
from ..core.history import History


class SearchCounter:
    """Process-wide work counter of the SER and SI/PC searches."""

    #: DFS nodes visited, memo hits included.
    search_states: int = 0


class DenseSummaries(NamedTuple):
    """Per-transaction summaries on a matrix's dense indexing."""

    #: ``so ∪ wr`` ancestor bitmask per transaction index.
    ancestors: List[int]
    #: (variable index, wr-source transaction index) per external read.
    reads_of: List[Tuple[Tuple[int, int], ...]]
    #: Written variable indices, sorted, per transaction index.
    writes_of: List[Tuple[int, ...]]
    #: Write footprint as a variable bitmask, per transaction index.
    write_mask: List[int]
    #: Number of distinct variables read or written.
    num_vars: int


def dense_summaries(history: History, matrix: RelationMatrix) -> DenseSummaries:
    n = len(matrix)
    variables: Set[str] = set()
    raw_reads: List[List[Tuple[str, int]]] = [[] for _ in range(n)]
    raw_writes: List[List[str]] = [[] for _ in range(n)]
    for tid, log in history.txns.items():
        i = matrix.index_of(tid)
        for event in log.reads():
            if event.eid in history.wr:
                raw_reads[i].append((event.var, matrix.index_of(history.wr[event.eid])))
        raw_writes[i] = sorted(log.writes())
        variables.update(raw_writes[i])
        variables.update(var for var, _ in raw_reads[i])
    var_index = {var: v for v, var in enumerate(sorted(variables))}
    reads_of = [tuple((var_index[var], src) for var, src in pairs) for pairs in raw_reads]
    writes_of = [tuple(var_index[var] for var in vars_) for vars_ in raw_writes]
    write_mask = [sum(1 << var for var in vars_) for vars_ in writes_of]
    return DenseSummaries(
        ancestors=[matrix.ancestors_mask(matrix.node_at(i)) for i in range(n)],
        reads_of=reads_of,
        writes_of=writes_of,
        write_mask=write_mask,
        num_vars=len(var_index),
    )
