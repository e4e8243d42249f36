"""Bitmask premises agree with the per-instance reference premises.

Saturation decides a group of axiom instances that share a read with one
AND against the read's premise mask (``Axiom.premise_mask``).  These tests
pin the masks to the per-instance ``Axiom.premise`` they replace on the hot
path: bit ``t2`` of each mask must equal the premise for every transaction
``t2``, and the forced edges the masks select must equal the reference
``forced_edges``.  The corpus is every committed fuzzer gadget plus seeded
random histories from the trace fuzzer (aborts included) and the test
helpers (a pending transaction included).
"""

import random

import pytest

from repro.core.bitrel import RelationMatrix
from repro.isolation.axioms import AXIOMS_BY_LEVEL, axiom_instances
from repro.isolation.saturation import IncrementalSaturation, forced_edges
from repro.trace.fuzz import fuzz_history, gadget_histories

from tests.helpers import random_history

MASK_LEVELS = ("RC", "RA", "CC")


def _corpus():
    for name, history in sorted(gadget_histories().items()):
        yield name, history
    for seed in range(30):
        yield f"fuzz{seed}", fuzz_history(seed, abort_rate=0.3)
    for seed in range(20):
        yield f"pending{seed}", random_history(random.Random(seed), allow_pending=True)


CORPUS = list(_corpus())


@pytest.mark.parametrize("name,history", CORPUS, ids=[name for name, _ in CORPUS])
def test_mask_bits_equal_per_instance_premises(name, history):
    tids = history.txn_order()
    reads = [history.event(read) for read in history.wr]
    for level in MASK_LEVELS:
        (axiom,) = AXIOMS_BY_LEVEL[level]
        assert axiom.premise_mask is not None
        for read in reads:
            mask = axiom.premise_mask(history, read)
            assert mask >> len(tids) == 0
            for i, t2 in enumerate(tids):
                assert bool((mask >> i) & 1) == axiom.premise(history, {}, t2, read), (
                    f"{name}/{level}: bit of {t2!r} for {read!r}"
                )


@pytest.mark.parametrize("name,history", CORPUS, ids=[name for name, _ in CORPUS])
def test_mask_forced_edges_equal_reference(name, history):
    index = history.txn_index_map()
    for level in MASK_LEVELS:
        (axiom,) = AXIOMS_BY_LEVEL[level]
        masked = {
            (t2, t1)
            for t1, t2, read in axiom_instances(history)
            if (axiom.premise_mask(history, read) >> index[t2]) & 1
        }
        assert masked == forced_edges(history, AXIOMS_BY_LEVEL[level]), f"{name}/{level}"


@pytest.mark.parametrize("name,history", CORPUS, ids=[name for name, _ in CORPUS])
def test_grouped_saturation_equals_reference_closure(name, history):
    """``from_history`` (read groups, mask tests) builds ``so ∪ wr ∪
    forced`` exactly, and counts one premise tick per instance when the
    relation stays acyclic."""
    if not history.causal_matrix().is_acyclic():
        return
    for level in MASK_LEVELS:
        axioms = AXIOMS_BY_LEVEL[level]
        instances = sum(1 for _ in axiom_instances(history))
        ticks0 = IncrementalSaturation.premise_evals
        state = IncrementalSaturation.from_history(history, axioms)
        ticks = IncrementalSaturation.premise_evals - ticks0
        edges = list(history.so_pairs())
        edges += [(w, r.txn) for r, w in history.wr.items() if w != r.txn]
        edges += sorted(forced_edges(history, axioms))
        reference = RelationMatrix(history.txns, edges)
        assert state.consistent == reference.is_acyclic(), f"{name}/{level}"
        if reference.is_acyclic():
            assert ticks == instances
            assert state.matrix.closure_rows()[1:] == reference.closure_rows()[1:], (
                f"{name}/{level}"
            )


@pytest.mark.parametrize("name,history", CORPUS[:10], ids=[name for name, _ in CORPUS[:10]])
def test_history_and_causal_matrix_share_one_index(name, history):
    """The history's dense index is its causal matrix's index map, whether
    the map existed before the matrix was built or was read off it."""
    index = history.txn_index_map()
    matrix = history.causal_matrix()
    assert matrix.index_map() is index
    assert matrix.nodes == history.txn_order() == tuple(history.txns)
    cold = type(history)(history.sessions, history.txns, history.wr)
    assert cold.txn_index_map() is cold.causal_matrix().index_map()


def test_masks_apply_only_to_states_indexed_like_the_history():
    """A state whose matrix orders the transactions differently falls back
    to the per-instance premises instead of misreading the mask bits."""
    history = CORPUS[0][1]
    axioms = AXIOMS_BY_LEVEL["CC"]
    state = IncrementalSaturation.from_history(history, axioms)
    assert state._masks_apply(history)
    shuffled = IncrementalSaturation(
        axioms, RelationMatrix(tuple(reversed(history.txn_order())))
    )
    assert not shuffled._masks_apply(history)
