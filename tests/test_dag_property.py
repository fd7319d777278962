"""Property-based tests on the DAG campaign layer (hypothesis).

The invariants pinned here:

* a random DAG never dispatches a task before all its predecessors,
* the dependency book, under any success/failure outcome and settle
  order, readies a node only after every predecessor succeeded, and
  blocks every descendant of a failure exactly once, never ready,
* cycle detection always fires on a cyclic declaration,
* a checkpoint round-trips losslessly through its binary framing,
* any single-byte corruption (or truncation) of a checkpoint is
  detected and quarantined — a damaged file can produce a fresh start,
  never a wrong skip.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError, DagError
from repro.experiments.dag import (
    CampaignDag,
    CampaignState,
    CheckpointStore,
    CompletedTask,
    DependencyBook,
    decode_state,
    encode_state,
    run_dag,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_node_counts = st.integers(min_value=1, max_value=8)


@st.composite
def random_dags(draw):
    """An arbitrary acyclic declaration: node i may only depend on
    earlier nodes, so every draw is a valid DAG by construction."""
    count = draw(_node_counts)
    nodes = []
    for i in range(count):
        pool = [f"t{j}" for j in range(i)]
        preds = draw(
            st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))
            if pool
            else st.just([])
        )
        nodes.append((f"t{i}", tuple(preds)))
    return nodes


@st.composite
def cyclic_declarations(draw):
    """A chain c0 <- c1 <- ... <- c{k-1} closed back into a cycle."""
    length = draw(st.integers(min_value=1, max_value=6))
    nodes = []
    for i in range(length):
        preds = [f"c{i - 1}"] if i else [f"c{length - 1}"]
        nodes.append((f"c{i}", tuple(preds)))
    return nodes


_task_ids = st.text(
    alphabet="abcdefghij-_", min_size=1, max_size=12
).filter(lambda s: s.strip())

_completed_tasks = st.builds(
    CompletedTask,
    node=_task_ids,
    key=st.text(alphabet="0123456789abcdef", min_size=8, max_size=64),
    source=st.sampled_from(["ran", "cache", "resume"]),
    seconds=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    attempts=st.integers(min_value=1, max_value=9),
    seq=st.integers(min_value=0, max_value=99),
)

_campaign_meta = st.fixed_dictionaries(
    {
        "name": st.just("run-all"),
        "seed": st.integers(min_value=0, max_value=2**31),
        "scale": st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
        "fingerprint": st.text(
            alphabet="0123456789abcdef", min_size=64, max_size=64
        ),
    }
)


@st.composite
def campaign_states(draw):
    state = CampaignState(campaign=dict(draw(_campaign_meta)))
    for task in draw(st.lists(_completed_tasks, max_size=6)):
        state.record(task)
    return state


# ---------------------------------------------------------------------------
# Dispatch order
# ---------------------------------------------------------------------------


class TestDispatchProperties:
    @given(nodes=random_dags())
    def test_never_dispatches_before_predecessors(self, nodes):
        dag = CampaignDag(nodes)
        log = []
        results = run_dag(
            dag,
            lambda node: log.append(node) or node,
            {node: (node,) for node in dag.nodes},
        )
        assert sorted(log) == sorted(dag.nodes)
        position = {node: i for i, node in enumerate(log)}
        for node, preds in nodes:
            for pred in preds:
                assert position[pred] < position[node]
        assert all(results[node] == node for node in dag.nodes)

    @given(nodes=random_dags())
    def test_levels_partition_all_nodes(self, nodes):
        dag = CampaignDag(nodes)
        flattened = [node for level in dag.levels() for node in level]
        assert flattened == dag.order()
        assert sorted(flattened) == sorted(dag.nodes)

    @given(nodes=cyclic_declarations())
    def test_cycle_detection_always_fires(self, nodes):
        with pytest.raises(DagError, match="cycle"):
            CampaignDag(nodes)


# ---------------------------------------------------------------------------
# The dependency book
# ---------------------------------------------------------------------------


def _descendants(nodes, roots):
    """Reference closure: every node reachable from *roots*, roots
    excluded, computed independently of the book."""
    reached = set()
    changed = True
    while changed:
        changed = False
        for node, preds in nodes:
            if node not in reached and any(
                pred in roots or pred in reached for pred in preds
            ):
                reached.add(node)
                changed = True
    return reached


class TestDependencyBookProperties:
    @settings(max_examples=200)
    @given(nodes=random_dags(), data=st.data())
    def test_book_under_any_outcome_and_settle_order(self, nodes, data):
        """Adds interleave with settles in a drawn order, each node
        succeeds or fails as drawn, and a twin book fed every
        predecessor twice must answer every call identically."""
        preds_of = {node: set(preds) for node, preds in nodes}
        succeeds = {
            node: data.draw(st.booleans(), label=f"{node} succeeds")
            for node, _ in nodes
        }
        book, twin = DependencyBook(), DependencyBook()
        settled = {}  # node -> "done" | "failed"
        ready, blocked = [], {}  # blocked: node -> via
        runnable = []  # ready, not yet settled
        to_add = list(nodes)

        def check(update):
            for node in update.ready:
                assert node not in ready and node not in blocked
                assert all(settled.get(p) == "done" for p in preds_of[node])
                ready.append(node)
                runnable.append(node)
            for node, via in update.blocked:
                assert node not in blocked and node not in ready
                assert via in preds_of[node]
                assert settled.get(via) == "failed" or via in blocked
                blocked[node] = via

        while to_add or runnable:
            if to_add and (
                not runnable or data.draw(st.booleans(), label="add next")
            ):
                node, preds = to_add.pop(0)
                update = book.add(node, preds)
                assert twin.add(node, list(preds) + list(reversed(preds))) == update
            else:
                node = runnable.pop(
                    data.draw(st.integers(0, len(runnable) - 1), label="settle")
                )
                if succeeds[node]:
                    settled[node] = "done"
                    update = book.succeed(node)
                    assert twin.succeed(node) == update
                else:
                    settled[node] = "failed"
                    update = book.fail(node)
                    assert twin.fail(node) == update
            check(update)

        failed = {node for node, state in settled.items() if state == "failed"}
        assert set(blocked) == _descendants(nodes, failed)
        assert set(ready) | set(blocked) == set(preds_of)
        assert all(not book.waiting_on(node) for node in preds_of)


# ---------------------------------------------------------------------------
# Checkpoint framing
# ---------------------------------------------------------------------------


class TestCheckpointProperties:
    @given(state=campaign_states())
    def test_round_trip_is_lossless_and_canonical(self, state):
        raw = encode_state(state)
        decoded = decode_state(raw)
        assert decoded.to_dict() == state.to_dict()
        assert encode_state(decoded) == raw

    @settings(max_examples=60)
    @given(
        state=campaign_states(),
        offset=st.integers(min_value=0),
        flip=st.integers(min_value=1, max_value=255),
    )
    def test_single_byte_corruption_is_always_detected(
        self, state, offset, flip
    ):
        raw = bytearray(encode_state(state))
        corrupt = bytes(
            b ^ flip if i == offset % len(raw) else b
            for i, b in enumerate(raw)
        )
        with pytest.raises(CheckpointError):
            decode_state(corrupt)

    @given(state=campaign_states(), keep=st.floats(min_value=0.0, max_value=1.0))
    def test_truncation_is_always_detected(self, state, keep):
        raw = encode_state(state)
        truncated = raw[: int(len(raw) * keep) % len(raw)]
        with pytest.raises(CheckpointError):
            decode_state(truncated)

    @settings(max_examples=25)
    @given(
        state=campaign_states(),
        offset=st.integers(min_value=0),
        flip=st.integers(min_value=1, max_value=255),
    )
    def test_corrupt_file_quarantines_to_fresh_start(self, state, offset, flip):
        """The store never serves a damaged checkpoint: it deletes the
        file and reports None, so resume degrades to a full re-run
        instead of trusting corrupt completion records."""
        with tempfile.TemporaryDirectory() as tmp:
            store = CheckpointStore(Path(tmp) / "campaign.ckpt")
            store.save(state)
            raw = bytearray(store.path.read_bytes())
            raw[offset % len(raw)] ^= flip
            store.path.write_bytes(bytes(raw))
            assert store.load_or_quarantine(None) is None
            assert not store.path.exists()
