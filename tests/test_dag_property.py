"""Property-based tests on the dependency book (hypothesis).

The invariant pinned here: the book, under any success/failure outcome
and settle order, readies a node only after every predecessor
succeeded, and blocks every descendant of a failure exactly once,
never ready.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.dag import DependencyBook

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
