"""Property test: the event queue honours its ordering contract.

The simulator's results must be a function of the schedule alone, so
:class:`HeapQueue` has to drain in exactly ``(time, priority, seq)`` order,
skip lazily cancelled entries, and keep ``peek``/``len`` right after cancels
— on *any* interleaving of pushes, pops, cancels and peeks.  The reference
is a plain sorted list of the live entries.
"""

from hypothesis import given, settings, strategies as st

from repro.simengine.scheduler import HeapQueue

DELAYS = st.one_of(
    # repeated instants (zero delay) exercise the priority/seq tie-breaks
    st.sampled_from([0.0, 1e-9, 1e-3, 2.0]),
    st.floats(min_value=0.0, max_value=1.0,
              allow_nan=False, allow_infinity=False),
)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), DELAYS, st.integers(0, 1)),
        st.tuples(st.just("pop")),
        st.tuples(st.just("cancel"), st.integers(0, 2 ** 30)),
        st.tuples(st.just("peek")),
    ),
    max_size=200,
)


class _Entry:
    """Minimal stand-in for an Event: the queue only reads ``_cancelled``."""

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False


@settings(max_examples=200, deadline=None)
@given(OPS)
def test_heap_queue_matches_sorted_model(ops):
    queue = HeapQueue()
    now = 0.0
    seq = 0
    #: live (pushed, neither popped nor cancelled) entries, kept sorted
    model = []
    for op in ops:
        if op[0] == "push":
            _, delay, priority = op
            entry = (now + delay, priority, seq, _Entry())
            queue.push(*entry)
            model.append(entry)
            model.sort(key=lambda item: item[:3])
            seq += 1
        elif op[0] == "pop":
            assert len(queue) == len(model)
            if not model:
                continue
            popped = queue.pop()
            expected = model.pop(0)
            assert popped[:3] == expected[:3]
            assert popped[3] is expected[3]
            assert popped[0] >= now
            now = popped[0]
        elif op[0] == "cancel":
            if not model:
                continue
            entry = model.pop(op[1] % len(model))
            entry[3]._cancelled = True
            queue.note_cancel()
            assert len(queue) == len(model)
            assert queue.peek() == (model[0][0] if model else float("inf"))
        else:  # peek
            assert queue.peek() == (model[0][0] if model else float("inf"))
            assert len(queue) == len(model)
    # drain whatever is left: the tail must match entry by entry
    assert len(queue) == len(model)
    for expected in model:
        assert queue.pop()[:3] == expected[:3]
    assert len(queue) == 0
    assert queue.peek() == float("inf")
