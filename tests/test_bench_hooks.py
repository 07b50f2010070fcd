"""The traced benchmark patches methods in the class bodies that define them.

If a method it wraps moves to a base class, ``--trace 1`` breaks; this
test makes that visible without running a workload.
"""

import os

from seqnas import cell, network

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_trace_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    owned = [(cell.SearchCell, "forward"), (cell.DiscreteCell, "forward"),
             (network.Supernet, "forward_with_embedding"),
             (network.DiscreteNetwork, "forward_with_embedding")]
    before = {key: key[0].__dict__[key[1]] for key in owned}
    tracer = tracing.Tracer()
    with tracer.installed():
        saved = list(tracer._saved)
        for owner, attr in owned:
            assert owner.__dict__[attr] is not before[owner, attr]
    assert saved and not tracer._saved
    originals = {}
    for owner, attr, old in saved:  # an attribute patched twice keeps its first original
        originals.setdefault((owner, attr), old)
    for (owner, attr), old in originals.items():
        assert owner.__dict__[attr] is old, f"{owner.__name__}.{attr} not restored"
    for (owner, attr), old in before.items():
        assert owner.__dict__[attr] is old
