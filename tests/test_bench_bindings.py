"""The benchmark's tracer binds names in mortonseg; each must resolve.

perfbench/tracer.py rebinds public functions by module attribute. A
rename in the package would otherwise surface only in a traced benchmark
run, so this installs and uninstalls the tracer and checks both ways.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    return tracer


def test_tracer_bindings_resolve_and_restore(tracer):
    bound = [(owner, attr)
             for owner, attr, *_ in tracer.SPANS + tracer.PRIMITIVES]
    for owner, attr in bound:
        assert hasattr(owner, attr), f"{owner.__name__}.{attr} is gone"
    originals = [getattr(owner, attr) for owner, attr in bound]

    tr = tracer.Tracer()
    tr.install()
    try:
        for (owner, attr), fn in zip(bound, originals):
            assert getattr(owner, attr) is not fn, f"{attr} was not wrapped"
    finally:
        tr.uninstall()
    for (owner, attr), fn in zip(bound, originals):
        assert getattr(owner, attr) is fn, f"{owner.__name__}.{attr} not restored"
