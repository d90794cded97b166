"""Every name the benchmark tracer wraps still exists in gkmslice.

`perfbench/tracer.py` looks each (owner, attribute) of its TARGETS up
through `vars(owner)` when a traced run starts, so renaming or deleting
one of those functions makes every traced benchmark run fail.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracer().TARGETS


@pytest.mark.parametrize(
    "owner, attr",
    [(t[0], t[1]) for t in TARGETS],
    ids=[f"{t[0].__name__}.{t[1]}" for t in TARGETS],
)
def test_traced_name_resolves(owner, attr):
    assert attr in vars(owner), f"{owner.__name__}.{attr} is traced but missing"
