"""The benchmark's traced run (bench/tracing.py) wraps package attributes by
name and looks each one up in its owner's own __dict__. This fast check fails
when a change moves or deletes one of them, which would break the traced run.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_are_defined_on_their_owners():
    targets = load_tracing().TARGETS
    assert targets
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets if attr not in owner.__dict__
    ]
    assert missing == []
