"""The benchmark tracer still finds every function it wraps.

`perfbench/tracer.py` replaces named package attributes at run time; a
refactor that renames one of them breaks traced benchmark runs.  This
test installs the tracer on the package and checks the round trip.
"""

import importlib.util
from pathlib import Path

import treesum
import treesum.cli  # noqa: F401  (the tracer wraps the CLI commands too)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_restore_puts_back_every_original():
    tracing = load_tracer()
    targets = tracing.span_targets(treesum) + tracing.count_targets(treesum)
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _ in targets]
    tracer = tracing.Tracer(treesum)
    tracer.install()
    try:
        wrapped = [vars(owner)[attr] is not original
                   for owner, attr, original in originals]
    finally:
        restored = tracer.restore()
    assert all(wrapped)
    assert restored == len(targets)
    assert all(vars(owner)[attr] is original
               for owner, attr, original in originals)
