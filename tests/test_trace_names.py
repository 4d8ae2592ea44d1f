"""The benchmark's per-layer trace names still resolve in ``src/``.

``perfbench/instrument.py`` looks each traced name up at run time and
reports a missing one as zero calls, so a rename in ``src/`` would read
as a silent 0 in a traced run.  The module is loaded by path, as the
benchmark loads it, and left unchanged.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# deleted with the matrix-group engine; the benchmark still lists it
KNOWN_MISSING = {"pgl29.mat_closure"}


def load_instrument():
    spec = importlib.util.spec_from_file_location(
        "perfbench_instrument", ROOT / "perfbench" / "instrument.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    instrument = load_instrument()
    names = [name for name, _ in instrument.LAYERS]
    assert "wreath.classify" in names
    missing = [n for n in names if instrument._lookup(n) is None]
    assert set(missing) <= KNOWN_MISSING
