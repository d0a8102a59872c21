"""The per-layer tracer in perfbench/ looks functions up by name.

Every (module, attribute path) it wraps must resolve on the package, so a
rename or deletion that would break a traced benchmark run fails here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _resolves(mod, path):
    owner = importlib.import_module(f"towerforms.{mod}")
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{path}" for mod, path, _, _ in tracer.TRACED
               if not _resolves(mod, path)]
    assert tracer.TRACED and not missing, missing
