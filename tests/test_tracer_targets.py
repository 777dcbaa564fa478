"""Every function the benchmark tracer wraps by name still exists, so a
refactor that renames one fails here rather than in a traced benchmark
run."""
import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for name, (modname, path) in tracer.TARGETS.items():
        owner = importlib.import_module(modname)
        for part in path.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, (name, modname, path)
        assert callable(owner), (name, modname, path)
