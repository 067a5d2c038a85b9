import importlib
import importlib.util
import pathlib
import sys


def _load_fmtrace():
    """`fmbench/fmtrace.py`, loaded by path: `fmbench` is not a package."""
    path = pathlib.Path(__file__).resolve().parents[1] / "fmbench" / "fmtrace.py"
    spec = importlib.util.spec_from_file_location("fmtrace", path)
    fmtrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fmtrace)
    return fmtrace


def test_traced_names_are_fmcheck_attributes():
    # the benchmark's tracer looks each name up when it installs, so a name
    # deleted from fmcheck would break `fmbench/run.py --trace 1` only then
    fmtrace = _load_fmtrace()
    assert fmtrace.TRACED
    missing = [f"{mod}.{name}" for mod, name in fmtrace.TRACED
               if not hasattr(importlib.import_module(f"fmcheck.{mod}"), name)]
    assert missing == []


def test_tracer_counts_calls_and_restores_functions():
    # the tracer wraps the traced functions in every fmcheck module that
    # holds them, keys each structure_at call by its point, and uninstalling
    # puts every original back; a signature change that breaks a wrapper
    # would otherwise first show in a traced benchmark run
    from fmcheck import catalog, manifold
    fmtrace = _load_fmtrace()
    for mod, _ in fmtrace.TRACED:
        importlib.import_module(f"fmcheck.{mod}")
    traced = {name for _, name in fmtrace.TRACED}

    def bound():
        """Every fmcheck module's binding of a traced name."""
        return {(mod_name, attr): value for mod_name, mod in list(sys.modules.items())
                if mod_name.startswith("fmcheck") for attr, value in vars(mod).items()
                if attr in traced}

    before = bound()
    ent = catalog.entry("lobachevsky")
    point = manifold.sample_points(ent.spec, manifold.SamplePlan(seed=0, count=1))[0]
    tracer = fmtrace.Tracer()
    tracer.install()
    try:
        assert manifold.structure_at is not before[("fmcheck.manifold", "structure_at")]
        manifold.structure_at(ent.spec, point)
        manifold.check_killing_unit(ent.spec, [point])
        catalog.run_suite(ent, seed=0, count=5)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["calls"]["manifold.structure_at"] > 0
    assert summary["calls"]["manifold.check_killing_unit"] > 0
    assert summary["structure_distinct"] >= 1
    after = bound()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
