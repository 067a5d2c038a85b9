import importlib
import importlib.util
import pathlib


def test_traced_names_are_fmcheck_attributes():
    # the benchmark's tracer looks each name up when it installs, so a name
    # deleted from fmcheck would break `fmbench/run.py --trace 1` only then
    path = pathlib.Path(__file__).resolve().parents[1] / "fmbench" / "fmtrace.py"
    spec = importlib.util.spec_from_file_location("fmtrace", path)
    fmtrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fmtrace)
    assert fmtrace.TRACED
    missing = [f"{mod}.{name}" for mod, name in fmtrace.TRACED
               if not hasattr(importlib.import_module(f"fmcheck.{mod}"), name)]
    assert missing == []
