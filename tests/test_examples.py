"""Smoke tests: the example scripts run and print what they promise.

Only the fast examples run in the test suite; the longer studies
(`policy_comparison`, `viability_threshold`, ...) are exercised by the
benchmark harness paths they share code with.
"""

import importlib.util
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_examples_directory_complete():
    present = {p.stem for p in EXAMPLES.glob("*.py")}
    assert {
        "quickstart", "policy_comparison", "size_limit_study",
        "trace_tools", "viability_threshold", "saturation_diagnosis",
        "fairness_study",
    } <= present


def test_quickstart_runs(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "gross utilization" in out
    assert "mean response time" in out
    assert "saturated           : no" in out


def test_trace_tools_runs(capsys):
    load_example("trace_tools").main()
    out = capsys.readouterr().out
    assert "generated 30000 jobs" in out
    assert "most frequent job sizes" in out
    assert "trace-derived" in out


def test_every_example_has_docstring_and_main():
    for path in EXAMPLES.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert text.lstrip().startswith(('"""', "#!")), path.name
        assert "def main()" in text, path.name
        assert '__name__ == "__main__"' in text, path.name
