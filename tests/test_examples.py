"""The example scripts must stay runnable (they are documentation)."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


@pytest.mark.parametrize("name,expected_fragments", [
    ("quickstart", ["extension ON", "extension OFF", "path usage"]),
    ("geofenced_browsing", ["no geofence", "packets through ASIA after "
                            "geofence: none", "strict"]),
    ("policy_tuning", ["candidate paths", "latency-optimized",
                       "CO2-optimized"]),
    ("strict_mode_hsts", ["first visit", "load failed=True",
                          "load failed=False"]),
    ("green_negotiation", ["candidate paths", "negotiated green",
                           "latency policy"]),
    ("multipath_transfer", ["link-disjoint paths", "speedup"]),
])
def test_example_runs(name, expected_fragments, capsys):
    output = run_example(name, capsys)
    for fragment in expected_fragments:
        assert fragment in output, f"{name}: missing {fragment!r}"
