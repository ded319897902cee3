"""The benchmark's tracer wraps library functions by name; installing it
fails when one of them is renamed or deleted, which would break
`perfbench/run.py --trace 1`."""

import importlib.util
import os

import tocc.cli  # noqa: F401  (the tracer wraps the CLI's commands too)
import tocc.classifier

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    original = tocc.classifier.predict
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tocc.classifier.predict is not original
    finally:
        tracer.uninstall()
    assert tocc.classifier.predict is original
