"""perfbench's tracer patches fedmtl functions by name; every name it lists
must still resolve, and uninstalling must put the originals back."""

import importlib
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def test_tracer_targets_resolve_and_restore():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    originals = {}
    for module_name, path, _ in tracing.TARGETS:
        owner, attr = _resolve(module_name, path)
        originals[(module_name, path)] = owner.__dict__[attr]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module_name, path), original in originals.items():
            owner, attr = _resolve(module_name, path)
            assert owner.__dict__[attr] is not original, (module_name, path)
    finally:
        tracer.uninstall()
    for (module_name, path), original in originals.items():
        owner, attr = _resolve(module_name, path)
        assert owner.__dict__[attr] is original, (module_name, path)
