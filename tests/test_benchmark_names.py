"""The benchmark's per-layer tracer wraps program functions by name.

perfbench/layers.py looks each name up in the module or class that
calls it, so renaming or deleting one breaks the benchmark; this test
installs every wrapper and puts the originals back.
"""
import os
import sys

import fractamine
import fractamine.cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_wrapped_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    try:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        main = fractamine.cli.main
        try:
            layers.install(tracer, fractamine)
            assert fractamine.cli.main is not main
        finally:
            tracer.restore()
        assert fractamine.cli.main is main
    finally:
        # their generic names must not shadow another module later in the session
        for name in ("layers", "tracer"):
            sys.modules.pop(name, None)
