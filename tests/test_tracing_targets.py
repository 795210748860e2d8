"""The benchmark tracer's targets exist where its `install` looks them up.

`pipebench/tracing.py` reports a target it cannot find as an absent span,
and the benchmark then prints that per-layer metric as null; a rename in
the package must fail here instead.  Nothing is wrapped: the targets are
only resolved.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pipebench_tracing", Path(__file__).resolve().parent.parent / "pipebench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("span, module_name, attribute", tracing.SPANS,
                         ids=[s[0] for s in tracing.SPANS])
def test_span_target_resolves(span, module_name, attribute):
    # a method through its class __dict__, a function through its module's
    owner = importlib.import_module(module_name)
    cls_name, _, name = attribute.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name)
    raw = vars(owner).get(name)
    assert raw is not None, "%s: %s.%s is gone" % (span, module_name, attribute)
    assert callable(raw.__func__ if isinstance(raw, classmethod) else raw)


@pytest.mark.parametrize("span, module_name, attribute", tracing.OPTIMIZERS,
                         ids=[s[0] for s in tracing.OPTIMIZERS])
def test_optimizer_target_resolves(span, module_name, attribute):
    assert callable(getattr(importlib.import_module(module_name), attribute, None)), span
