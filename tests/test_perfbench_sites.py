"""The benchmark's tracer wraps package call sites by name.  A site that the
package removes or renames is silently left out of a traced run, so every
site it lists must resolve to something the tracer can wrap."""

import functools
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_namespace():
    """The tracer module's globals, executed from its source text so that
    nothing is written next to it."""
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace


_TRACING = _tracing_namespace()


@pytest.mark.parametrize("site", [s for sites in _TRACING["SPANS"].values() for s in sites])
def test_traced_call_site_resolves(site):
    found = _TRACING["_resolve"](site)
    assert found is not None, f"{site} is absent"
    raw = found[2]
    assert isinstance(raw, functools.cached_property) or callable(raw)
