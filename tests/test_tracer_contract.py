"""The names ``bench/tracer.py`` wraps and reports all exist in ``folnerlab``.

The tracer names its entry points as strings.  A name that no longer
resolves either breaks ``Tracer.install`` (a method of ``_METHODS``, or
``uniform_at``) or reads as a per-layer metric of 0 (a function of
``_SELF_TIMED``), so a rename in ``src/`` must show up here.  The tracer is
loaded from its file and installed and uninstalled in this process; nothing
under ``bench/`` changes.
"""
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# reported names with no definition, each with why
_MISSING_OK = {
    "groups.product_count": "deleted with the tuple product path; the bench "
                            "still reports it until its metric is remapped",
}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_definitions(tracer) -> dict:
    """Span name -> whether the installed tracer wraps a definition of it."""
    layers = {name: sys.modules[f"folnerlab.{name}"] for name in tracer.LAYERS}
    out = {}
    for layer, cls_name, meth, _ in tracer._METHODS:
        attr = getattr(layers[layer], cls_name).__dict__.get(meth)
        out[f"{layer}.{meth}"] = hasattr(attr, "__wrapped__")
    shift = layers["systems"].BernoulliShift
    out["systems.uniform_at"] = hasattr(shift.__dict__.get("uniform_at"), "__wrapped__")
    names = (set(tracer._SELF_TIMED) | set(tracer._WORK)
             | {span for span, _ in tracer._COUNTED.values()})
    for name in sorted(names - set(out)):
        layer, attr = name.split(".", 1)
        out[name] = hasattr(getattr(layers[layer], attr, None), "__wrapped__")
    return out


def test_tracer_names_resolve_to_wrapped_definitions():
    tracer = _tracer_module()
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = _wrapped_definitions(tracer)
    finally:
        t.uninstall()
    missing = sorted(name for name, ok in wrapped.items() if not ok)
    assert missing == sorted(_MISSING_OK), missing
    # uninstalling restores every definition
    assert not any(_wrapped_definitions(tracer).values())
