"""The benchmark's tracer finds every lincong function it wraps.

bench/run.py imports bench/tracer.py at load time, so a name the tracer wraps
that lincong no longer defines fails every benchmark run.  This reads bench/
and changes nothing there.
"""

import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_the_tracer_wraps_names_that_exist_and_puts_them_back(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    for layer, (module, names) in tracer.LAYERS.items():
        for name in names:
            assert callable(getattr(module, name, None)), (layer, name)
    before = [dict(vars(m)) for m in tracer.MODULES]
    with tracer.Tracer():
        assert [dict(vars(m)) for m in tracer.MODULES] != before
    assert [dict(vars(m)) for m in tracer.MODULES] == before
