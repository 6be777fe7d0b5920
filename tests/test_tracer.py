"""The benchmark's per-layer split cannot silently lose a layer: every span
`perfbench/run.py` reports is traced, and a small run calls it."""
import importlib.util
import os
import re

import fracphase.cli

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# bindings the tracer requires that no longer exist (ROADMAP items 1 and 8)
STALE_BINDINGS = ["fracphase.timestepper.eval_nonlinearity",
                  "fracphase.timestepper.apply_coupling", "fracphase.analysis.assemble"]
# reported spans of functions that no longer exist: F and E w are closures
# the step calls, so their time counts in `timestepper.step` (ROADMAP item 8)
LOST_SPANS = {"galerkin.eval_nonlinearity", "galerkin.apply_coupling"}
# reported spans only another command calls
NOT_ON_SIMULATE = {"analysis.relaxation_limit_study"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  os.path.join(BENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reported_spans() -> set[str]:
    """The span names `layer_metrics` of perfbench/run.py reads."""
    with open(os.path.join(BENCH, "run.py"), encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("def layer_metrics")
    body = text[start:text.index("\ndef ", start)]
    return set(re.findall(r'(?:span|self_s|per_step)\("([a-z_]+\.[a-z_]+)"\)', body))


def test_traced_simulate_calls_every_reported_span(tmp_path):
    tracer = load_tracer().Tracer()
    try:
        unwrapped = tracer.install()
        code = fracphase.cli.main([
            "simulate", "--config", os.path.join(CONFIGS, "smoke.json"),
            "--override", "scheme.t_final=0.01", "--override", "output.grid_times=[0.0]",
            "--out", str(tmp_path / "o"), "--quiet"])
    finally:
        tracer.uninstall()
    assert not hasattr(fracphase.cli.main, "__wrapped__")
    assert code == fracphase.cli.EXIT_OK
    assert unwrapped == STALE_BINDINGS
    reported = reported_spans()
    assert len(reported) >= 15 and NOT_ON_SIMULATE <= reported
    # each one wrapped at install, but for the lost ones
    assert reported - set(tracer.names) == LOST_SPANS
    spans = tracer.summarize()["spans"]
    not_called = {name for name in reported - LOST_SPANS if spans[name]["calls"] == 0}
    assert not_called == NOT_ON_SIMULATE
