"""The span tracer of the study benchmark still hooks into the program.

``benchmarks/tracer.py`` patches functions at the names the program's
modules bind them to and reads fields of their results; a rename in
``src`` would otherwise only show up as a broken trace run.
"""

from benchmarks.tracer import PATCH_POINTS, Tracer
from plapminres.driver import ProblemConfig, run_study


def test_traced_iterations_match_records():
    originals = [getattr(module, attr) for module, attr, _ in PATCH_POINTS]
    tracer = Tracer().install()
    try:
        records = run_study(ProblemConfig(p_target=1.5, max_levels=1))
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _ in PATCH_POINTS] == originals
    metrics = tracer.layer_metrics()
    assert len(records) == 1
    assert metrics["newton.iterations"] == sum(r.newton_total for r in records) > 0
    assert metrics["linsolve.factorizations"] >= metrics["newton.iterations"]
    assert metrics["newton.continuation_targets"] >= 2
