"""The study benchmark still hooks into the program, and its reference
rows still hold on full studies.

``benchmarks/tracer.py`` patches functions at the names the program's
modules bind them to and reads fields of their results; a rename in
``src`` would otherwise only show up as a broken trace run.  The CI smoke
check stops at two levels, so the reference gate of the deeper levels,
where the graded meshes are, is checked here, on the first levels of the
headline studies that ``tests/conftest.py`` solves for the acceptance
criteria: a workload's config is that study's but for its level count.
"""

from dataclasses import replace

import pytest

from benchmarks.tracer import PATCH_POINTS, Tracer
from benchmarks.workloads import (PAPER_SIGMA, failed_levels, load_reference,
                                  study_config)
from plapminres.cli import config_from_dict
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


@pytest.mark.parametrize("workload", ["uniform_p3", "adaptive_p1.5"])
def test_full_study_matches_reference(workload, case1_studies,
                                      case2_adaptive):
    study = {"uniform_p3": case1_studies[3.0],
             "adaptive_p1.5": case2_adaptive}[workload]
    raw = study_config(workload, PAPER_SIGMA)
    cfg = config_from_dict(raw)
    assert replace(study.config, max_levels=cfg.max_levels,
                   output_dir=None) == cfg
    assert failed_levels(load_reference(), workload, PAPER_SIGMA,
                         study.records, raw["max_levels"]) == []
