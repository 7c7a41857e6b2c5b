"""Headline studies shared by the test modules.

Each study is solved once per test session by the shipped
``driver.run_study``, with its artifacts written to a temporary directory,
so the acceptance criteria and the benchmark's reference rows check the
path that users run.  The Case 1 studies feed the rate and robustness
criteria; the Case 2 adaptive study feeds the estimator-tracking
criterion and, through its first levels, the ``adaptive_p1.5`` reference
rows.
"""

from typing import NamedTuple

import pytest

from plapminres import driver
from plapminres.driver import ProblemConfig, run_study
from plapminres.estimate import StudyRecord
from plapminres.mesh import Mesh


class Study(NamedTuple):
    """One solved study: its config, its records and, for an adaptive
    study, the ``(mesh, refined)`` pair of every Dörfler refinement."""

    config: ProblemConfig
    records: list[StudyRecord]
    refinements: list[tuple[Mesh, Mesh]]


@pytest.fixture(scope="session")
def case1_studies(tmp_path_factory) -> dict[float, Study]:
    """Case 1 on six uniform levels, at p = 1.5 and p = 3."""
    studies = {}
    for p in (1.5, 3.0):
        cfg = ProblemConfig(p_target=p, sigma=0.97, x0=(-1.0, -1.0),
                            initial_n=2, strategy="uniform", max_levels=6,
                            output_dir=str(tmp_path_factory.mktemp("case1")))
        studies[p] = Study(cfg, run_study(cfg), [])
    return studies


@pytest.fixture(scope="session")
def case2_adaptive(tmp_path_factory) -> Study:
    """Case 2 at p = 1.5: 13 Dörfler steps from the 16 x 16 mesh.

    A pass-through spy on the driver's ``refine_marked`` records every
    refinement the study makes; the patch is undone before the fixture
    returns.
    """
    cfg = ProblemConfig(p_target=1.5, sigma=0.97, x0=(0.0, 0.0),
                        initial_n=16, strategy="adaptive", theta=0.5,
                        max_levels=13,
                        output_dir=str(tmp_path_factory.mktemp("case2")))
    refine_marked = driver.refine_marked
    refinements = []

    def spy(mesh, marked):
        refined = refine_marked(mesh, marked)
        refinements.append((mesh, refined))
        return refined

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "refine_marked", spy)
        records = run_study(cfg)
    return Study(cfg, records, refinements)
