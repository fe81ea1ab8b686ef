"""Shared fixtures and the acceptance-criteria terminal report."""

import shutil
import tempfile
import warnings
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from lattes_forge.elliptic import TorusParameter
from lattes_forge.lattes import LattesSpec, build_rational_map
from lattes_forge.perturbation import (
    _collision_pair,
    make_marked_point,
    solve_collision,
    solve_gamma_k,
    standard_parameters,
)

GAMMA0 = complex(1.0 / 3.0, 1.0)

# property tests draw the same examples on every run, keep no example
# database and set no per-example time limit, which this suite's host speed
# would make flaky
settings.register_profile("lattes-forge", derandomize=True, database=None, deadline=None)
settings.load_profile("lattes-forge")
# hypothesis still caches the constants of the project's source files under
# its home directory; a temporary one keeps .hypothesis/ out of the tree
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="lattes-forge-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)
# hypothesis imports this module to report a failing example, and it imports
# libcst, whose DeprecationWarning would turn that report into an INTERNALERROR
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# criterion label -> (passed, detail); filled by tests/test_acceptance.py
ACCEPTANCE_RESULTS: dict[str, tuple[bool, str]] = {}


def record_criterion(label: str, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[label] = (bool(passed), detail)


def pytest_unconfigure(config):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for label in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[label]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{verdict}  {label}: {detail}")


@pytest.fixture(scope="session")
def spec_a2():
    return LattesSpec(TorusParameter(GAMMA0), 2, "EvenZero")


@pytest.fixture(scope="session")
def point_a2():
    return standard_parameters(Fraction(1, 3), Fraction(1), 2)


@pytest.fixture(scope="session")
def base_a2(spec_a2):
    return build_rational_map(spec_a2)


@pytest.fixture(scope="session")
def collision_rows(spec_a2, point_a2):
    """(k, s_k result, t_k result) for k = 3..6 at the base lattice shape."""
    rows = []
    for k in range(3, 7):
        mx = make_marked_point(spec_a2, point_a2, k, "X")
        my = make_marked_point(spec_a2, point_a2, k, "Y")
        rows.append((k, solve_collision(spec_a2, mx), solve_collision(spec_a2, my)))
    return rows


@pytest.fixture(scope="session")
def construction_results(spec_a2, point_a2):
    return [solve_gamma_k(spec_a2, point_a2, k, _collision_pair(spec_a2, point_a2, k))
            for k in range(3, 7)]
