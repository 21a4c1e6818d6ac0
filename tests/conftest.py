import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from kahlerpinch import (
    CurvatureTensor,
    check_kahler,
    complex_hyperbolic_tensor,
    make_space,
    project_kahler,
    random_unitary_frame,
)

# pytest's `pythonpath` setting reaches only its own process; the tests that run
# `python -m kahlerpinch` or `python -c` in a child find the package through this
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# Property tests draw the same examples on every run, so a clean checkout passes
# or fails the same way each time; a test's own @settings keep its max_examples.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def space1():
    return make_space(1)


@pytest.fixture(scope="session")
def space2():
    return make_space(2)


@pytest.fixture(scope="session")
def space3():
    return make_space(3)


@pytest.fixture(scope="session")
def r0_n1(space1):
    return complex_hyperbolic_tensor(space1)


@pytest.fixture(scope="session")
def r0_n2(space2):
    return complex_hyperbolic_tensor(space2)


@pytest.fixture(scope="session")
def r0_n3(space3):
    return complex_hyperbolic_tensor(space3)


@pytest.fixture(scope="session")
def kahler_operator():
    """n -> matrix of project_kahler on R^{(2n)^4}, one column per standard basis tensor."""
    built = {}

    def build(n):
        if n not in built:
            space = make_space(n)
            shape = (space.dim,) * 4
            basis = np.eye(space.dim**4)
            columns = [project_kahler(e.reshape(shape), space).entries for e in basis]
            built[n] = np.column_stack([c.ravel() for c in columns])
        return built[n]

    return build


@pytest.fixture(scope="session")
def unitary_pullback():
    """(tensor, seed) -> (R', g) with R'(x, y, z, w) = R(gx, gy, gz, gw), certified.

    g = [f_1 | Jf_1 | ... | f_n | Jf_n] from random_unitary_frame(space, seed)
    is orthogonal and commutes with J, so R' is Kahler and has the same
    invariants as R; the unitary frame {f_a} of R is the standard one of R'.
    """

    def pull_back(tensor, seed):
        space = tensor.space
        g = np.column_stack([w for f in random_unitary_frame(space, seed) for w in (f, space.j(f))])
        entries = np.einsum("pqrs,pi,qj,rk,sl->ijkl", tensor.entries, g, g, g, g, optimize=True)
        pulled = CurvatureTensor(space, entries)
        assert check_kahler(pulled).passed
        return pulled, g

    return pull_back


@pytest.fixture(autouse=True)
def _quiet_numpy_errors():
    with np.errstate(all="raise", under="ignore"):
        yield
