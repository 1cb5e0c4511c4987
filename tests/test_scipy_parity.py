"""The package's numeric port against scipy, which tests alone import.

`learning._max_assignment` ports scipy's `rectangular_lsap` for square
matrices. It must give scipy's results bit for bit, so fitted models do not
change by dropping scipy; and importing the CLI must not load scipy at all.
Exact information gain's log multinomial multiplicities come from
`math.lgamma`; they agree with scipy's `gammaln` to 1e-13 relative (absolute
below 1) and round to the exact multinomials."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.special import gammaln

import crowdplan
from crowdplan.errors import NumericError
from crowdplan.infogain import _count_vectors
from crowdplan.learning import _max_assignment


def close_to(got, ref):
    """Within 1e-13 of the reference, relative to it where it exceeds 1."""
    return np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


class TestLogFactorials:
    def test_table_matches_gammaln_to_200000(self):
        """The log factorials that `_count_vectors` takes from `math.lgamma`."""
        got = np.array([math.lgamma(m + 1) for m in range(200_001)])
        assert close_to(got, gammaln(np.arange(200_001, dtype=np.float64) + 1))

    @pytest.mark.parametrize("x", [1, 2, 3, 12, 13, 14, 999, 1000, 1001, 10**8, 10**8 + 1])
    def test_branch_edges(self, x):
        """Where cephes' `lgam` changes formula, the reference is most likely to
        differ in its last digits."""
        assert close_to(math.lgamma(x), gammaln(float(x)))

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("votes", [0, 1, 5, 13, 40])
    def test_count_vector_multiplicities_agree_with_gammaln(self, votes, k):
        vecs, log_c = _count_vectors(votes, k)
        ref = gammaln(votes + 1) - gammaln(vecs + 1).sum(axis=1)
        assert close_to(log_c, ref)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_multiplicities_round_to_exact_multinomials(self, k):
        for votes in range(21):
            vecs, log_c = _count_vectors(votes, k)
            exact = []
            for vec in vecs.tolist():
                left, ways = votes, 1
                for c in vec:
                    ways *= math.comb(left, c)
                    left -= c
                exact.append(ways)
            assert np.rint(np.exp(log_c)).tolist() == exact, votes


# Sums of these round, so near-ties are decided by the order of the operations.
DECIMALS = np.array([0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 1 / 3, 2 / 3])
# Scanning with ((min + c) - u) - v regrouped as min + ((c - u) - v) picks
# other columns here.
ROUNDING = np.array(
    [
        [0.7, 0.2, 0.4, 1 / 3],
        [2 / 3, 1 / 3, 0.3, 0.3],
        [0.4, 0.4, 0.4, 1 / 3],
        [0.3, 2 / 3, 0.1, 0.1],
    ]
)


def matrix(kind, k, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.normal(size=(k, k)) * 10.0 ** rng.integers(-3, 4)
    if kind == "binary":
        return rng.integers(0, 2, size=(k, k)).astype(np.float64)
    if kind == "levels":
        return rng.integers(0, 3, size=(k, k)) / 2.0
    if kind == "decimal":
        return rng.choice(DECIMALS, size=(k, k))
    rows = rng.dirichlet(np.full(k, 0.5), size=k)
    return rows / rows.sum(axis=1, keepdims=True)


class TestMaxAssignment:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["random", "binary", "levels", "decimal", "stochastic"]),
        k=st.integers(2, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_linear_sum_assignment(self, kind, k, seed):
        m = matrix(kind, k, seed)
        assert _max_assignment(m) == linear_sum_assignment(-m)[1].tolist()

    @pytest.mark.parametrize(
        "m",
        [np.ones((3, 3)), np.zeros((4, 4)), np.array([[1.0, 1.0], [1.0, 0.0]]), ROUNDING],
        ids=["ones", "zeros", "one-zero", "rounding"],
    )
    def test_ties(self, m):
        """Where columns tie, the tie rule and the rounding of each sum pick the permutation."""
        assert _max_assignment(m) == linear_sum_assignment(-m)[1].tolist()

    def test_all_ties_give_the_identity(self):
        assert _max_assignment(np.ones((3, 3))) == [0, 1, 2]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_numeric_errors(self, bad):
        m = np.full((3, 3), 0.25)
        m[1, 2] = bad
        with pytest.raises(NumericError, match="NaN or an infinity"):
            _max_assignment(m)


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(crowdplan.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, crowdplan.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=60, env=env, check=True,
    )
    assert done.stdout == "[]\n"
