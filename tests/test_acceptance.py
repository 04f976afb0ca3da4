"""Acceptance gate: the twelve headline criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Every criterion is exact; the stated time limits are asserted
where the criteria carry one, and each criterion's case count at the default
bounds is pinned.
"""

import time

import pytest

from tilings.verify import CHECKS, Bounds, Corpus

CRITERIA = {
    1: ("euler", "alternating f-sum is 1 on connected fixture complexes", 60,
        2463),
    2: ("recurrences", "ladder f-vector recurrences, plain and bumped", None,
        49),
    3: ("closed-forms", "binomial closed form, Fibonacci sums, multiset "
        "coefficients", None, 188),
    4: ("a-map", "degree-raising map: closed form, step lemmas, Catalan "
        "identity, injectivity", 10, 348),
    5: ("affine", "affine independence of ladder polynomials and corpus "
        "f-vector spans", None, 10),
    6: ("links", "every face's link is the independence complex of its "
        "matched-region graph", 180, 11232),
    7: ("bipartite", "matched-region graphs bipartite, links have at most "
        "two components", None, 11225),
    8: ("kozlov", "independence complexes of paths and cycles match the "
        "reference table", None, 22),
    9: ("counterexample", "nested-squares complex: two segments, not "
        "collapsible, product identity", None, 1),
    10: ("contractibility", "every component has trivial reduced homology "
         "and fully collapses", None, 2464),
    11: ("decomposition", "outer-edge deletion decomposes face counts on "
         "every eligible edge", None, 5599),
    12: ("cube", "cube coordinates: injective vertices, faces are full "
         "subcubes", None, 2463),
}

_BY_ID = dict(CHECKS)


@pytest.fixture(scope="module")
def corpus():
    return Corpus(Bounds())


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_acceptance_criterion(number, corpus):
    check_id, title, limit, cases = CRITERIA[number]
    start = time.monotonic()
    result = _BY_ID[check_id](corpus)
    elapsed = time.monotonic() - start
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {number:2d} [{check_id}] {title} "
          f"({result.checked} cases, {elapsed:.1f}s)")
    assert result.passed, (
        f"criterion {number} ({check_id}) failed: {result.witness}")
    assert result.checked == cases
    if limit is not None:
        assert elapsed < limit, (
            f"criterion {number} exceeded its {limit}s limit: {elapsed:.1f}s")
