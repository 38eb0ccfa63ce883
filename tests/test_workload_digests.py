"""The four benchmark workloads pinned to their output digests.

The workloads (perfbench/workloads.py, imported read-only) cover the
estimate and verify modes: explicit_spanning_bb and finite_suite run
thousands of exact solves, circle_estimate a greedy pressure curve on a
4096-point circle, and factor_verify the factor verdict rows.  A speed-up
or a refactor must leave every output byte as it was, so their digests at
one seed are fixed here.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

DIGESTS_AT_SEED_3 = {
    "circle_estimate": "221fd94d4b934d1fb9a31fe7271c74fb502a96c41e0a67fc45affd388fbb9229",
    "explicit_spanning_bb": "09534231f03fb1e6aeda86f23c0084417f4d7cf3d5d58148e12cae8a44df93dd",
    "factor_verify": "c941f33067ce8a9e16096086a90024d436b20e3ec34ae144daef7158cc37533a",
    "finite_suite": "985d8473df10c0a8339b6bcb0ba54bbaa55385e2d37ae62bc541117ccb57ec4c",
}


@pytest.mark.parametrize("name", sorted(DIGESTS_AT_SEED_3))
def test_workload_outputs_equal_their_pinned_digest(tmp_path, name):
    workload = WORKLOADS[name]
    state = workload.setup(3)
    code = workload.run(state, tmp_path, 1)
    assert workload.check(state, tmp_path, code) == []
    assert workload.digest(state, tmp_path) == DIGESTS_AT_SEED_3[name]
