"""Final rows of `clmech simulate` against references that never import clmech.

perfbench's generator draws one scenario for each (kind, dim, nonlinear)
category of its simulate round: regular and closure flows at dims 1 and 3
and the Hamiltonian flow at dim 1. Its oracle judges the last CSV row with
`scipy.linalg.expm` of the flow matrix for quadratic Lagrangians and with
`solve_ivp` at rtol 1e-12 for the rest.
"""

import sys
from pathlib import Path

import pytest

pytest.importorskip("scipy")
pytest.importorskip("sympy")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402
import oracle  # noqa: E402

from clmech.cli import main  # noqa: E402

SEED = 7
# the first index of each category in a round
FIRST_OF_CATEGORY = {}
for index, (category, _) in enumerate(gen.SIMULATE_ROUND):
    FIRST_OF_CATEGORY.setdefault(category, index)


@pytest.mark.parametrize(
    "index",
    FIRST_OF_CATEGORY.values(),
    ids=[f"{kind}-dim{dim}-{'nonlinear' if nl else 'quadratic'}" for kind, dim, nl in FIRST_OF_CATEGORY],
)
def test_final_row_matches_the_reference(index, tmp_path):
    spec = gen.simulate_spec(SEED, index)
    csv = tmp_path / "out.csv"
    assert main(["simulate", str(spec.write(tmp_path)), "-o", str(csv)]) == 0
    last_row = csv.read_text().splitlines()[-1]
    assert oracle.check_final_row(spec, last_row) == []

