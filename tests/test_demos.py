"""Every demo runs to the end and prints something."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_bivariate_catalan_numbers",
        "02_qsym_hopf_algebra",
        "03_canonical_characters",
        "04_permutations_and_peaks",
    ],
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / (name + ".py")), run_name="__main__")
    assert capsys.readouterr().out
