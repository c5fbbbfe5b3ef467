"""`sweep` output against CSVs recorded from the earlier scalar optimizer.

The files under tests/data were written by `ghzfreq sweep --model M --gamma 1
--n 1:30` (and the same with `--c1 0.6`) before the optimizer was rebuilt on
the array scan and the slope search. The rebuilt code places the optimum
more precisely and evaluates F in log space, so the last digits move; the
tolerances below bound how far.
"""

import csv
import io
from pathlib import Path

import pytest

from ghzfreq.cli import run

DATA = Path(__file__).parent / "data"
REL_T_OPT = 1e-9
REL_VALUE = 1e-12  # f_over_t_max and ratio_r
MAX_GAP = 1e-8


def read_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.mark.parametrize("model", ["adc", "dpc", "pdc"])
@pytest.mark.parametrize("c1", [None, "0.6"])
def test_sweep_matches_recorded_output(model, c1, capsys):
    name = f"sweep_{model}_default.csv" if c1 is None else f"sweep_{model}_c1_{c1}.csv"
    want = read_rows((DATA / name).read_text())
    argv = ["sweep", "--model", model, "--gamma", "1", "--n", "1:30"]
    if c1 is not None:
        argv += ["--c1", c1]
    assert run(argv) == 0
    got = read_rows(capsys.readouterr().out)
    assert len(got) == len(want) == 90
    for g, w in zip(got, want):
        where = (w["n"], w["strategy"])
        for key in ("n", "strategy", "model", "gamma"):
            assert g[key] == w[key], where
        assert float(g["t_opt"]) == pytest.approx(float(w["t_opt"]), rel=REL_T_OPT), where
        for key in ("f_over_t_max", "ratio_r"):
            assert float(g[key]) == pytest.approx(float(w[key]), rel=REL_VALUE, abs=0), where
        assert abs(float(g["saturation_gap"])) <= MAX_GAP, where
