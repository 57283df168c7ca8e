"""The one size rule, 2 <= n <= MAX_CITIES, holds wherever a size enters:
a CostMatrix, an instance file's header, the generator and a sweep's plan."""

import pytest

from tspbench.backends import BackendSpec
from tspbench.bench import BenchPlan
from tspbench.cli import cli_dispatch
from tspbench.core import MAX_CITIES, CostMatrix, parse_instance
from tspbench.errors import ValidationError

TOO_MANY = MAX_CITIES + 1


def test_cost_matrix_rejects_a_35_city_grid():
    with pytest.raises(ValidationError, match=f"city count must be in 2 .. {MAX_CITIES}"):
        CostMatrix(tuple((0,) * TOO_MANY for _ in range(TOO_MANY)))


def test_parse_instance_rejects_a_35_city_header():
    text = f"{TOO_MANY}\n" + "".join(",".join(["0"] * TOO_MANY) + "\n" for _ in range(TOO_MANY))
    with pytest.raises(ValidationError, match=f"got {TOO_MANY}"):
        parse_instance(text)


def test_bench_plan_rejects_a_size_before_solving_anything():
    with pytest.raises(ValidationError, match="got 40"):
        BenchPlan(n_values=(9, 40), backends=(BackendSpec("serial"),))


def test_bench_names_the_size_rule_not_big(capsys):
    assert cli_dispatch(["bench", "--n", "40", "--backends", "serial"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: city count must be in 2 .. {MAX_CITIES}, got 40"]
