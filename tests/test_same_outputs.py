"""tools/same_outputs.py's drift line: each column's worst relative and
absolute change between two renderings of a table."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "same_outputs", os.path.join(ROOT, "tools", "same_outputs.py"))
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

OLD = "N,T,diff,verdict\r\n1,0.5,1e-13,band\r\n2,0.25,,gap\r\n3,inf,0,gap\r\n"


def test_column_changes_prints_relative_and_absolute():
    new = "N,T,diff,verdict\r\n1,0.5,2e-13,band\r\n2,0.2,3e-13,edge\r\n3,inf,0,gap\r\n"
    # T: |0.2 - 0.25| = 0.05, relative 0.2; diff: 1e-13 -> 2e-13 is relative
    # 0.5 but absolute 1e-13, and an empty cell against a number is counted
    assert same_outputs.column_changes(OLD, new, "csv") == (
        "N 0.0e+00 (abs 0.0e+00), T 2.0e-01 (abs 5.0e-02), "
        "diff 5.0e-01 (abs 1.0e-13) +1 cells, verdict +1 cells")


def test_column_changes_of_equal_tables_reads_zero():
    assert same_outputs.column_changes(OLD, OLD, "csv") == (
        "N 0.0e+00 (abs 0.0e+00), T 0.0e+00 (abs 0.0e+00), diff 0.0e+00 (abs 0.0e+00), verdict")


@pytest.mark.parametrize("old, new", [(1.0, float("inf")), (1.0, float("nan")),
                                      (float("nan"), 1.0), (float("-inf"), float("inf"))])
def test_a_non_finite_change_is_infinite(old, new):
    assert same_outputs._change(old, new) == (float("inf"), float("inf"))


def test_shape_change_is_named():
    assert same_outputs.column_changes(OLD, "N\r\n1\r\n", "csv") == "table shape 3 -> 1 rows"
