"""The `python -m repro.experiments` command line."""

from repro.experiments.__main__ import EXPERIMENTS, main


def test_unknown_experiment_exits_2(capsys):
    assert main(["bogus"]) == 2
    out = capsys.readouterr().out
    assert "unknown experiment" in out
    assert "table3" in out  # lists available names


def test_single_experiment_renders(capsys):
    assert main(["figure9"]) == 0
    out = capsys.readouterr().out
    assert "Figure 9" in out
    assert "functional" in out


def test_registry_covers_all_tables_and_figures():
    assert list(EXPERIMENTS) == [
        "table1",
        "table2",
        "table3",
        "table4",
        "figure4",
        "figure9",
    ]
