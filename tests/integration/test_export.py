"""Tests of the CSV results export."""

import csv

import pytest

from repro.experiments.export import write_csv_reports
from repro.experiments.report import run_paper


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("results")
    write_csv_reports(directory, run_paper(transactions=300,
                                           include_gate_level=False))
    return directory


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestCsvExport:
    def test_all_five_artefacts_written(self, csv_dir):
        names = sorted(path.name for path in csv_dir.glob("*.csv"))
        assert names == [
            "casestudy_exploration.csv", "figure6_sampling.csv",
            "table1_timing.csv", "table2_energy.csv",
            "table3_performance.csv"]

    def test_table1_rows(self, csv_dir):
        rows = read_csv(csv_dir / "table1_timing.csv")
        assert rows[0] == ["abstraction_level", "cycles",
                           "cycles_relative_percent", "error_percent"]
        assert len(rows) == 4  # header + 3 models
        assert rows[1][3] == ""  # gate level has no error column
        assert float(rows[2][3]) == 0.0  # layer 1 exact

    def test_table2_numbers_parse(self, csv_dir):
        rows = read_csv(csv_dir / "table2_energy.csv")
        layer1 = [row for row in rows if "layer 1" in row[0]][0]
        assert float(layer1[3]) < 0  # under-estimates

    def test_table3_numbers_parse(self, csv_dir):
        rows = read_csv(csv_dir / "table3_performance.csv")
        assert len(rows) == 3
        assert float(rows[1][1]) > 0

    def test_casestudy_has_twelve_configurations(self, csv_dir):
        rows = read_csv(csv_dir / "casestudy_exploration.csv")
        assert len(rows) == 13  # header + 12 configs
        assert all(row[7] == "1" for row in rows[1:])  # all correct

    def test_figure6_samples(self, csv_dir):
        rows = read_csv(csv_dir / "figure6_sampling.csv")
        assert rows[0] == ["sample_cycle", "layer2_pj", "layer1_pj"]
        assert rows[-1][0] == "final"
