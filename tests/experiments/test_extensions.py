"""Tests for the extension experiments (PARSEC multi-VCore, energy)."""

import pytest

from repro.experiments import energy_delay, parsec_multivcore


class TestParsecExperiment:
    def test_runs_all_parsec_workloads(self):
        results = parsec_multivcore.run(trace_length=300)
        assert set(results) == {"dedup", "swaptions", "ferret"}
        for row in results.values():
            assert row["aggregate_ipc"] > 0
            assert row["vm_cycles_shared"] >= row["vm_cycles_private"]

    def test_subset_selection(self):
        results = parsec_multivcore.run(benchmarks=["dedup"],
                                        trace_length=300)
        assert set(results) == {"dedup"}


class TestEnergyExperiment:
    def test_table_shape(self):
        table = energy_delay.run(benchmarks=["gcc", "hmmer", "omnetpp"]).table
        assert set(table) == {1, 2, 3}
        for row in table.values():
            assert set(row) == {"gcc", "hmmer", "omnetpp"}

    def test_higher_exponent_bigger_cores(self):
        table = energy_delay.run(benchmarks=["gcc"]).table
        ed1 = table[1]["gcc"]
        ed3 = table[3]["gcc"]
        assert ed3[1] >= ed1[1]

