"""Paper Table 1 held against the production core.

Table 1 sorts a VCore's structures into *replicated* ones (every Slice
keeps a full private copy, sized for the largest VCore) and
*partitioned* ones (every Slice holds one partition, so the VCore's
capacity grows with its Slice count).  These tests read both off
:class:`~repro.core.batched.BatchedSimulator` at 1 and 8 Slices.
"""

from repro.core.batched import BatchedSimulator
from repro.core.config import SimConfig
from repro.trace.generator import generate_trace

REPLICATED = {"branch_predictor", "btb", "scoreboard", "global_rat"}
PARTITIONED = {"issue_window", "load_queue", "store_queue", "rob",
               "local_rat", "physical_rf"}

#: Table 1 rows the core does not keep as structures of their own.
NOT_SEPARATE = {
    "scoreboard": "operand readiness is per-instruction state",
    "global_rat": "one rename map stands for the identical Slice copies",
    "local_rat": "each Slice's LRF maps the global registers it holds",
}

#: Per-Slice size of every modelled row (paper Table 2).
SIZES = {"branch_predictor": 1024, "btb": 512, "issue_window": 32,
         "load_queue": 32, "store_queue": 32, "rob": 64,
         "physical_rf": 64}


def per_slice(slices):
    """Modelled Table 1 row -> size of each Slice's copy or partition."""
    core = BatchedSimulator(generate_trace("gcc", 64, seed=1),
                            SimConfig().with_vcore(slices, 128.0))
    lsq = [core.lsq_cap] * len(core.lsq_banks)  # one bank holds both
    return {
        "branch_predictor": [len(table) for table in core.bp],
        "btb": [len(table) for table in core.btb],
        "issue_window": [core.win_cap] * len(core.alu_w),
        "load_queue": lsq,
        "store_queue": lsq,
        "rob": [core.rob_cap] * len(core.rob_c),
        "physical_rf": [lrf.capacity for lrf in core.lrf],
    }


class TestTable1:
    def test_paper_replicated_set(self):
        """A full-size copy per Slice, never split as the VCore grows."""
        for slices in (1, 8):
            structures = per_slice(slices)
            for row in REPLICATED - set(NOT_SEPARATE):
                assert structures[row] == [SIZES[row]] * slices, row

    def test_paper_partitioned_set(self):
        """One partition per Slice: aggregate capacity grows 8x."""
        one, eight = per_slice(1), per_slice(8)
        for row in PARTITIONED - set(NOT_SEPARATE):
            assert one[row] == [SIZES[row]], row
            assert eight[row] == [SIZES[row]] * 8, row
            assert sum(eight[row]) == 8 * sum(one[row])

    def test_every_structure_classified(self):
        assert not REPLICATED & PARTITIONED
        modelled = set(per_slice(1))
        assert not modelled & set(NOT_SEPARATE)
        assert modelled | set(NOT_SEPARATE) == REPLICATED | PARTITIONED
