"""Tests for the mapping-space search: frontier math and prune soundness."""

from hypothesis import given, settings, strategies as st

import pytest

from repro.analysis.runtime import resolve_engine
from repro.cpu.multicore import simulate_multicore
from repro.cpu.params import default_machine, memory_bound_machine
from repro.errors import ConfigurationError
from repro.kernels.sharding import shard_kernel
from repro.planner import autotune
from repro.planner.autotune import autotune_workload, dominates, pareto_frontier
from repro.types import GemmShape, SparsityPattern

MACHINES = {
    "default": default_machine(),
    "membound": memory_bound_machine(),
}


class TestDominance:
    def test_strict_dominance(self):
        assert dominates((1, 1, 1), (2, 2, 2))
        assert dominates((1, 2, 2), (2, 2, 2))

    def test_ties_do_not_dominate(self):
        assert not dominates((2, 2, 2), (2, 2, 2))

    def test_tradeoffs_do_not_dominate(self):
        assert not dominates((1, 3, 1), (2, 2, 2))
        assert not dominates((2, 2, 2), (1, 3, 1))


class TestParetoFrontier:
    def test_single_point_is_the_frontier(self):
        assert pareto_frontier([(1, 1, 1)]) == [0]

    def test_dominated_points_excluded(self):
        points = [(1, 4, 1), (2, 2, 1), (3, 3, 1), (4, 1, 1)]
        assert pareto_frontier(points) == [0, 1, 3]

    def test_exact_ties_are_all_kept(self):
        points = [(1, 1, 1), (1, 1, 1), (2, 2, 2)]
        assert pareto_frontier(points) == [0, 1]

    @given(
        points=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_every_point_is_on_or_dominated_by_the_frontier(self, points):
        frontier = pareto_frontier(points)
        assert frontier, "a non-empty set always has a non-dominated point"
        for index, point in enumerate(points):
            assert index in frontier or any(
                dominates(points[other], point) for other in frontier
            )


def search(machine, pattern, shape, prune, **axes):
    return autotune_workload(
        shape,
        pattern,
        machine,
        engines=axes.get("engines", ("VEGETA-S-4-2", "SME-like")),
        cores=axes.get("cores", (1, 2)),
        strategies=axes.get("strategies", ("row-block", "2d-cyclic")),
        topologies=axes.get("topologies", ("flat",)),
        prune=prune,
        memo=False,
    )


class TestAutotuneWorkload:
    SHAPE = GemmShape(64, 64, 256)

    def test_exhaustive_mode_simulates_every_candidate(self):
        plan = search(MACHINES["default"], SparsityPattern.SPARSE_2_4, self.SHAPE, False)
        assert plan.simulated == len(plan.outcomes)
        assert plan.pruned == 0
        assert all(outcome.simulated for outcome in plan.outcomes)

    def test_pruned_mode_keeps_accounting_consistent(self):
        plan = search(MACHINES["default"], SparsityPattern.SPARSE_2_4, self.SHAPE, True)
        assert plan.simulated + plan.pruned == len(plan.outcomes)
        assert plan.space_size >= len(plan.outcomes)
        assert plan.prune_ratio >= 1.0

    def test_best_is_the_lowest_cycle_frontier_point(self):
        plan = search(MACHINES["default"], SparsityPattern.SPARSE_2_4, self.SHAPE, False)
        best = plan.best
        assert best is not None and best.on_frontier
        assert best.cycles == min(outcome.cycles for outcome in plan.frontier)

    def test_search_is_deterministic(self):
        first = search(MACHINES["default"], SparsityPattern.SPARSE_2_4, self.SHAPE, True)
        second = search(MACHINES["default"], SparsityPattern.SPARSE_2_4, self.SHAPE, True)
        assert [o.as_row() for o in first.outcomes] == [
            o.as_row() for o in second.outcomes
        ]

    def test_block_memo_does_not_change_the_table(self):
        without = autotune_workload(
            self.SHAPE,
            SparsityPattern.SPARSE_2_4,
            MACHINES["default"],
            engines=("VEGETA-S-4-2", "SME-like"),
            cores=(1, 2),
            strategies=("row-block", "2d-cyclic"),
            topologies=("flat",),
            memo=False,
        )
        with_memo = autotune_workload(
            self.SHAPE,
            SparsityPattern.SPARSE_2_4,
            MACHINES["default"],
            engines=("VEGETA-S-4-2", "SME-like"),
            cores=(1, 2),
            strategies=("row-block", "2d-cyclic"),
            topologies=("flat",),
            memo=True,
        )
        assert [o.as_row() for o in without.outcomes] == [
            o.as_row() for o in with_memo.outcomes
        ]

    def test_pruned_outcome_has_no_objectives(self):
        plan = search(
            MACHINES["default"],
            SparsityPattern.SPARSE_2_4,
            self.SHAPE,
            True,
            engines=("VEGETA-D-1-1", "VEGETA-S-4-2", "SME-like"),
            cores=(1, 2, 4),
        )
        pruned = [outcome for outcome in plan.outcomes if not outcome.simulated]
        if not pruned:
            pytest.skip("nothing pruned on this space")
        with pytest.raises(ConfigurationError):
            pruned[0].objectives

    def test_spgemm_flag_is_timing_inert_on_dense_kernels(self):
        # The justification for collapsing ``+SPGEMM`` candidates on
        # non-SpGEMM kernels: the flag changes nothing but the SpGEMM feed
        # overhead, so dense-GEMM cycles are bit-identical across the pair.
        shape = GemmShape(64, 64, 128)
        sharded = shard_kernel(
            "gemm", shape, SparsityPattern.DENSE_4_4, 2, "row-block"
        )
        cycles = {
            name: simulate_multicore(
                sharded.programs,
                machine=MACHINES["default"],
                engine=resolve_engine(name),
                memo=False,
            ).core_cycles
            for name in ("VEGETA-S-16-2+OF", "VEGETA-S-16-2+OF+SPGEMM")
        }
        assert cycles["VEGETA-S-16-2+OF"] == cycles["VEGETA-S-16-2+OF+SPGEMM"]


class TestLazySharding:
    """Pricing builds no shard: ``shard_kernel`` runs once per distinct shard
    of the candidates the search simulates, and for no other."""

    @staticmethod
    def _counted_search(monkeypatch, prune):
        calls = []

        def counting(kind, shape, pattern, cores, strategy, *, topology, geometry):
            calls.append((kind, geometry.name, pattern.value, cores, strategy, id(topology)))
            return shard_kernel(
                kind, shape, pattern, cores, strategy, topology=topology, geometry=geometry
            )

        monkeypatch.setattr(autotune, "shard_kernel", counting)
        plan = search(
            MACHINES["membound"],
            SparsityPattern.SPARSE_2_4,
            GemmShape(64, 64, 256),
            prune,
            engines=("VEGETA-D-1-1", "VEGETA-S-4-2", "VEGETA-S-16-2+OF+SPGEMM", "AMX-like"),
            cores=(1, 2, 4),
            topologies=("flat", "dual-socket"),
        )
        return plan, calls

    @staticmethod
    def _shard_keys(outcomes):
        return {
            (
                o.candidate.kernel,
                resolve_engine(o.candidate.engine).geometry.name,
                o.candidate.executed,
                o.candidate.cores,
                o.candidate.strategy,
                o.candidate.topology,
            )
            for o in outcomes
        }

    def test_pruned_search_shards_only_the_simulated_candidates(self, monkeypatch):
        plan, calls = self._counted_search(monkeypatch, True)
        simulated = self._shard_keys(o for o in plan.outcomes if o.simulated)
        assert plan.pruned > 0
        assert len(calls) == len(set(calls)) == len(simulated)
        assert sorted(call[:5] for call in calls) == sorted(key[:5] for key in simulated)
        assert len(simulated) < len(self._shard_keys(plan.outcomes))

    def test_exhaustive_search_shards_every_partition_once(self, monkeypatch):
        plan, calls = self._counted_search(monkeypatch, False)
        every = self._shard_keys(plan.outcomes)
        assert len(calls) == len(set(calls)) == len(every)
        assert sorted(call[:5] for call in calls) == sorted(key[:5] for key in every)


class TestPruneSoundness:
    """Pruning must be frontier-preserving on exhaustively simulated spaces."""

    @given(
        machine_name=st.sampled_from(sorted(MACHINES)),
        pattern=st.sampled_from(
            [SparsityPattern.DENSE_4_4, SparsityPattern.SPARSE_2_4]
        ),
        engines=st.sets(
            st.sampled_from(
                [
                    "VEGETA-D-1-1",
                    "VEGETA-S-4-2",
                    "VEGETA-S-16-2+OF+SPGEMM",
                    "AMX-like",
                    "SME-like",
                ]
            ),
            min_size=1,
            max_size=3,
        ),
        cores=st.sets(st.sampled_from([1, 2, 4]), min_size=1, max_size=2),
        strategies=st.sets(
            st.sampled_from(["row-block", "column-block", "2d-cyclic"]),
            min_size=1,
            max_size=2,
        ),
        topologies=st.sets(
            st.sampled_from(["flat", "dual-socket"]), min_size=1, max_size=2
        ),
    )
    @settings(max_examples=12, deadline=None)
    def test_frontier_identical_with_and_without_pruning(
        self, machine_name, pattern, engines, cores, strategies, topologies
    ):
        machine = MACHINES[machine_name]
        shape = GemmShape(64, 64, 256)
        axes = dict(
            engines=tuple(sorted(engines)),
            cores=tuple(sorted(cores)),
            strategies=tuple(sorted(strategies)),
            topologies=tuple(sorted(topologies)),
        )
        exhaustive = search(machine, pattern, shape, False, **axes)
        pruned = search(machine, pattern, shape, True, **axes)

        # The bound the pruning leans on is sound on every simulated point.
        for outcome in exhaustive.outcomes:
            assert outcome.statics.bound_cycles <= outcome.cycles

        def frontier_keys(plan):
            return {
                (outcome.candidate, outcome.cycles) for outcome in plan.frontier
            }

        # A pruned search must find the exact frontier of the exhaustive one:
        # no frontier point pruned, no dominated point promoted.
        assert frontier_keys(pruned) == frontier_keys(exhaustive)
        assert pruned.space_size == exhaustive.space_size
        assert pruned.simulated <= exhaustive.simulated
