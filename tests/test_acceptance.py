"""Acceptance gate: one test per criterion, each printing a PASS line with its
measured evidence (run with ``pytest tests/test_acceptance.py -v -s``)."""
import math
import random
import time

import pytest

from conftest import uniform_dd_layout
from reference_oracle import optimal_cycles
from surfc.bench import benchmark
from surfc.chip import ChipModel, chip_capacity, dims_for_avg_bandwidth
from surfc.circuits import build_dag, build_comm_graph, circuit, two_coloring
from surfc.errors import SchedulingError
from surfc.generate import gen_random_circuit
from surfc.harness import RunConfig, run, run_full
from surfc.oracle import OracleBudget
from surfc.placement import ArrayShape, baseline_mapping
from surfc.profiler import para_finding
from surfc.router import resource_capacities, route_batch_guaranteed
from surfc.scheduler import schedule_sufficient, validate

DD = ChipModel.DOUBLE_DEFECT
LS = ChipModel.LATTICE_SURGERY


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS — {detail}")


GOLDEN_CASES = [
    # (label, benchmark, model, chip, scheduler, expected delta)
    ("ghz23-ls-min", "ghz_state_n23", LS, "min", "ecmas", 22),
    ("bv10-ls-min", "bv_10", LS, "min", "ecmas", 5),
    ("qpe-chain-ls-min", "qpe_like_n9", LS, "min", "ecmas", 42),
    ("ghz23-dd-min", "ghz_state_n23", DD, "min", "ecmas", 22),
    ("bv10-dd-min", "bv_10", DD, "min", "ecmas", 5),
    ("ghz23-dd-resu", "ghz_state_n23", DD, "min", "resu", 22),
    ("ising10-dd-resu-sufficient", "ising_n10", DD, "sufficient", "resu", 20),
]


class TestCriterion1GoldenLowerBounds:
    @pytest.mark.parametrize("label,bench,model,chip,sched,expected",
                             GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_golden(self, label, bench, model, chip, sched, expected):
        t0 = time.monotonic()
        rep = run(RunConfig(benchmark=bench, model=model, chip=chip,
                            scheduler=sched, d=3, seed=1))
        elapsed = time.monotonic() - t0
        assert rep.delta == expected
        assert rep.delta == rep.alpha  # lower-bound tight
        # the sufficient-resources golden must actually satisfy the capacity bound
        if sched == "resu":
            assert rep.capacity >= rep.pm_estimate
        assert elapsed < 1.0, f"{label} took {elapsed:.2f}s"
        _report(f"criterion-1 [{label}]", f"delta={rep.delta}=alpha in {elapsed:.2f}s")


class TestCriterion2Motivation:
    def test_five_independent_gates_single_cycle(self):
        # five disjoint CNOTs on ten qubits, the 4x-style chip, full pipeline
        # (mapping, bandwidth adjusting, cut init, limited scheduling)
        t0 = time.monotonic()
        config = RunConfig(random_params=(10, 1, 5), model=DD, chip="4x", d=2, seed=0)
        rep = run(config)
        elapsed = time.monotonic() - t0
        assert rep.alpha == 1 and rep.g == 5
        assert rep.delta == 1
        assert elapsed < 1.0
        _report("criterion-2", f"five independent gates scheduled in delta=1 ({elapsed:.2f}s)")


class TestCriterion3RoutingGuarantee:
    def test_thousand_trials_per_bandwidth(self):
        t0 = time.monotonic()
        totals = {}
        for bandwidth in (1, 3, 5):
            k = chip_capacity(bandwidth)
            rng = random.Random(1234 + bandwidth)
            done = 0
            while done < 1000:
                g = rng.randint(3, 8)
                if g * g < 2 * k:
                    continue
                layout = uniform_dd_layout(g, g, bandwidth=bandwidth)
                tiles = [(r, c) for r in range(g) for c in range(g)]
                rng.shuffle(tiles)
                pairs = [(tiles[2 * i], tiles[2 * i + 1]) for i in range(k)]
                paths = route_batch_guaranteed(layout, pairs)  # raises on failure
                cap = resource_capacities(layout)
                usage = {}
                for p in paths:
                    for res in p.resources():
                        usage[res] = usage.get(res, 0) + 1
                        assert usage[res] <= cap(res)
                done += 1
            totals[bandwidth] = done
        elapsed = time.monotonic() - t0
        assert totals == {1: 1000, 3: 1000, 5: 1000}
        assert elapsed < 120.0
        _report("criterion-3", f"3000/3000 guaranteed batches routed in {elapsed:.1f}s")


class TestCriterion4AdjacentLayersBipartite:
    def test_five_hundred_circuits(self):
        t0 = time.monotonic()
        checked = 0
        for seed in range(500):
            rng = random.Random(seed)
            n = rng.randint(4, 20)
            depth = rng.randint(2, 10)
            par = rng.randint(1, n // 2)
            c = gen_random_circuit(n, depth, par, seed=seed)
            layers = para_finding(build_dag(c))
            for i in range(layers.alpha - 1):
                edges = set()
                for gid in layers.layers[i] + layers.layers[i + 1]:
                    a, b = c.gates[gid].qubits
                    edges.add((min(a, b), max(a, b)))
                assert two_coloring(c.n, edges) is not None, (seed, i)
            checked += 1
        elapsed = time.monotonic() - t0
        assert checked == 500
        assert elapsed < 30.0
        _report("criterion-4", f"500/500 circuits: all adjacent layer pairs bipartite ({elapsed:.1f}s)")


class TestCriterion5Approximation:
    def test_two_hundred_oracle_instances(self):
        t0 = time.monotonic()
        budget = OracleBudget()
        worst = 0.0
        for trial in range(200):
            rng = random.Random(5000 + trial)
            n = rng.randint(2, 5)
            g = rng.randint(1, 6)
            pairs = []
            for _ in range(g):
                a, b = rng.sample(range(n), 2)
                pairs.append((a, b))
            c = circuit(n, pairs)
            layout = uniform_dd_layout(2, 3)
            mapping = baseline_mapping("snake", n, ArrayShape(2, 3))
            layers = para_finding(build_dag(c))
            sched = schedule_sufficient(layers, layout, mapping, c)
            mapping2 = sched.mapping
            assert validate(sched, c, layout, mapping2) == []
            opt = optimal_cycles(c, layout, mapping2, budget)
            assert sched.delta <= math.ceil(2.5 * opt), (trial, sched.delta, opt)
            worst = max(worst, sched.delta / max(opt, 1))
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0
        _report("criterion-5", f"200/200 within ceil(2.5*opt); worst ratio {worst:.2f} ({elapsed:.1f}s)")


CORPUS = [
    RunConfig(benchmark="ghz_state_n23", model=LS, chip="min", d=3, seed=1),
    RunConfig(benchmark="ghz_state_n23", model=DD, chip="min", d=3, seed=1),
    RunConfig(benchmark="ghz_state_n23", model=DD, chip="min", d=3, seed=1, scheduler="resu"),
    RunConfig(benchmark="bv_10", model=DD, chip="min", d=3, seed=1, scheduler="channel-first"),
    RunConfig(benchmark="bv_10", model=DD, chip="min", d=3, seed=1, scheduler="time-first"),
    RunConfig(benchmark="bv_10", model=LS, chip="4x", d=2, seed=1),
    RunConfig(benchmark="qft_10", model=DD, chip="min", d=2, seed=1),
    RunConfig(benchmark="qft_10", model=DD, chip="sufficient", d=2, seed=1, scheduler="resu"),
    RunConfig(benchmark="qft_10", model=LS, chip="sufficient", d=2, seed=1, scheduler="resu"),
    RunConfig(benchmark="ising_n10", model=LS, chip="min", d=2, seed=1),
    RunConfig(benchmark="ising_n10", model=DD, chip="min", d=2, seed=1, cuts="random"),
    RunConfig(benchmark="ising_n10", model=DD, chip="min", d=2, seed=1, cuts="maxcut"),
    RunConfig(benchmark="wstate_n27", model=DD, chip="min", d=2, seed=1, scheduler="circuit-order"),
    RunConfig(benchmark="wstate_n27", model=LS, chip="min", d=2, seed=1),
    RunConfig(benchmark="swap_test_n25", model=DD, chip="min", d=2, seed=1, mapping="snake"),
    RunConfig(benchmark="bv_50", model=DD, chip="min", d=2, seed=1, mapping="random"),
    RunConfig(random_params=(12, 8, 4), model=DD, chip="min", d=2, seed=0),
    RunConfig(random_params=(12, 8, 4), model=LS, chip="4x", d=2, seed=0),
    RunConfig(random_params=(9, 6, 3), model=DD, chip="sufficient", d=2, seed=2, scheduler="resu"),
    RunConfig(random_params=(16, 10, 2), model=LS, chip="min", d=2, seed=4),
]


class TestCriterion6UniversalValidity:
    def test_corpus_validates(self):
        from surfc.harness import load_circuit
        t0 = time.monotonic()
        count = 0
        for config in CORPUS:
            report, schedule = run_full(config)  # run() rejects invalid schedules
            circ = load_circuit(config)
            assert validate(schedule, circ, schedule.layout, schedule.mapping) == []
            assert report.delta >= report.alpha
            count += 1
        elapsed = time.monotonic() - t0
        _report("criterion-6", f"{count}/{len(CORPUS)} corpus schedules valid, delta>=alpha ({elapsed:.1f}s)")


class TestCriterion7AblationDirections:
    def test_ecmas_leads_every_baseline(self):
        t0 = time.monotonic()
        variants = {
            "ecmas": dict(scheduler="ecmas", mapping="ecmas", cuts="ecmas"),
            "random-cuts": dict(scheduler="ecmas", mapping="ecmas", cuts="random"),
            "maxcut-cuts": dict(scheduler="ecmas", mapping="ecmas", cuts="maxcut"),
            "circuit-order": dict(scheduler="circuit-order", mapping="ecmas", cuts="ecmas"),
            "time-first": dict(scheduler="time-first", mapping="ecmas", cuts="ecmas"),
            "channel-first": dict(scheduler="channel-first", mapping="ecmas", cuts="ecmas"),
            "snake-map": dict(scheduler="ecmas", mapping="snake", cuts="ecmas"),
        }
        sums = {name: 0 for name in variants}
        seeds = 50
        for seed in range(seeds):
            for name, kw in variants.items():
                config = RunConfig(random_params=(16, 20, 4), model=DD, chip="min",
                                   d=3, seed=seed, trials=8, **kw)
                sums[name] += run(config).delta
        means = {name: total / seeds for name, total in sums.items()}
        elapsed = time.monotonic() - t0
        for name, mean in means.items():
            if name == "ecmas":
                continue
            assert means["ecmas"] <= mean * 1.02, (name, means["ecmas"], mean)
        assert elapsed < 300.0
        detail = ", ".join(f"{k}={v:.1f}" for k, v in sorted(means.items()))
        _report("criterion-7", f"mean deltas over {seeds} seeds: {detail} ({elapsed:.0f}s)")


class TestCriterion8BandwidthTrend:
    def test_bandwidth_two_beats_one(self):
        t0 = time.monotonic()
        reductions = {}
        for model in (DD, LS):
            means = {}
            for b in (1, 2):
                total = 0
                for seed in range(10):
                    dims = dims_for_avg_bandwidth(49, 3, model, b)
                    config = RunConfig(random_params=(49, 50, 21), model=model,
                                       chip=f"{dims[0]}x{dims[1]}", d=3, seed=seed, trials=4)
                    total += run(config).delta
                means[b] = total / 10
            reductions[model.value] = (means[1] - means[2]) / means[1] * 100
            assert means[2] < means[1]
            assert reductions[model.value] >= 5.0, (model, means)
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0
        _report("criterion-8",
                f"mean-delta reduction b1->b2: dd {reductions['dd']:.1f}%, "
                f"ls {reductions['ls']:.1f}% ({elapsed:.0f}s)")
