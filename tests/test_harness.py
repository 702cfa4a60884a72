import csv
import io
import json

import pytest

from surfc import harness, router, scheduler
from surfc.chip import ChipModel, ChipSpec, config_dims, derive_layout
from surfc.errors import InfeasibleError, SurfcError
from surfc.harness import (
    SCHEDULERS,
    RunConfig,
    compare,
    config_from_mapping,
    load_circuit,
    parse_config_file,
    place,
    run,
    run_full,
    sweep,
)
from surfc.scheduler import validate

LS = ChipModel.LATTICE_SURGERY
DD = ChipModel.DOUBLE_DEFECT


class TestRun:
    def test_ghz_lattice_surgery_min(self):
        rep = run(RunConfig(benchmark="ghz_state_n23", model=LS, chip="min", d=3, seed=1))
        assert rep.delta == 22
        assert rep.valid

    def test_bv_double_defect_min(self):
        rep = run(RunConfig(benchmark="bv_10", model=DD, chip="min", d=3, seed=1))
        assert rep.delta == 5

    def test_empty_circuit(self, tmp_path):
        path = tmp_path / "empty.qasm"
        path.write_text("qreg q[3];\nh q[0];\n")
        rep = run(RunConfig(qasm_path=str(path), model=DD, chip="min", d=2))
        assert rep.delta == 0
        assert rep.valid

    @pytest.mark.parametrize("scheduler_name", ["ecmas", "resu"])
    @pytest.mark.parametrize("model", [DD, LS])
    @pytest.mark.parametrize("text", ["qreg q[0];\n", "qreg q[3];\nh q[0];\n"],
                             ids=["no-qubits", "gate-free"])
    def test_no_gates(self, tmp_path, text, model, scheduler_name):
        path = tmp_path / "no_gates.qasm"
        path.write_text(text)
        rep, schedule = run_full(RunConfig(qasm_path=str(path), model=model, chip="min", d=2,
                                           scheduler=scheduler_name))
        assert (rep.g, rep.delta, schedule.cycles) == (0, 0, [])

    def test_random_source(self):
        rep = run(RunConfig(random_params=(8, 4, 2), model=DD, chip="min", d=2, seed=3))
        assert rep.alpha == 4
        assert rep.pm_estimate == 2
        assert rep.delta >= 4

    def test_remap_when_repair_leaves_pair_stranded(self):
        # an explicit chip with a thin LS fabric: mapped once, route-aware,
        # onto the layout it is scheduled on, no pair is left stranded
        config = RunConfig(random_params=(16, 10, 2), model=LS, chip="15x15", d=2, seed=4)
        rep, schedule = run_full(config)
        circ = load_circuit(config)
        assert validate(schedule, circ, schedule.layout, schedule.mapping) == []
        assert rep.delta >= rep.alpha

    def test_config_validation(self):
        with pytest.raises(InfeasibleError):
            RunConfig(benchmark="bv_10", scheduler="magic")
        with pytest.raises(InfeasibleError, match="unknown mapping kind 'x'"):
            RunConfig(benchmark="bv_10", mapping="x")
        with pytest.raises(InfeasibleError, match="unknown cut kind 'x'"):
            RunConfig(benchmark="bv_10", cuts="x")
        with pytest.raises(InfeasibleError):
            RunConfig(benchmark="bv_10", model=LS, cuts="maxcut")
        with pytest.raises(InfeasibleError):
            RunConfig()  # no source

    def test_report_serializable(self):
        rep = run(RunConfig(benchmark="bv_10", model=DD, chip="min", d=2, seed=0))
        payload = json.loads(json.dumps(rep.to_json_dict()))
        assert payload["delta"] == rep.delta
        assert payload["scheduler"] == "ecmas"


class TestPlace:
    def test_lattice_surgery_maps_onto_the_uniform_layout(self):
        m1, m2 = config_dims("4x", 9, 2, LS)
        uniform = derive_layout(ChipSpec(LS, m1, m2, 2), 9)
        for scheduler_name in SCHEDULERS:
            config = RunConfig(random_params=(9, 5, 2), model=LS, chip="4x", d=2,
                               scheduler=scheduler_name, trials=2)
            _layers, layout, _mapping = place(config, load_circuit(config))
            assert layout == uniform

    def test_stranded_pair_rejected_before_scheduling(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("schedule_limited ran on a stranded mapping")

        monkeypatch.setattr(harness, "schedule_limited", never)
        # the snake mapping leaves qubits 1 and 8 with no ancilla path between them
        config = RunConfig(random_params=(9, 5, 2), model=LS, chip="min", d=2,
                           mapping="snake")
        with pytest.raises(InfeasibleError, match=r"strands 1 interacting pair\(s\)"
                                                  r".*qubits 1 and 8"):
            run_full(config)


class TestOneFabric:
    """A lattice-surgery compile builds one ``Fabric``, the scheduler's:
    mapping, repair and the stranded-pair check read the free fabric from
    bitmasks."""

    @pytest.mark.parametrize("config", [
        RunConfig(random_params=(16, 10, 4), model=LS, chip="sufficient", d=3, seed=2,
                  scheduler="resu", mapping="snake"),
        RunConfig(random_params=(16, 10, 3), model=LS, chip="4x", d=3, seed=2, trials=2),
    ], ids=["resu-snake", "ecmas"])
    def test_one_fabric_per_compile(self, monkeypatch, config):
        built = []
        init = router.Fabric.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(router.Fabric, "__init__", counted)
        run_full(config)
        assert len(built) == 1


class TestTracedStages:
    """perfbench traces a compile by replacing these names in the globals of
    ``harness`` and ``scheduler``; each must still be looked up there at run
    time, or its span silently disappears."""

    HARNESS = ("parse_qasm", "build_dag", "build_comm_graph", "para_finding", "config_dims",
               "derive_layout", "establish_mapping", "baseline_mapping", "adjust_bandwidth",
               "repair_mapping", "init_cut_types", "schedule_limited", "schedule_sufficient",
               "validate")
    SCHEDULER = ("find_path", "route_batch_guaranteed", "build_dag")

    def test_every_stage_is_called_through_module_globals(self, monkeypatch, tmp_path):
        calls: list[str] = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for prefix, module, names in (("", harness, self.HARNESS),
                                      ("scheduler.", scheduler, self.SCHEDULER)):
            for attr in names:
                monkeypatch.setattr(module, attr, counted(prefix + attr, getattr(module, attr)))
        qasm = tmp_path / "c.qasm"
        qasm.write_text("qreg q[4];\ncx q[0],q[1];\ncx q[2],q[3];\ncx q[1],q[2];\n")
        compiles = [
            (RunConfig(qasm_path=str(qasm), model=DD, chip="40x40", d=2),
             {"parse_qasm", "build_dag", "build_comm_graph", "para_finding", "config_dims",
              "derive_layout", "establish_mapping", "adjust_bandwidth", "repair_mapping",
              "init_cut_types", "schedule_limited", "validate", "scheduler.find_path",
              "scheduler.build_dag"}),
            (RunConfig(random_params=(9, 4, 3), model=LS, chip="sufficient", d=2,
                       scheduler="resu", trials=2),
             {"schedule_sufficient", "establish_mapping", "scheduler.route_batch_guaranteed"}),
            (RunConfig(random_params=(9, 4, 3), model=DD, chip="min", d=2, mapping="snake"),
             {"baseline_mapping", "adjust_bandwidth", "schedule_limited"}),
        ]
        for config, expected in compiles:
            calls.clear()
            run_full(config)
            assert expected <= set(calls), expected - set(calls)


class TestSchedulePayload:
    def test_schedule_json_shape(self):
        report, schedule = run_full(
            RunConfig(benchmark="bv_10", model=DD, chip="min", d=2, seed=0)
        )
        payload = schedule.to_json_dict()
        assert payload["delta"] == report.delta
        assert [c["index"] for c in payload["cycles"]] == list(range(report.delta))
        first = payload["cycles"][0]["actions"][0]
        assert set(first) == {"kind", "gate", "route", "tile", "cut", "phase"}


class TestSweep:
    def test_single_row(self):
        rows, text = sweep([RunConfig(benchmark="bv_10", model=DD, chip="min", d=2, label="bv")])
        assert len(rows) == 1
        assert rows[0]["delta"] == 5
        assert text.splitlines()[0].startswith("label,")

    def test_partial_failure_recorded(self):
        ok = RunConfig(benchmark="ghz_state_n23", model=LS, chip="min", d=2, label="good", seed=1)
        bad = RunConfig(benchmark="qft_10", model=LS, chip="min", d=2, label="bad", seed=1)
        rows, text = sweep([ok, bad])
        assert rows[0]["valid"] is True
        assert rows[1]["valid"] is False and rows[1]["error"]
        assert "bad" in text

    def test_failed_rows_name_their_config(self):
        few_trials = RunConfig(benchmark="bv_10", model=LS, chip="min", trials=0)
        no_distance = RunConfig(benchmark="bv_10", model=DD, chip="4x", d=0, seed=2,
                                mapping="snake", cuts="maxcut", label="d0")
        rows, text = sweep([few_trials, no_distance])
        assert [row["valid"] for row in rows] == [False, False]
        assert rows[0]["error"] == "establish_mapping needs at least one trial"
        config_fields = ("label", "model", "chip", "scheduler", "mapping", "cuts", "seed")
        assert [rows[0][k] for k in config_fields] == ["bv_10", "ls", "min", "ecmas", "ecmas", "ecmas", 0]
        assert [rows[1][k] for k in config_fields] == ["d0", "dd", "4x", "ecmas", "snake", "maxcut", 2]
        assert text.splitlines()[1].startswith("bv_10,,,,,ls,min,")

    def test_reproducible(self):
        configs = [
            RunConfig(random_params=(10, 5, 3), model=DD, chip="min", d=2, seed=s, label=f"r{s}")
            for s in range(3)
        ]
        rows1, text1 = sweep(configs)
        rows2, text2 = sweep(configs)
        for a, b in zip(rows1, rows2):
            a2, b2 = dict(a), dict(b)
            a2.pop("compile_seconds"), b2.pop("compile_seconds")
            a2.pop("time_ratio", None), b2.pop("time_ratio", None)
            assert a2 == b2

    def test_worker_pool_matches_one_worker(self):
        configs = [
            RunConfig(random_params=(8, 4, 2), model=DD, chip="min", d=2, seed=1, label="dd"),
            RunConfig(benchmark="qft_10", model=LS, chip="min", d=2, label="bad", seed=1),
        ]
        timing = ("compile_seconds", "time_ratio")

        def untimed(rows):
            return [{k: v for k, v in row.items() if k not in timing} for row in rows]

        serial, pooled = sweep(configs, workers=1), sweep(configs, workers=2)
        assert untimed(pooled[0]) == untimed(serial[0])
        assert [row["valid"] for row in pooled[0]] == [True, False]
        csv_rows = [untimed(csv.DictReader(io.StringIO(text))) for _rows, text in (serial, pooled)]
        assert csv_rows[0] == csv_rows[1] and len(csv_rows[0]) == 2

    def test_time_ratio_grouping(self):
        base = dict(benchmark="bv_10", model=DD, d=2, label="bv", seed=0)
        rows, _ = sweep([
            RunConfig(chip="min", **base),
            RunConfig(chip="4x", **base),
        ])
        assert rows[0]["time_ratio"] == 1.0
        assert isinstance(rows[1]["time_ratio"], float)


class TestCompare:
    def test_paper_ratio(self):
        a = {"label": "x", "chip_dims": [10, 10], "model": "dd", "delta": 147}
        b = {"label": "x", "chip_dims": [10, 10], "model": "dd", "delta": 48}
        assert compare(a, b) == pytest.approx(67.3469387755102)

    def test_equal_deltas(self):
        a = {"label": "x", "chip_dims": [10, 10], "model": "dd", "delta": 15}
        assert compare(a, dict(a)) == 0.0

    def test_bv_ratio(self):
        a = {"label": "x", "chip_dims": [10, 10], "model": "dd", "delta": 15}
        b = {"label": "x", "chip_dims": [10, 10], "model": "dd", "delta": 5}
        assert round(compare(a, b), 1) == 66.7

    def test_mismatched_inputs(self):
        a = {"label": "x", "chip_dims": [10, 10], "model": "dd", "delta": 15}
        b = {"label": "y", "chip_dims": [10, 10], "model": "dd", "delta": 5}
        with pytest.raises(InfeasibleError):
            compare(a, b)


class TestConfigFile:
    def test_parse_and_build(self):
        text = """
        # benchmark sweep row
        benchmark = bv_10
        model = dd
        chip = min
        d = 2
        seed = 7
        scheduler = ecmas
        """
        config = config_from_mapping(parse_config_file(text))
        assert config.benchmark == "bv_10"
        assert config.d == 2 and config.seed == 7

    def test_random_source_key(self):
        config = config_from_mapping(parse_config_file("random = 8,4,2\nmodel = ls\n"))
        assert config.random_params == (8, 4, 2)
        assert config.model is LS

    def test_bad_line(self):
        with pytest.raises(InfeasibleError):
            parse_config_file("benchmark bv_10\n")

    def test_unknown_key(self):
        with pytest.raises(InfeasibleError):
            config_from_mapping({"notakey": 1})
