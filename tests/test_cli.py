import json
import os
import subprocess
import sys

import pytest

import surfc
from surfc.chip import ChipModel
from surfc.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from surfc.harness import RunConfig, run_full


def _capture(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


class TestProfile:
    def test_bench_profile(self, capsys):
        assert main(["profile", "--bench", "ghz_state_n23"]) == EXIT_OK
        payload = _capture(capsys)
        assert payload == {"alpha": 22, "g": 22, "pm_estimate": 1}

    def test_random_profile(self, capsys):
        assert main(["profile", "--random", "8,4,2", "--seed", "5"]) == EXIT_OK
        payload = _capture(capsys)
        assert payload["alpha"] == 4 and payload["pm_estimate"] == 2


class TestChip:
    def test_describe_min(self, capsys):
        assert main(["chip", "describe", "--model", "dd", "-n", "9", "-d", "2"]) == EXIT_OK
        payload = _capture(capsys)
        assert payload["array"] == [3, 3]
        assert payload["bandwidth"] == 1
        assert payload["capacity"] == 3

    def test_describe_custom_dims(self, capsys):
        assert main(["chip", "describe", "--model", "ls", "--chip", "20x20",
                     "-n", "10", "-d", "3"]) == EXIT_OK
        payload = _capture(capsys)
        assert payload["model"] == "ls"


class TestMapAndSchedule:
    def test_map_emits_positions_and_cuts(self, capsys):
        assert main(["map", "--bench", "bv_10", "--model", "dd", "-d", "2"]) == EXIT_OK
        payload = _capture(capsys)
        assert len(payload) == 10
        row, col, cut = payload["0"]
        assert cut in ("X", "Z")

    # the snake mapping on the LS min chip strands a pair; both commands reject it
    STRANDED = {("ecmas", "min", "snake", "ls")}

    @pytest.mark.parametrize("model", ["dd", "ls"])
    @pytest.mark.parametrize("mapping", ["ecmas", "snake"])
    @pytest.mark.parametrize("scheduler, chip", [
        ("ecmas", "min"), ("ecmas", "4x"), ("resu", "sufficient"),
    ])
    def test_map_prints_the_mapping_schedule_starts_from(self, capsys, model, mapping,
                                                          scheduler, chip):
        argv = ["--random", "9,5,2", "--model", model, "--mapping", mapping,
                "--scheduler", scheduler, "--chip", chip, "-d", "2", "--trials", "4"]
        if (scheduler, chip, mapping, model) in self.STRANDED:
            assert main(["map", *argv]) == EXIT_INFEASIBLE
            rejected = capsys.readouterr()
            assert main(["schedule", *argv]) == EXIT_INFEASIBLE
            assert capsys.readouterr() == rejected
            assert "no ancilla path joins qubits 1 and 8" in rejected.err
            return
        assert main(["map", *argv]) == EXIT_OK
        printed = {int(q): row for q, row in _capture(capsys).items()}
        _report, schedule = run_full(RunConfig(
            random_params=(9, 5, 2), model=ChipModel(model), mapping=mapping,
            scheduler=scheduler, chip=chip, d=2, trials=4))
        assert {q: (r, c) for q, (r, c, _) in printed.items()} == schedule.mapping.positions
        if scheduler != "resu":
            cuts = schedule.mapping.cuts
            assert {q: cut for q, (_, _, cut) in printed.items()} == \
                {q: cuts[q].value if cuts else None for q in printed}

    def test_schedule_end_to_end(self, capsys, tmp_path):
        out = tmp_path / "schedule.json"
        code = main(["schedule", "--bench", "ghz_state_n23", "--model", "ls",
                     "-d", "3", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["report"]["delta"] == 22
        assert len(payload["schedule"]["cycles"]) == 22

    def test_schedule_prints_the_run_full_payload(self, capsys):
        assert main(["schedule", "--random", "12,6,4", "--seed", "2", "-d", "2",
                     "--chip", "4x"]) == EXIT_OK
        printed = _capture(capsys)
        report, schedule = run_full(RunConfig(random_params=(12, 6, 4), seed=2, d=2, chip="4x"))
        expected = json.loads(json.dumps({"report": report.to_json_dict(),
                                          "schedule": schedule.to_json_dict()}))
        for payload in (printed, expected):
            del payload["report"]["compile_seconds"]
        assert printed == expected
        assert schedule.delta > 0 and printed["schedule"]["cycles"]

    def test_infeasible_exit_code(self, capsys):
        code = main(["schedule", "--bench", "qft_10", "--model", "ls",
                     "-d", "3", "--chip", "min", "--seed", "1"])
        assert code == EXIT_INFEASIBLE  # a stranded mapping is rejected before scheduling

    def test_qasm_validation_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.qasm"
        bad.write_text("qreg q[2];\ncx q[0],q[0];\n")
        assert main(["schedule", "--qasm", str(bad), "--model", "dd"]) == EXIT_VALIDATION

    def test_usage_error(self):
        assert main(["schedule"]) == EXIT_USAGE


class TestOracleCli:
    def test_pm_query(self, capsys):
        assert main(["oracle", "--random", "6,3,2", "--seed", "1", "pm"]) == EXIT_OK
        assert _capture(capsys)["pm_optimal"] == 2

    def test_budget_refusal_message(self, capsys):
        code = main(["oracle", "--bench", "ghz_state_n23", "pm"])
        assert code == EXIT_INFEASIBLE


class TestSweepCompare:
    def test_sweep_and_compare(self, capsys, tmp_path):
        cfg_a = tmp_path / "a.cfg"
        cfg_a.write_text("benchmark = bv_10\nmodel = dd\nchip = min\nd = 2\nlabel = bv_min\n")
        out = tmp_path / "rows.csv"
        assert main(["sweep", str(cfg_a), "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert "bv_min" in text and text.startswith("label,")

        rep_a = tmp_path / "a.json"
        rep_b = tmp_path / "b.json"
        base = {"label": "x", "chip_dims": [10, 10], "model": "dd"}
        rep_a.write_text(json.dumps({**base, "delta": 147}))
        rep_b.write_text(json.dumps({**base, "delta": 48}))
        assert main(["compare", str(rep_a), str(rep_b)]) == EXIT_OK
        assert _capture(capsys)["reduction_percent"] == 67.3


class TestBadInput:
    """Malformed flags and unreadable files exit 1, infeasible input exits 3;
    each prints a one-line error message and no traceback."""

    @pytest.mark.parametrize("argv, code, message", [
        (["profile", "--random", "5"], EXIT_USAGE, "expected N,DEPTH,PAR"),
        (["schedule", "--bench", "bv_10", "--chip", "12x"], EXIT_USAGE, "<m1>x<m2>"),
        (["map", "--bench", "bv_10", "--chip", "1x1"], EXIT_INFEASIBLE, "too small for one"),
        (["map", "--random", "16,10,4", "--seed", "3", "--scheduler", "resu", "--chip", "min",
          "-d", "2"], EXIT_INFEASIBLE, "chip capacity 3 < layering width 4"),
        (["schedule", "--qasm", "{missing}"], EXIT_USAGE, "No such file"),
        (["sweep", "{missing}"], EXIT_USAGE, "No such file"),
        (["schedule", "--bench", "bv_10", "-d", "2", "--model", "ls", "--chip", "4x", "--cuts",
          "maxcut"], EXIT_INFEASIBLE, "cut-type options only apply to the double-defect model"),
        (["map", "--bench", "bv_10", "--model", "ls", "--cuts", "random"], EXIT_INFEASIBLE,
         "cut-type options only apply to the double-defect model"),
        (["chip", "describe", "-n", "-1"], EXIT_INFEASIBLE, "qubit count -1 must be >= 0"),
        (["chip", "describe", "-n", "4", "--pm", "-2", "--chip", "sufficient"], EXIT_INFEASIBLE,
         "parallelism -2 must be >= 0"),
        (["oracle", "--random", "6,3,2", "--seed", "1", "--max-qubits", "1", "pm"], EXIT_INFEASIBLE,
         "instance (g=6, n=6) exceeds oracle budget (g<=8, n<=1)"),
        (["oracle", "--random", "8,4,1", "--seed", "1", "pm"], EXIT_INFEASIBLE,
         "instance (g=4, n=8) exceeds oracle budget (g<=8, n<=6)"),
    ], ids=["random-arity", "chip-format", "map-chip-too-small", "map-resu-capacity",
         "missing-qasm", "missing-config", "schedule-ls-cuts", "map-ls-cuts",
         "chip-negative-qubits", "chip-negative-pm", "oracle-max-qubits",
         "oracle-default-max-qubits"])
    def test_exit_code_and_message(self, capsys, tmp_path, argv, code, message):
        missing = str(tmp_path / "missing.txt")
        assert main([arg.replace("{missing}", missing) for arg in argv]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err.strip().splitlines()[-1]

    @pytest.mark.parametrize("text, code, message", [
        ("benchmark = bv_10\nrandom = 5\n", EXIT_INFEASIBLE, "random '5': expected N,DEPTH,PAR"),
        ("benchmark = bv_10\nchip = 12x\n", EXIT_INFEASIBLE, "chip '12x': expected"),
        ("benchmark = bv_10\nmodel = foo\n", EXIT_INFEASIBLE, "model 'foo': expected dd or ls"),
        ("benchmark = bv_10\nd = two\n", EXIT_INFEASIBLE, "d 'two': expected an integer"),
        ("benchmark = bv_10\nseed = x\n", EXIT_INFEASIBLE, "seed 'x': expected an integer"),
        ("benchmark = bv_10\nchip = 40\n", EXIT_INFEASIBLE, "chip '40': expected"),
        ("qasm = 12345\n", EXIT_USAGE, "No such file or directory: '12345'"),
    ], ids=["sweep-random-arity", "sweep-chip-format", "sweep-model", "sweep-distance",
            "sweep-seed", "sweep-chip-number", "sweep-qasm-number"])
    def test_bad_sweep_config(self, capsys, tmp_path, monkeypatch, text, code, message):
        monkeypatch.chdir(tmp_path)  # no file named 12345 here
        config = tmp_path / "row.cfg"
        config.write_text(text)
        assert main(["sweep", str(config)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1 and message in err

    @pytest.mark.parametrize("data, message", [
        (b'{"delta": 5', "invalid JSON"),
        (b'{"delta": 5, "label": "\xff"}', "invalid JSON"),
        (b"[1, 2]", "expected a JSON object with a numeric delta"),
        (b'{"label": "x"}', "expected a JSON object with a numeric delta"),
        (b'{"delta": "five"}', "expected a JSON object with a numeric delta"),
        (b"{}", "expected a JSON object with a numeric delta"),
    ], ids=["compare-invalid-json", "compare-not-utf8", "compare-list", "compare-no-delta",
            "compare-text-delta", "compare-empty"])
    def test_bad_compare_report(self, capsys, tmp_path, data, message):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text('{"delta": 10}')
        bad.write_bytes(data)
        for argv in ([str(good), str(bad)], [str(bad), str(good)]):
            assert main(["compare", *argv]) == EXIT_INFEASIBLE
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert len(err.strip().splitlines()) == 1
            assert str(bad) in err and message in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_worker_count(self, capsys, tmp_path, workers):
        config = tmp_path / "row.cfg"
        config.write_text("benchmark = bv_10\n")
        assert main(["sweep", str(config), "--workers", workers]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert f"worker count {workers} must be >= 1" in err


@pytest.mark.parametrize("module", ["surfc", "surfc.cli"])
def test_import_loads_only_the_compile_path(module):
    # the sweep pool and the exhaustive oracle load where they run
    src = os.path.dirname(os.path.dirname(surfc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (f"import sys, {module}; "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures', 'surfc.oracle') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
