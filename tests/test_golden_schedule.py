"""Golden schedule digest: every scheduler, both models and three chip sizes
on small random circuits, hashed over the serialized schedules (or the error
a compile raises).  A refactor of routing, mapping or scheduling must leave
this digest unchanged."""
import hashlib
import json

from surfc import router, scheduler
from surfc.chip import ChipModel, dims_for_avg_bandwidth
from surfc.errors import SurfcError
from surfc.harness import SCHEDULERS, RunConfig, run_full

GOLDEN_SCHEDULE_DIGEST = "302646dadec3f59757bb09cfa2b714cb530f209c052a31872e946e3c92d5d574"


def test_schedule_digest(monkeypatch):
    rings = []
    frontier = router._saturated_frontier

    def counted(*args, **kwargs):
        rings.append(1)
        return frontier(*args, **kwargs)

    monkeypatch.setattr(router, "_saturated_frontier", counted)
    digest = hashlib.sha256()
    compiled = direct = 0
    for params in ((9, 6, 3), (12, 6, 5)):
        for seed in range(3):
            for model in (ChipModel.DOUBLE_DEFECT, ChipModel.LATTICE_SURGERY):
                for chip in ("min", "4x", "sufficient"):
                    for scheduler in SCHEDULERS:
                        config = RunConfig(random_params=params, model=model, chip=chip, d=2,
                                           scheduler=scheduler, seed=seed, trials=2)
                        try:
                            _report, schedule = run_full(config)
                        except SurfcError as exc:
                            text = f"{type(exc).__name__}: {exc}"
                        else:
                            text = json.dumps(schedule.to_json_dict())
                            compiled += 1
                            direct += text.count('"kind": "direct"')
                        digest.update(text.encode())
    # the grid covers the 3-cycle direct route and the batch router's ring repair
    assert compiled == 153 and direct > 0 and rings
    assert digest.hexdigest() == GOLDEN_SCHEDULE_DIGEST


# every limited strategy on a deep100-size compile: the golden grid stops at
# n=12, so only this puts the same-cut path and backdated flips under congestion
GOLDEN_DEEP100_LIMITED_DIGEST = "f828dc15c3101306b314c07a19533b64d9e4f4131399dbed280780ce1433121e"


def test_deep100_limited_digest(monkeypatch):
    side, _ = dims_for_avg_bandwidth(100, 3, ChipModel.DOUBLE_DEFECT, 1)
    commit_modify = scheduler._commit_modify
    backdated = []  # per modification: whether it reaches back the full three cycles

    def counted(st, t, tile, idle):
        backdated.append(idle >= 3)
        return commit_modify(st, t, tile, idle)

    monkeypatch.setattr(scheduler, "_commit_modify", counted)
    digest = hashlib.sha256()
    for strategy in scheduler.LIMITED:
        config = RunConfig(random_params=(100, 100, 20), model=ChipModel.DOUBLE_DEFECT,
                           chip=f"{side}x{side}", d=3, scheduler=strategy, mapping="snake", seed=1)
        _report, schedule = run_full(config)
        digest.update(json.dumps(schedule.to_json_dict()).encode())
    # flips that land at once and flips filed for a later cycle both occur
    assert backdated.count(True) and backdated.count(False)
    assert digest.hexdigest() == GOLDEN_DEEP100_LIMITED_DIGEST


# ReSu at resu49 size on both models: the golden grid stops at n=12, so only
# this runs the batch router's seeded restarts and double-defect remaps at
# the size of the benchmark
GOLDEN_RESU49_DIGEST = "1357dc52462c08ab28a0980396b29af529210192d26bab7772d2eaeab56242e6"


def test_resu49_digest(monkeypatch):
    ring_repair = router._ring_repair
    failed = []  # per ring repair: whether it failed, so that a restart runs

    def counted(*args, **kwargs):
        routed = ring_repair(*args, **kwargs)
        failed.append(routed is None)
        return routed

    monkeypatch.setattr(router, "_ring_repair", counted)
    digest = hashlib.sha256()
    remaps = 0
    for par in (4, 5):
        for seed in range(6):
            for model in (ChipModel.DOUBLE_DEFECT, ChipModel.LATTICE_SURGERY):
                config = RunConfig(random_params=(49, 50, par), model=model, chip="sufficient", d=3,
                                   scheduler="resu", mapping="snake", seed=seed)
                _report, schedule = run_full(config)
                remaps += sum(1 for acts in schedule.cycles
                              if acts and acts[0].kind is scheduler.ActionKind.MODIFY
                              and acts[0].phase == 1)
                digest.update(json.dumps(schedule.to_json_dict()).encode())
    assert any(failed) and remaps
    assert digest.hexdigest() == GOLDEN_RESU49_DIGEST
