"""The benchmark harness reads run artifacts through crdi's API outside any
traced call: ``check_run_dir`` and ``recon_mse`` must still run on a real
run's output, or a rename shows up only as a failed benchmark check."""
import importlib.util
import sys
from pathlib import Path

import numpy as np

from crdi.workbench import ExperimentConfig, run_experiment

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while they are built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_artifact_checks_pass_on_a_sprite_run(tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    cfg = ExperimentConfig.defaults(
        schedule__T=60, inference__steps=10, train__steps=20, train__batch=16,
        train__hidden="16", sge__iterations=10, sge__eta=4, run__k=3, run__count=4,
        run__eval_count=8, metrics__n=2,
        source__kind="sprite-images", target__kind="sprite-images")
    run_experiment(cfg, tmp_path / "run")
    check = workloads.PassCheck()
    workloads.check_run_dir(cfg, tmp_path / "run", check)
    assert check.failures == {}
    assert np.isfinite(workloads.recon_mse(cfg, tmp_path / "run"))
