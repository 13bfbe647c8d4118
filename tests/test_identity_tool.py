"""tools/identity.py: how far the floats of a differing file moved."""
import importlib.util
import json
from pathlib import Path

import numpy as np

from crdi.schedules import RigidityMap
from crdi.sge import SgeSet, save_sge
from crdi.workbench.tensor_io import write_tensor

_SPEC = importlib.util.spec_from_file_location(
    "identity_tool", Path(__file__).resolve().parents[1] / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


def test_largest_differences():
    assert identity._largest([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0)
    assert identity._largest([2.0, -4.0], [2.5, -4.0]) == (0.5, 0.25)
    # relative to the first run: a move away from 0 is infinitely far
    assert identity._largest([0.0, 1.0], [1e-3, 1.0]) == (1e-3, np.inf)


def test_float_moves_of_tensors_sets_and_reports(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    write_tensor(a / "samples.crdt", np.array([[1.0, 2.0], [4.0, 8.0]]))
    write_tensor(b / "samples.crdt", np.array([[1.0, 2.0], [4.0, 8.5]]))
    assert identity.float_moves(a / "samples.crdt", b / "samples.crdt") == \
        ["values max abs 0.5, max rel 0.0625"]

    rmap = RigidityMap(eta=2, t_lo=0, t_hi=10)
    segments = np.ones((1, 2, 3))
    save_sge(a / "sge.crds", SgeSet(segments, rmap, [{"final_loss": 2.0}]))
    save_sge(b / "sge.crds", SgeSet(segments * 1.5, rmap, [{"final_loss": 2.0}]))
    assert identity.float_moves(a / "sge.crds", b / "sge.crds") == \
        ["segments max abs 0.5, max rel 0.5", "final_loss max abs 0, max rel 0"]

    report = {"ssim_per_pair": [0.5, 0.25], "frechet": 0.4, "mc_ssim": 0.5,
              "degenerate_clusters": False, "counts": {"k": 2}}
    (a / "report.json").write_text(json.dumps(report))
    (b / "report.json").write_text(json.dumps(dict(report, ssim_per_pair=[0.5, 0.5],
                                                   frechet=0.5)))
    assert identity.float_moves(a / "report.json", b / "report.json") == \
        ["ssim_per_pair max abs 0.25, max rel 1", "frechet 0.4 -> 0.5 (rel 0.25)"]

    (a / "report.csv").write_text("x\n1\n")
    (b / "report.csv").write_text("x\n2\n")
    assert identity.float_moves(a / "report.csv", b / "report.csv") == []
