"""Workbench: domains, config parsing, file formats, orchestration, CLI."""
import json
import os
import re

import numpy as np
import pytest

from crdi.errors import ConfigError, FormatError, InvalidArgumentError
from crdi.workbench.config import ExperimentConfig, parse_config_text
from crdi.workbench.domains import (DomainSpec, flatten, sample_shape,
                                    synth_domain)
from crdi.workbench.tensor_io import read_tensor, write_grid, write_tensor


# ---------------------------------------------------------------- domains

def test_domain_deterministic():
    spec = DomainSpec.make("ring-of-gaussians", seed=5, components=8, radius=2.0)
    np.testing.assert_array_equal(synth_domain(spec, 100), synth_domain(spec, 100))


def test_ring_modes_balanced():
    spec = DomainSpec.make("ring-of-gaussians", seed=1, components=8, radius=2.0,
                           noise_std=0.05)
    pts = synth_domain(spec, 8000)
    ang = 2 * np.pi * np.arange(8) / 8
    modes = 2.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    nearest = np.argmin(np.linalg.norm(pts[:, None, :] - modes[None, :, :],
                                       axis=-1), axis=1)
    counts = np.bincount(nearest, minlength=8)
    assert counts.min() > 0
    assert counts.max() / counts.min() < 2.0


def test_ring_center_and_radius_respected():
    spec = DomainSpec.make("ring-of-gaussians", seed=2, components=8, radius=1.5,
                           center_x=0.7, center_y=-0.3, noise_std=0.01)
    pts = synth_domain(spec, 4000)
    center = pts.mean(axis=0)
    assert center == pytest.approx([0.7, -0.3], abs=0.1)
    radii = np.linalg.norm(pts - np.array([0.7, -0.3]), axis=1)
    assert radii.mean() == pytest.approx(1.5, abs=0.05)


def test_two_moons_shape():
    spec = DomainSpec.make("two-moons", seed=3, noise_std=0.05, scale=1.5)
    pts = synth_domain(spec, 500)
    assert pts.shape == (500, 2)
    assert np.all(np.isfinite(pts))


def test_sprite_bar_always_present():
    spec = DomainSpec.make("sprite-images", seed=4, size=16, bar=True,
                           bar_row=11, bar_intensity=0.9)
    imgs = synth_domain(spec, 20)
    assert imgs.shape == (20, 16, 16)
    assert np.all(imgs >= 0.0) and np.all(imgs <= 1.0)
    for im in imgs:
        np.testing.assert_array_equal(im[11:13, :], np.full((2, 16), 0.9))


def test_sprite_no_bar_varies():
    spec = DomainSpec.make("sprite-images", seed=4, size=16, bar=False)
    imgs = synth_domain(spec, 10)
    assert not np.array_equal(imgs[0], imgs[1])


def test_domain_validation():
    with pytest.raises(InvalidArgumentError):
        synth_domain(DomainSpec.make("ring-of-gaussians"), 0)
    with pytest.raises(InvalidArgumentError):
        synth_domain(DomainSpec(kind="nope"), 5)


def test_domain_spec_rejects_parameters_its_kind_does_not_take():
    with pytest.raises(InvalidArgumentError, match="radious"):
        DomainSpec.make("ring-of-gaussians", radious=5.0)
    with pytest.raises(InvalidArgumentError, match="components"):
        DomainSpec.make("two-moons", components=3)
    with pytest.raises(InvalidArgumentError, match="unknown domain kind"):
        DomainSpec.make("nope")


def test_domain_spec_checks_parameter_types():
    with pytest.raises(InvalidArgumentError, match="components must be of type int, got 2.5"):
        DomainSpec.make("ring-of-gaussians", components=2.5)
    with pytest.raises(InvalidArgumentError, match="bar must be of type bool, got 1"):
        DomainSpec.make("sprite-images", bar=1)
    # an int promotes to float where the default is a float, as in a config
    assert DomainSpec.make("ring-of-gaussians", radius=2) == DomainSpec.make("ring-of-gaussians")


@pytest.mark.parametrize("kind", ["ring-of-gaussians", "two-moons", "sprite-images"])
def test_domain_spec_defaults_are_the_config_defaults(kind):
    # the target must share the source's sample shape
    target = "sprite-images" if kind == "sprite-images" else "ring-of-gaussians"
    spec = ExperimentConfig.defaults(source__kind=kind, target__kind=target).domain_spec("source")
    assert DomainSpec.make(kind, seed=spec.seed) == spec


def test_flatten_and_shapes():
    spec = DomainSpec.make("sprite-images", size=16)
    assert sample_shape(spec) == (16, 16)
    assert sample_shape(DomainSpec.make("ring-of-gaussians")) == (2,)
    imgs = synth_domain(spec, 3)
    assert flatten(imgs).shape == (3, 256)


# ---------------------------------------------------------------- config

def test_parse_defaults_and_overrides():
    text = """
# comment
[schedule]
T = 200
beta_end = 0.05

[sge]
eta = 4
"""
    values = parse_config_text(text)
    assert values["schedule"]["T"] == 200
    assert values["schedule"]["beta_end"] == 0.05
    assert values["schedule"]["beta_start"] == 1e-4  # default preserved
    assert values["sge"]["eta"] == 4


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("[schedule]\nTT = 5\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text("[nope]\nx = 1\n")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config_text("T = 5\n")


@pytest.mark.parametrize("text,message", [
    ("[run]\nk = 3\nk = 4\n", "repeated key run.k at line 3"),
    ("[run]\nk = 3\n[sge]\neta = 2\n[run]\nk = 5\n", r"repeated section \[run\] at line 5"),
], ids=["key", "section"])
def test_parse_rejects_repeated_keys_and_sections(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(text)


def test_parse_type_checks():
    with pytest.raises(ConfigError, match="type mismatch"):
        parse_config_text('[schedule]\nT = "many"\n')
    with pytest.raises(ConfigError, match="type mismatch"):
        parse_config_text("[target]\nbar = 1\n")
    # int promotes to float where the default is float
    values = parse_config_text("[perturb]\ns = 1\n")
    assert values["perturb"]["s"] == 1.0


def test_config_fraction_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.defaults(sge__window_hi_frac=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig.defaults(perturb__alpha_frac=0.5, perturb__beta_frac=0.6)


@pytest.mark.parametrize("overrides,message", [
    (dict(run__count=0), "run.count must be >= 2"),
    (dict(run__eval_count=1), "run.eval_count must be >= 2"),
    (dict(train__batch=0), "train: batch must be >= 1, got 0"),
    (dict(sge__eta=0), "sge.eta must be >= 1"),
    (dict(inference__steps=1), "inference.steps"),
    (dict(schedule__T=60, inference__steps=62), "inference.steps"),
    (dict(train__hidden="abc"), "train.hidden"),
    (dict(train__hidden="8;8"), "train.hidden"),
    (dict(train__hidden="0,8"), "train.hidden"),
    (dict(train__hidden="8,,8"), "train.hidden"),
    (dict(train__hidden=" , "), "train.hidden"),
    (dict(train__hidden="8,"), "train.hidden"),
    (dict(sge__window_lo_frac=0.8, sge__window_hi_frac=0.2, perturb__alpha_frac=0.8),
     "sge.window_lo_frac must be <= sge.window_hi_frac"),
    (dict(sge__lr=-0.5), "sge: learning rate lr must be > 0, got -0.5"),
    (dict(train__lr=0), "train: learning rate lr must be > 0, got 0.0"),
    (dict(sge__iterations=-5), "sge: iterations must be >= 0, got -5"),
    (dict(sge__lam=-1.0), "sge: penalty weight lam must be >= 0"),
    (dict(sge__lam=float("nan")), "sge.lam must be finite, got nan"),
    (dict(perturb__s=float("inf")), "perturb.s must be finite, got inf"),
    (dict(run__seed=2**63), r"run.seed must be in \[0, 9223372036854775807\]"),
    (dict(run__seed=-1), r"run.seed must be in \[0, "),
], ids=["count", "eval_count", "batch", "eta", "steps-low", "steps-high",
        "hidden-abc", "hidden-semicolon", "hidden-zero", "hidden-empty-item",
        "hidden-blank-items", "hidden-trailing-comma", "window-order", "sge-lr",
        "train-lr", "sge-iterations", "sge-lam", "lam-nan", "s-inf", "seed-high",
        "seed-negative"])
def test_config_bounds_validation(overrides, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.defaults(**overrides)


# Settings that each pass the per-key checks but would fail only in a later
# stage, after training and fitting; at T = 60 and 10 inference steps the plan
# is 0, 7, 13, 20, 27, 33, 40, 47, 53, 60.
LATE_FAILURES = {
    "beta-rounds-to-alpha": (dict(perturb__alpha_frac=0.5, perturb__beta_frac=0.495),
                             "need 0 <= beta_t < alpha_t, got (30, 30)"),
    "start-below-first-step": (dict(perturb__alpha_frac=0.05, perturb__beta_frac=0.01),
                               "annealing start below the first inference step"),
    "window-below-start": (dict(sge__window_hi_frac=0.5),
                           "guidance window top 30 below start step 60"),
    "prior-start-above-window": (dict(run__start="prior", sge__window_hi_frac=0.9,
                                      perturb__alpha_frac=0.9),
                                 "run.start = 'prior': guidance window top 54 below start step 60"),
    "image-reconstruction-start": (dict(run__start="prior", perturb__alpha_frac=0.05,
                                        perturb__beta_frac=0.01,
                                        source__kind="sprite-images",
                                        target__kind="sprite-images"),
                                   "run.start = 'noised': annealing start below"),
    "beta-range": (dict(schedule__beta_start=0.05), "need 0 < beta_start < beta_end < 1"),
    "negative-s": (dict(perturb__s=-0.1), "noise scale s must be >= 0"),
    "window-above-T": (dict(sge__window_lo_frac=1.0),
                       "sge.window_lo_frac: guidance window top 61 above T = 60"),
    "mc-ssim-n-above-count": (dict(metrics__n=5, run__count=4,
                                   source__kind="sprite-images", target__kind="sprite-images"),
                              "metrics.n: n=5 outside [1, 4]"),
    "mc-ssim-n-above-k": (dict(metrics__n=4, run__k=3, metrics__direction="per-generated",
                               source__kind="sprite-images", target__kind="sprite-images"),
                          "metrics.n: n=4 outside [1, 3]"),
    "feature-dim-zero": (dict(metrics__feature="random-projection", metrics__feature_dim=0),
                         "metrics.feature_dim: feature dim must be >= 1, got 0"),
    "sample-shape-mismatch": (dict(target__kind="sprite-images"),
                              "source sample shape (2,) != target sample shape (16, 16)"),
    "sprite-size-mismatch": (dict(source__kind="sprite-images", target__kind="sprite-images",
                                  target__size=8),
                             "source sample shape (16, 16) != target sample shape (8, 8)"),
}


@pytest.mark.parametrize("overrides,message", LATE_FAILURES.values(), ids=LATE_FAILURES)
def test_config_rejects_settings_that_fail_after_training(overrides, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig.defaults(schedule__T=60, inference__steps=10, **overrides)


def test_config_bounds_accept_edges():
    ExperimentConfig.defaults(run__count=2, run__eval_count=2, train__batch=1, sge__eta=1,
                              schedule__T=60, inference__steps=61)
    ExperimentConfig.defaults(inference__steps=2)
    ExperimentConfig.defaults(sge__lam=0.0, sge__iterations=0, run__seed=2**63 - 1)
    # equal window fractions keep a one-step window
    rmap = ExperimentConfig.defaults(sge__window_lo_frac=0.8, sge__window_hi_frac=0.8,
                                     perturb__alpha_frac=0.8).rigidity_map()
    assert (rmap.t_lo, rmap.t_hi) == (800, 801)


def test_hidden_widths_parse_positive_integers():
    assert ExperimentConfig.defaults(train__hidden="").hidden_widths() == []
    assert ExperimentConfig.defaults(train__hidden="  ").hidden_widths() == []
    assert ExperimentConfig.defaults(train__hidden=" 8, 16 ").hidden_widths() == [8, 16]


@pytest.mark.parametrize("overrides,message", [
    (dict(schedule__T=1), "schedule.T must be in"),
    (dict(schedule__T=100_001), "schedule.T must be in"),
    (dict(train__steps=0), "train.steps must be >= 1"),
], ids=["T-low", "T-high", "train-steps"])
def test_config_schedule_and_train_bounds(overrides, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.defaults(**overrides)
    # T = 100,000 is the accepted edge with betas that keep alpha_bar[T] above its floor
    ExperimentConfig.defaults(schedule__T=100_000, schedule__beta_start=1e-6,
                              schedule__beta_end=1e-5, train__steps=1)


@pytest.mark.parametrize("param,good,bad", [
    ("run.guidance", "mean", "per_sample"),
    ("run.start", "prior", "noise"),
    ("sge.coupling", "independent", "coupled "),
    ("metrics.direction", "per-generated", "per-sample"),
    ("metrics.feature", "random-projection", "pixel"),
    ("source.kind", "two-moons", "moons"),
])
def test_config_string_keys_take_known_values_only(param, good, bad):
    key = param.replace(".", "__")
    ExperimentConfig.defaults(**{key: good})
    with pytest.raises(ConfigError, match=f"unknown .*{bad!r} for {param}"):
        ExperimentConfig.defaults(**{key: bad})


@pytest.mark.parametrize("overrides", [dict(schedule__T=400.0), dict(run__k="3"),
                                       dict(target__bar=1), dict(sge__lr=None)],
                         ids=["float-for-int", "str-for-int", "int-for-bool", "none"])
def test_defaults_type_check_overrides(overrides):
    with pytest.raises(ConfigError, match="type mismatch"):
        ExperimentConfig.defaults(**overrides)


def test_from_dict_rejects_unknown_sections_and_keys():
    with pytest.raises(ConfigError, match="unknown key run.bogus"):
        ExperimentConfig.from_dict({"run": {"bogus": 1}})
    with pytest.raises(ConfigError, match="unknown section"):
        ExperimentConfig.from_dict({"nope": {}})


def test_from_dict_fills_schema_defaults():
    assert ExperimentConfig.from_dict({}).values == ExperimentConfig.defaults().values


def test_int_override_hashes_as_its_written_config(tmp_path):
    cfg = ExperimentConfig.defaults(perturb__s=0)
    assert type(cfg["perturb"]["s"]) is float
    cfg.write(tmp_path / "config.toml")
    assert ExperimentConfig.from_file(tmp_path / "config.toml").hash() == cfg.hash()


def test_readme_config_block_parses_to_the_defaults():
    import re
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```toml\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    values = parse_config_text(blocks[0])
    assert ExperimentConfig.from_dict(values).values == ExperimentConfig.defaults().values


def test_source_target_overlap_rejected():
    # a target identical to the source violates the adaptation premise
    with pytest.raises(ConfigError, match="differ"):
        ExperimentConfig.defaults(
            target__radius=2.0, target__rotation=0.0, target__center_x=0.0,
            target__center_y=0.0)
    # any single differing parameter restores validity
    ExperimentConfig.defaults(
        target__radius=2.0, target__rotation=0.0, target__center_x=0.0,
        target__center_y=0.5)


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig.defaults(schedule__T=123, sge__eta=5,
                                    run__ablation="no-sge")
    path = tmp_path / "config.toml"
    cfg.write(path)
    loaded = ExperimentConfig.from_file(path)
    assert loaded.values == cfg.values
    assert loaded.hash() == cfg.hash()


def test_config_round_trip_path_with_hash_sign(tmp_path):
    ckpt = tmp_path / "run#1" / "model.crdn"
    ckpt.parent.mkdir()
    ckpt.write_bytes(b"")
    cfg = ExperimentConfig.defaults(train__checkpoint=str(ckpt))
    path = tmp_path / "config.toml"
    cfg.write(path)
    loaded = ExperimentConfig.from_file(path)
    assert loaded["train"]["checkpoint"] == str(ckpt)
    assert loaded.values == cfg.values


def test_parse_strips_comments_outside_quotes_only():
    values = parse_config_text('[source]\nkind = "two-moons"  # "#" here is a comment\n'
                               '[run]\nguidance = "mean" # k = 3\n')
    assert values["source"]["kind"] == "two-moons"
    assert values["run"]["guidance"] == "mean"
    assert values["run"]["k"] == 10


def test_config_hash_tracks_content():
    a = ExperimentConfig.defaults()
    b = ExperimentConfig.defaults(run__seed=1)
    assert a.hash() != b.hash()


def test_checkpoint_reference_must_exist():
    with pytest.raises(ConfigError, match="checkpoint"):
        ExperimentConfig.defaults(train__checkpoint="/nonexistent/model.crdn")


# ---------------------------------------------------------------- tensor IO

def test_tensor_round_trip(tmp_path):
    t = np.random.default_rng(0).normal(size=(3, 4, 5))
    path = tmp_path / "t.crdt"
    write_tensor(path, t)
    np.testing.assert_array_equal(read_tensor(path), t)


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "bad.crdt"
    path.write_bytes(b"ABCD" + b"\0" * 12)
    with pytest.raises(FormatError, match="byte 0"):
        read_tensor(path)


def test_tensor_truncation_names_offset(tmp_path):
    path = tmp_path / "t.crdt"
    write_tensor(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(FormatError, match="byte"):
        read_tensor(path)


def test_tensor_rank0_rejected(tmp_path):
    with pytest.raises(FormatError):
        write_tensor(tmp_path / "s.crdt", np.float64(3.0))


def test_tensor_trailing_bytes(tmp_path):
    path = tmp_path / "t.crdt"
    write_tensor(path, np.ones(3))
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(FormatError, match="[Tt]railing"):
        read_tensor(path)


# ---------------------------------------------------------------- grids

def test_grid_dimensions(tmp_path):
    imgs = [np.full((5, 7), 0.5)] * 4
    path = tmp_path / "grid.pgm"
    write_grid(path, imgs, columns=2)
    header = path.read_bytes().split(b"\n", 3)
    assert header[0] == b"P5"
    w, h = map(int, header[1].split())
    assert (w, h) == (2 * 7 + 1, 2 * 5 + 1)


def test_grid_single_image_no_separators(tmp_path):
    img = np.linspace(0, 1, 12).reshape(3, 4)
    path = tmp_path / "one.pgm"
    write_grid(path, [img], columns=1)
    blob = path.read_bytes()
    head, payload = blob.split(b"255\n", 1)
    assert head.split(b"\n")[1] == b"4 3"
    np.testing.assert_array_equal(
        np.frombuffer(payload, dtype=np.uint8).reshape(3, 4),
        np.round(img * 255).astype(np.uint8))


def test_grid_clamps_and_flags(tmp_path):
    path = tmp_path / "clamp.pgm"
    write_grid(path, [np.array([[2.0, -1.0]])], columns=1)
    assert (tmp_path / "clamp.pgm.note").exists()
    payload = path.read_bytes().split(b"255\n", 1)[1]
    assert list(payload) == [255, 0]
    # a later in-range write to the same path drops the stale note
    write_grid(path, [np.array([[1.0, 0.0]])], columns=1)
    assert not (tmp_path / "clamp.pgm.note").exists()
    assert list(path.read_bytes().split(b"255\n", 1)[1]) == [255, 0]


def test_grid_validation(tmp_path):
    with pytest.raises(InvalidArgumentError):
        write_grid(tmp_path / "x.pgm", [], columns=1)
    with pytest.raises(InvalidArgumentError):
        write_grid(tmp_path / "x.pgm", [np.zeros((2, 2)), np.zeros((3, 3))],
                   columns=1)


# ---------------------------------------------------------------- pipeline

def _fast_config(**overrides):
    base = dict(schedule__T=60, inference__steps=10, train__steps=150,
                train__batch=32, train__hidden="24,24",
                sge__iterations=60, sge__lr=0.05,
                run__count=12, run__eval_count=48, run__k=3, metrics__n=2)
    base.update(overrides)
    return ExperimentConfig.defaults(**base)


def test_run_experiment_artifacts(tmp_path):
    from crdi.workbench.experiment import run_experiment
    cfg = _fast_config()
    manifest = run_experiment(cfg, tmp_path / "run")
    for key in ("config", "model", "sge", "targets", "samples", "report"):
        assert os.path.exists(manifest.artifacts[key]), key
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["config_hash"] == cfg.hash()
    assert np.isfinite(report["frechet"])
    manifest_json = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest_json["config_hash"] == cfg.hash()


def test_manifest_records_stage_times_and_environment(tmp_path, monkeypatch):
    from crdi.workbench.experiment import run_experiment

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    run_experiment(_fast_config(), tmp_path / "run")
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    times = manifest["timestamps"]
    assert list(times["stage_s"]) == ["train-source", "fit-sge", "generate", "evaluate"]
    assert all(s > 0 for s in times["stage_s"].values())
    assert sum(times["stage_s"].values()) <= times["finished"] - times["started"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["environment"] == {
        "numpy": np.__version__, "blas": blas["name"], "blas_version": blas["version"],
        "cpu_count": os.cpu_count(),
        "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}}


def test_run_experiment_batches_net_calls(tmp_path, monkeypatch):
    # the benchmark's closed forms on a small ring run: the frozen net sees
    # k * iterations + count * steps rows, in one call per fit iteration (k
    # rows) and one per generate step (count rows), while sge_loss and
    # adam_step still run once per (sample, iteration)
    import crdi.sge
    from crdi.sampler import start_step
    from crdi.workbench.experiment import run_experiment

    cfg = _fast_config()
    rows, counts = [], {"sge_loss": 0, "adam_step": 0}

    def eps_theta(net, x, t, _real=crdi.sge.eps_theta):
        rows.append(np.shape(x)[0])
        return _real(net, x, t)

    monkeypatch.setattr(crdi.sge, "eps_theta", eps_theta)
    for name in counts:
        def counting(*args, _name=name, _real=getattr(crdi.sge, name)):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(crdi.sge, name, counting)
    run_experiment(cfg, tmp_path / "run")

    k, iterations, count = cfg["run"]["k"], cfg["sge"]["iterations"], cfg["run"]["count"]
    t_start = start_step(cfg.plan(), cfg.rigidity_map(), cfg["run"]["start"],
                         cfg.perturb_schedule().alpha_t)
    steps = sum(1 for t, _ in cfg.plan().steps_down() if t <= t_start)
    assert steps >= 2
    assert rows == [k] * iterations + [count] * steps
    assert counts == {"sge_loss": k * iterations, "adam_step": k * iterations}


def test_run_experiment_calls_stages_by_module_name(tmp_path, monkeypatch):
    import crdi.workbench.experiment as wbx

    # run_experiment must look each stage up by its module-level name when it
    # runs, so that a wrapper bound there (as the benchmark binds its timers)
    # sees every stage call
    stages = ("prepare_source_model", "fit_stage", "generate_stage", "evaluate_stage")
    calls = []
    for name in stages:
        def recording(config, out_dir, _name=name, _stage=getattr(wbx, name)):
            calls.append(_name)
            return _stage(config, out_dir)
        monkeypatch.setattr(wbx, name, recording)
    manifest = wbx.run_experiment(_fast_config(), tmp_path / "run")
    assert calls == list(stages)
    written = [key for key in wbx._ARTIFACTS if key != "grid"]   # no grid for points
    assert list(manifest.artifacts) == written
    assert all(os.path.isfile(path) for path in manifest.artifacts.values())


def test_run_experiment_failure_marker(tmp_path, monkeypatch):
    import crdi.workbench.experiment
    from crdi.errors import NumericError

    # a failure inside the generate stage must leave a marker behind
    def failing(*args, **kwargs):
        raise NumericError("non-finite chain")

    monkeypatch.setattr(crdi.workbench.experiment, "generate", failing)
    with pytest.raises(NumericError):
        crdi.workbench.experiment.run_experiment(_fast_config(), tmp_path / "run")
    marker = (tmp_path / "run" / "failed").read_text()
    assert "stage: generate" in marker and "cause:" in marker


def test_rerun_after_failure_drops_stale_marker(tmp_path):
    from crdi.workbench.experiment import run_experiment

    bad = _fast_config(train__checkpoint=_foreign_checkpoint(tmp_path, 2, 120))
    with pytest.raises(ConfigError):
        run_experiment(bad, tmp_path / "run")
    assert (tmp_path / "run" / "failed").exists()
    run_experiment(_fast_config(), tmp_path / "run")
    assert (tmp_path / "run" / "manifest.json").exists()
    assert not (tmp_path / "run" / "failed").exists()


def test_failed_rerun_drops_stale_manifest(tmp_path):
    from crdi.workbench.experiment import run_experiment

    run_experiment(_fast_config(), tmp_path / "run")
    assert (tmp_path / "run" / "manifest.json").exists()
    bad = _fast_config(train__checkpoint=_foreign_checkpoint(tmp_path, 2, 120))
    with pytest.raises(ConfigError):
        run_experiment(bad, tmp_path / "run")
    assert "stage: train-source" in (tmp_path / "run" / "failed").read_text()
    assert not (tmp_path / "run" / "manifest.json").exists()


def _link_all(out_dir, side):
    """Hard-link every file in out_dir into side; returns name -> bytes."""
    side.mkdir()
    for path in out_dir.iterdir():
        if path.is_file():
            os.link(path, side / path.name)
    return {path.name: path.read_bytes() for path in side.iterdir()}


def _assert_replaced(out_dir, side, old):
    # a rewrite replaces the file: the old inode, reached through its link,
    # keeps the first write's bytes
    for name, blob in old.items():
        assert not os.path.samefile(side / name, out_dir / name), name
        assert (side / name).read_bytes() == blob, name


def test_rerun_replaces_every_artifact_and_records_digests(tmp_path):
    import hashlib

    from crdi.workbench.experiment import run_experiment

    out = tmp_path / "run"
    first = run_experiment(_fast_config(), out)
    old = _link_all(out, tmp_path / "links")
    assert set(old) == {os.path.basename(p) for p in first.artifacts.values()} | {"manifest.json"}
    manifest = run_experiment(_fast_config(run__seed=1), out)
    _assert_replaced(out, tmp_path / "links", old)
    assert list(manifest.sha256) == list(manifest.artifacts)
    recorded = json.loads((out / "manifest.json").read_text())["sha256"]
    assert recorded == manifest.sha256
    for key, path in manifest.artifacts.items():
        with open(path, "rb") as f:
            assert recorded[key] == hashlib.sha256(f.read()).hexdigest(), key


def test_grid_rewrite_replaces_grid_and_note(tmp_path):
    out = tmp_path / "grid"
    out.mkdir()
    write_grid(out / "g.pgm", [np.array([[2.0, 0.5]])], columns=1)
    old = _link_all(out, tmp_path / "links")
    assert set(old) == {"g.pgm", "g.pgm.note"}
    write_grid(out / "g.pgm", [np.array([[-1.0, 0.25]])], columns=1)
    _assert_replaced(out, tmp_path / "links", old)


def test_sweep_rewrite_replaces_table(tmp_path):
    from crdi.workbench.experiment import sweep

    cfg = _fast_config(train__steps=20, sge__iterations=5)
    sweep(cfg, "sge.eta", [1], tmp_path / "sweep")
    old = _link_all(tmp_path / "sweep", tmp_path / "links")
    assert set(old) == {"sweep.csv"}
    sweep(cfg, "sge.eta", [2], tmp_path / "sweep")
    _assert_replaced(tmp_path / "sweep", tmp_path / "links", old)


def test_failed_rerun_replaces_marker(tmp_path):
    from crdi.workbench.experiment import run_experiment

    out = tmp_path / "run"
    first, second = (_fast_config(train__checkpoint=_foreign_checkpoint(tmp_path, 2, T))
                     for T in (120, 90))
    with pytest.raises(ConfigError):
        run_experiment(first, out)
    old = _link_all(out, tmp_path / "links")
    assert set(old) == {"config.toml", "failed"}
    with pytest.raises(ConfigError):
        run_experiment(second, out)
    _assert_replaced(out, tmp_path / "links", old)


def test_sweep_emits_rows(tmp_path):
    import csv
    from crdi.workbench.experiment import sweep
    table = sweep(_fast_config(), "sge.eta", [1, 4], tmp_path / "sweep")
    with open(table) as f:
        rows = list(csv.DictReader(f))
    assert [r["sge.eta"] for r in rows] == ["1", "4"]
    assert all(r["frechet"] for r in rows)
    assert (tmp_path / "sweep" / "sge.eta=1" / "report.json").exists()


def test_sprite_run_writes_grid(tmp_path):
    from crdi.workbench.experiment import run_experiment
    cfg = _fast_config(source__kind="sprite-images", target__kind="sprite-images",
                       run__count=8)
    manifest = run_experiment(cfg, tmp_path / "sprites")
    assert os.path.exists(manifest.artifacts["grid"])


def test_report_cluster_rule_names_the_assignment():
    from crdi.diffusion import TIME_EMBED_DIM, NoiseNet
    from crdi.numerics import Mlp
    from crdi.sge import SgeSet
    from crdi.workbench.experiment import evaluate

    for kind, rule in (("sprite-images", "max-ssim-target"),
                       ("ring-of-gaussians", "nearest-target-feature")):
        cfg = _fast_config(source__kind=kind, target__kind=kind, run__k=2,
                           run__count=4, run__eval_count=8)
        d = int(np.prod(sample_shape(cfg.domain_spec("target"))))
        net = NoiseNet(Mlp.zeros([d + TIME_EMBED_DIM, d]), d, cfg["schedule"]["T"]).freeze()
        targets = flatten(synth_domain(cfg.domain_spec("target"), 2))
        sge_set = SgeSet.zeros(2, d, cfg.rigidity_map(), targets=targets)
        samples = flatten(synth_domain(cfg.domain_spec("source"), 4))
        report = evaluate(cfg, net, sge_set, samples)
        assert report.config["cluster_rule"] == rule


# ---------------------------------------------------------------- CLI

def test_cli_report_and_exit_codes(tmp_path):
    from click.testing import CliRunner
    from crdi.workbench.cli import main

    cfg = _fast_config()
    cfg_path = tmp_path / "config.toml"
    cfg.write(cfg_path)
    runner = CliRunner()
    res = runner.invoke(main, ["report", "--config", str(cfg_path),
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    assert "frechet" in res.output

    bad = tmp_path / "bad.toml"
    bad.write_text("[schedule]\nbogus = 1\n")
    res = runner.invoke(main, ["report", "--config", str(bad),
                               "--out", str(tmp_path / "out2")])
    assert res.exit_code == 2


def test_cli_stage_pipeline(tmp_path):
    from click.testing import CliRunner
    from crdi.workbench.cli import main

    cfg = _fast_config()
    cfg_path = tmp_path / "config.toml"
    cfg.write(cfg_path)
    out = tmp_path / "staged"
    runner = CliRunner()
    for cmd in (["train-source"], ["fit-sge"], ["generate"],
                ["reconstruct", "--sample", "0"], ["evaluate"]):
        res = runner.invoke(main, cmd + ["--config", str(cfg_path),
                                         "--out", str(out)])
        assert res.exit_code == 0, (cmd, res.output)
    assert (out / "report.json").exists()
    assert (out / "recon0.crdt").exists()


def test_cli_seed_override(tmp_path):
    from click.testing import CliRunner
    from crdi.workbench.cli import main

    cfg = _fast_config()
    cfg_path = tmp_path / "config.toml"
    cfg.write(cfg_path)
    runner = CliRunner()
    outs = []
    for seed in (0, 1):
        out = tmp_path / f"seed{seed}"
        res = runner.invoke(main, ["report", "--config", str(cfg_path),
                                   "--seed", str(seed), "--out", str(out)])
        assert res.exit_code == 0, res.output
        outs.append((out / "samples.crdt").read_bytes())
    assert outs[0] != outs[1]


# ---------------------------------------------------------------- staged CLI

STAGE_ARTIFACTS = ("model.crdn", "loss_trace.crdt", "sge.crds", "targets.crdt",
                   "samples.crdt", "report.json")


def _cli(*args):
    from click.testing import CliRunner
    from crdi.workbench.cli import main
    return CliRunner().invoke(main, [str(a) for a in args])


def _config_file(tmp_path, name="config.toml", **overrides):
    cfg = _fast_config(**overrides)
    path = tmp_path / name
    cfg.write(path)
    return cfg, path


def _no_training(*args, **kwargs):
    raise AssertionError("fit-sge must not train the source model")


@pytest.mark.parametrize("ablation", ["none", "no-sge"])
def test_cli_stages_match_report(tmp_path, monkeypatch, ablation):
    import crdi.workbench.experiment as wbx

    _, cfg_path = _config_file(tmp_path, run__ablation=ablation)
    staged = tmp_path / "staged"
    for cmd in ("train-source", "fit-sge", "generate", "evaluate"):
        with monkeypatch.context() as m:
            if cmd == "fit-sge":
                m.setattr(wbx, "train_source", _no_training)
            res = _cli(cmd, "--config", cfg_path, "--out", staged)
        assert res.exit_code == 0, (cmd, res.output)
    res = _cli("report", "--config", cfg_path, "--out", tmp_path / "full")
    assert res.exit_code == 0, res.output
    for name in STAGE_ARTIFACTS:
        assert (staged / name).read_bytes() == \
            (tmp_path / "full" / name).read_bytes(), name


def test_cli_stages_load_configured_checkpoint(tmp_path):
    from crdi.workbench.experiment import prepare_source_model

    model_dir = tmp_path / "model"
    model_dir.mkdir()
    prepare_source_model(_fast_config(), model_dir)
    _, cfg_path = _config_file(
        tmp_path, train__checkpoint=str(model_dir / "model.crdn"))
    out = tmp_path / "staged"
    for cmd in (["fit-sge"], ["generate"], ["reconstruct", "--sample", "1"],
                ["evaluate"]):
        res = _cli(*cmd, "--config", cfg_path, "--out", out)
        assert res.exit_code == 0, (cmd, res.output)
    assert not (out / "model.crdn").exists()
    assert (out / "recon1.crdt").exists()
    res = _cli("report", "--config", cfg_path, "--out", tmp_path / "full")
    assert res.exit_code == 0, res.output
    for name in ("sge.crds", "samples.crdt", "report.json"):
        assert (out / name).read_bytes() == \
            (tmp_path / "full" / name).read_bytes(), name


@pytest.mark.parametrize("done,cmd,missing", [
    ((), "generate", "model.crdn"),
    ((), "fit-sge", "model.crdn"),
    (("train-source",), "generate", "sge.crds"),
    (("train-source",), "reconstruct", "sge.crds"),
    (("train-source", "fit-sge"), "evaluate", "samples.crdt"),
])
def test_cli_missing_input_names_the_file(tmp_path, done, cmd, missing):
    _, cfg_path = _config_file(tmp_path)
    out = tmp_path / "out"
    for prior in done:
        assert _cli(prior, "--config", cfg_path, "--out", out).exit_code == 0
    res = _cli(cmd, "--config", cfg_path, "--out", out)
    assert res.exit_code == 2, res.output
    assert missing in res.output
    assert "Traceback" not in res.output


def test_cli_staged_commands_drop_the_report_record(tmp_path):
    _, a_path = _config_file(tmp_path, "a.toml")
    b, b_path = _config_file(tmp_path, "b.toml", sge__iterations=30)
    out = tmp_path / "out"
    record = (out / "manifest.json", out / "config.toml")
    for cmd in ("train-source", "fit-sge", "generate", "evaluate"):
        assert _cli("report", "--config", a_path, "--out", out).exit_code == 0
        assert all(p.is_file() for p in record)
        res = _cli(cmd, "--config", b_path, "--out", out)
        assert res.exit_code == 0, (cmd, res.output)
        assert not any(p.exists() for p in record), cmd
    assert _cli("report", "--config", b_path, "--out", out).exit_code == 0
    assert json.loads(record[0].read_text())["config_hash"] == b.hash()
    assert ExperimentConfig.from_file(record[1]).hash() == b.hash()
    # the config.toml passed as --config is the run's input and stays
    res = _cli("evaluate", "--config", record[1], "--out", out)
    assert res.exit_code == 0, res.output
    assert not record[0].exists() and record[1].is_file()


def _foreign_checkpoint(tmp_path, d, T):
    from crdi.diffusion import NoiseNet, save_checkpoint
    from crdi.numerics import RngStream

    path = tmp_path / f"d{d}-T{T}.crdn"
    save_checkpoint(path, NoiseNet.init(d, T, [8], RngStream(0, "init")))
    return str(path)


@pytest.mark.parametrize("d,T", [(2, 120), (256, 60)])
def test_checkpoint_config_mismatch_rejected(tmp_path, d, T):
    from crdi.workbench.experiment import run_experiment

    cfg = _fast_config(train__checkpoint=_foreign_checkpoint(tmp_path, d, T))
    with pytest.raises(ConfigError, match=f"T={T}, d={d}"):
        run_experiment(cfg, tmp_path / "run")
    assert "stage: train-source" in (tmp_path / "run" / "failed").read_text()


def test_cli_generate_rejects_mismatched_checkpoint(tmp_path):
    _, cfg_path = _config_file(
        tmp_path, train__checkpoint=_foreign_checkpoint(tmp_path, 2, 120))
    res = _cli("generate", "--config", cfg_path, "--out", tmp_path / "out")
    assert res.exit_code == 2, res.output
    assert "T=120" in res.output


def _fitted_out(tmp_path, cfg_path):
    out = tmp_path / "out"
    for cmd in ("train-source", "fit-sge"):
        res = _cli(cmd, "--config", cfg_path, "--out", out)
        assert res.exit_code == 0, (cmd, res.output)
    return out


def test_cli_generate_rejects_corrupted_sge(tmp_path):
    _, cfg_path = _config_file(tmp_path)
    out = _fitted_out(tmp_path, cfg_path)
    blob = (out / "sge.crds").read_bytes()
    for corrupt in (blob[:60], blob[:12] + bytes(4) + blob[16:], blob + b"]"):
        (out / "sge.crds").write_bytes(corrupt)
        res = _cli("generate", "--config", cfg_path, "--out", out)
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
        assert "byte" in res.output and "Traceback" not in res.output


@pytest.mark.parametrize("edit", [dict(sge__eta=4), dict(sge__window_lo_frac=0.5)],
                         ids=["eta", "window"])
def test_cli_generate_rejects_stale_rigidity_map(tmp_path, edit):
    _, cfg_path = _config_file(tmp_path)
    out = _fitted_out(tmp_path, cfg_path)
    _, edited = _config_file(tmp_path, "edited.toml", **edit)
    res = _cli("generate", "--config", edited, "--out", out)
    assert res.exit_code == 2, res.output
    assert "sge.crds" in res.output and "rerun fit-sge" in res.output
    assert not (out / "samples.crdt").exists()


@pytest.mark.parametrize("cmd", [["generate"], ["evaluate"], ["reconstruct", "--sample", "0"]],
                         ids=["generate", "evaluate", "reconstruct"])
def test_cli_rejects_sge_fitted_for_another_k(tmp_path, cmd):
    # fitted at run.k = 3, then run with run.k = 5: the three embeddings must
    # not pass for the five shots the config asks for
    _, cfg_path = _config_file(tmp_path)
    out = _fitted_out(tmp_path, cfg_path)
    if cmd == ["evaluate"]:
        res = _cli("generate", "--config", cfg_path, "--out", out)
        assert res.exit_code == 0, res.output
    _, edited = _config_file(tmp_path, "edited.toml", run__k=5)
    res = _cli(*cmd, "--config", edited, "--out", out)
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    assert str(out / "sge.crds") in res.output and "rerun fit-sge" in res.output
    assert "3 embeddings" in res.output and "run.k=5" in res.output
    assert "Traceback" not in res.output
    assert not (out / "report.json").exists() and not (out / "recon0.crdt").exists()


def test_cli_generate_rejects_targets_not_matching_sge(tmp_path):
    _, cfg_path = _config_file(tmp_path)
    out = _fitted_out(tmp_path, cfg_path)
    write_tensor(out / "targets.crdt", read_tensor(out / "targets.crdt")[:2])
    res = _cli("generate", "--config", cfg_path, "--out", out)
    assert res.exit_code == 2, res.output
    assert "targets.crdt" in res.output and "(3, 2)" in res.output
    assert "Traceback" not in res.output


def _generated_out(tmp_path, cfg_path):
    out = _fitted_out(tmp_path, cfg_path)
    res = _cli("generate", "--config", cfg_path, "--out", out)
    assert res.exit_code == 0, res.output
    return out


def test_cli_evaluate_rejects_samples_not_matching_config(tmp_path):
    # run.count = 12 samples of d = 2: fewer rows or another width is stale
    _, cfg_path = _config_file(tmp_path)
    out = _generated_out(tmp_path, cfg_path)
    samples = read_tensor(out / "samples.crdt")
    for stale in (samples[:5], np.zeros((12, 3))):
        write_tensor(out / "samples.crdt", stale)
        res = _cli("evaluate", "--config", cfg_path, "--out", out)
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
        assert str(out / "samples.crdt") in res.output and "rerun generate" in res.output
        assert str(stale.shape) in res.output and "(12, 2)" in res.output
        assert "Traceback" not in res.output
        assert not (out / "report.json").exists()


def test_cli_evaluate_rejects_non_finite_samples(tmp_path):
    _, cfg_path = _config_file(tmp_path)
    out = _generated_out(tmp_path, cfg_path)
    samples = read_tensor(out / "samples.crdt")
    for bad in (np.nan, np.inf):
        corrupt = samples.copy()
        corrupt[3, 1] = bad
        write_tensor(out / "samples.crdt", corrupt)
        res = _cli("evaluate", "--config", cfg_path, "--out", out)
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
        assert "non-finite" in res.output and "byte" in res.output
        assert "Traceback" not in res.output
        assert not (out / "report.json").exists()


def test_cli_directory_in_place_of_staged_input_exits_2(tmp_path):
    _, cfg_path = _config_file(tmp_path)
    out = _fitted_out(tmp_path, cfg_path)
    (out / "sge.crds").unlink()
    (out / "sge.crds").mkdir()
    res = _cli("generate", "--config", cfg_path, "--out", out)
    assert res.exit_code == 2, res.output
    assert "sge.crds" in res.output and "Traceback" not in res.output


def test_cli_config_directory_exits_2(tmp_path):
    res = _cli("report", "--config", tmp_path, "--out", tmp_path / "out")
    assert res.exit_code == 2, res.output
    assert "is a directory" in res.output and "Traceback" not in res.output


def test_cli_checkpoint_directory_exits_2(tmp_path):
    _, cfg_path = _config_file(tmp_path)
    ckpt_dir = tmp_path / "model.crdn"
    ckpt_dir.mkdir()
    text = cfg_path.read_text().replace('checkpoint = ""', f'checkpoint = "{ckpt_dir}"')
    cfg_path.write_text(text)
    res = _cli("fit-sge", "--config", cfg_path, "--out", tmp_path / "out")
    assert res.exit_code == 2, res.output
    assert str(ckpt_dir) in res.output and "Traceback" not in res.output


@pytest.mark.parametrize("cmd", [["generate"], ["reconstruct", "--sample", "0"]],
                         ids=["generate", "reconstruct"])
def test_cli_rejects_sge_width_not_matching_checkpoint(tmp_path, cmd):
    from crdi.sge import SgeSet, load_sge, save_sge

    _, cfg_path = _config_file(tmp_path)
    out = _fitted_out(tmp_path, cfg_path)
    save_sge(out / "sge.crds", SgeSet.zeros(3, 5, load_sge(out / "sge.crds").rmap))
    res = _cli(*cmd, "--config", cfg_path, "--out", out)
    assert res.exit_code == 2, res.output
    assert "sge.crds" in res.output and "width 5" in res.output
    assert "Traceback" not in res.output


def test_cli_report_rejects_bad_hidden_before_any_stage(tmp_path):
    _, cfg_path = _config_file(tmp_path)
    cfg_path.write_text(cfg_path.read_text().replace('hidden = "24,24"', 'hidden = "8;8"'))
    out = tmp_path / "out"
    res = _cli("report", "--config", cfg_path, "--out", out)
    assert res.exit_code == 2, res.output
    assert "train.hidden" in res.output and "Traceback" not in res.output
    assert not out.exists()


def test_cli_reconstruct_starts_at_alpha_t(tmp_path):
    from crdi.diffusion import load_checkpoint
    from crdi.numerics import RngStream
    from crdi.sampler import reconstruct
    from crdi.schedules import linear_schedule, make_plan
    from crdi.sge import load_sge

    cfg, cfg_path = _config_file(tmp_path, sge__window_hi_frac=0.8,
                                 perturb__alpha_frac=0.8)
    out = tmp_path / "out"
    for cmd in (["train-source"], ["fit-sge"], ["reconstruct", "--sample", "0"]):
        res = _cli(*cmd, "--config", cfg_path, "--out", out)
        assert res.exit_code == 0, (cmd, res.output)
    schedule = linear_schedule(60, 1e-4, 0.02)
    sge_set = load_sge(out / "sge.crds")
    sge_set.targets = read_tensor(out / "targets.crdt")
    expected = reconstruct(load_checkpoint(out / "model.crdn"), schedule, sge_set,
                           0, RngStream(cfg["run"]["seed"], "recon0"),
                           make_plan(schedule, 10), alpha_t=48)
    np.testing.assert_array_equal(read_tensor(out / "recon0.crdt"), expected[None, :])


# ---------------------------------------------------------------- sweep input

@pytest.mark.parametrize("param,values,message", [
    ("eta", "1,4", "unknown config key 'eta'"),
    ("nope.eta", "1,4", "unknown config key 'nope.eta'"),
    ("sge.bogus", "1,4", "unknown config key 'sge.bogus'"),
    ("sge.eta", "1,2.5", "type mismatch"),
    ("sge.eta", "1,many", "cannot parse"),
    ("target.bar", "true,1", "type mismatch"),
    ("run.k", "2,0", "run.k must be >= 1"),
    ("run.count", "4,0", "run.count must be >= 2"),
    ("run.ablation", "none,bogus", "unknown ablation"),
])
def test_cli_sweep_rejects_bad_input_before_running(tmp_path, param, values, message):
    _, cfg_path = _config_file(tmp_path)
    out = tmp_path / "sweep"
    res = _cli("sweep", "--config", cfg_path, "--out", out,
               "--param", param, "--values", values)
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("base,param,values,message", [
    (dict(perturb__alpha_frac=0.5, perturb__beta_frac=0.4), "perturb.beta_frac", "0.4,0.495",
     "beta_t < alpha_t"),
    (dict(perturb__beta_frac=0.01), "perturb.alpha_frac", "1.0,0.05",
     "below the first inference step"),
    (dict(), "sge.window_hi_frac", "1.0,0.5", "guidance window top 30 below start step 60"),
    (dict(sge__window_hi_frac=0.9, perturb__alpha_frac=0.9), "run.start", "noised,prior",
     "guidance window top 54 below start step 60"),
    (dict(), "sge.window_lo_frac", "0.0,1.0", "guidance window top 61 above T = 60"),
    (dict(run__count=4, source__kind="sprite-images", target__kind="sprite-images"),
     "metrics.n", "2,5", "metrics.n: n=5 outside [1, 4]"),
    (dict(metrics__direction="per-generated", source__kind="sprite-images",
          target__kind="sprite-images"), "metrics.n", "2,4", "metrics.n: n=4 outside [1, 3]"),
    (dict(metrics__feature="random-projection"), "metrics.feature_dim", "8,0",
     "metrics.feature_dim: feature dim must be >= 1"),
    (dict(), "target.kind", "ring-of-gaussians,sprite-images",
     "source sample shape (2,) != target sample shape (16, 16)"),
    (dict(sge__window_lo_frac=0.8, perturb__alpha_frac=0.8), "sge.window_hi_frac", "1.0,0.2",
     "sge.window_lo_frac must be <= sge.window_hi_frac"),
    (dict(), "sge.lr", "0.05,-0.5", "sge: learning rate lr must be > 0"),
    (dict(), "sge.lam", "1.0,nan", "sge.lam must be finite"),
    (dict(), "run.seed", "0,9223372036854775808", "run.seed must be in"),
], ids=["beta-rounds-to-alpha", "start-below-first-step", "window-below-start",
        "prior-start-above-window", "window-above-T", "mc-ssim-n-above-count",
        "mc-ssim-n-above-k", "feature-dim-zero", "sample-shape-mismatch", "window-order",
        "sge-lr", "lam-nan", "seed-high"])
def test_cli_sweep_rejects_late_failures_before_running(tmp_path, base, param, values,
                                                         message):
    _, cfg_path = _config_file(tmp_path, **base)
    out = tmp_path / "sweep"
    res = _cli("sweep", "--config", cfg_path, "--out", out,
               "--param", param, "--values", values)
    assert res.exit_code == 2, res.output
    assert message in res.output and "Traceback" not in res.output
    assert not out.exists()


@pytest.mark.parametrize("seed", ["9223372036854775808", "-1"])
def test_cli_seed_out_of_range_exits_before_any_stage(tmp_path, seed):
    _, cfg_path = _config_file(tmp_path)
    out = tmp_path / "out"
    res = _cli("report", "--config", cfg_path, "--seed", seed, "--out", out)
    assert res.exit_code == 2, res.output
    assert "run.seed must be in" in res.output and "Traceback" not in res.output
    assert not out.exists()


def test_cli_schedule_underflow_exits_before_any_stage(tmp_path):
    # alpha_bar[T] underflows to 0 at T = 2000 with these betas; the config
    # cannot be built through ExperimentConfig, so its file is edited
    _, cfg_path = _config_file(tmp_path)
    text = cfg_path.read_text()
    for old, new in (("T = 60", "T = 2000"), ("beta_start = 0.0001", "beta_start = 0.3"),
                     ("beta_end = 0.02", "beta_end = 0.99")):
        assert old in text
        text = text.replace(old, new)
    cfg_path.write_text(text)
    out = tmp_path / "out"
    res = _cli("report", "--config", cfg_path, "--out", out)
    assert res.exit_code == 2, res.output
    assert "alpha_bar[T] = 0 is below" in res.output and "Traceback" not in res.output
    assert not out.exists()


def test_cli_subnormal_schedule_exits_before_any_stage(tmp_path):
    # the default betas leave alpha_bar[T] = 1.2e-322 at T = 100,000: above 0,
    # but the fit near T would overflow
    _, cfg_path = _config_file(tmp_path)
    text = cfg_path.read_text()
    assert "T = 60" in text
    cfg_path.write_text(text.replace("T = 60", "T = 100000"))
    out = tmp_path / "out"
    res = _cli("report", "--config", cfg_path, "--out", out)
    assert res.exit_code == 2, res.output
    assert "alpha_bar[T] = 1.19e-322 is below" in res.output
    assert "Traceback" not in res.output
    assert not out.exists()


def test_cli_sweep_rejects_unknown_string_value_before_running(tmp_path):
    _, cfg_path = _config_file(tmp_path)
    out = tmp_path / "sweep"
    res = _cli("sweep", "--config", cfg_path, "--out", out,
               "--param", "metrics.feature", "--values", "identity,pixel")
    assert res.exit_code == 2, res.output
    assert "unknown feature 'pixel' for metrics.feature" in res.output
    assert not out.exists() or not any(out.iterdir())


def test_sweep_validates_every_cell_first(tmp_path):
    from crdi.workbench.experiment import sweep

    with pytest.raises(ConfigError, match="run.k"):
        sweep(_fast_config(), "run.k", [2, 0], tmp_path / "sweep")
    with pytest.raises(ConfigError, match="type mismatch"):
        sweep(_fast_config(), "sge.eta", [1, "4"], tmp_path / "sweep")
    with pytest.raises(ConfigError, match="at least one value"):
        sweep(_fast_config(), "sge.eta", [], tmp_path / "sweep")
    assert not (tmp_path / "sweep" / "run.k=2").exists()


def test_cli_sweep_string_values(tmp_path):
    import csv

    _, cfg_path = _config_file(tmp_path)
    out = tmp_path / "sweep"
    res = _cli("sweep", "--config", cfg_path, "--out", out,
               "--param", "run.ablation", "--values", "none,no-sge")
    assert res.exit_code == 0, res.output
    with open(out / "sweep.csv") as f:
        rows = list(csv.DictReader(f))
    assert [r["run.ablation"] for r in rows] == ["none", "no-sge"]
    assert rows[0]["frechet"] != rows[1]["frechet"]
