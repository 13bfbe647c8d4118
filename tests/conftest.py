"""Shared fixtures: small trained models reused across test modules.

The expensive session-scoped fixtures (the 2-D ring model and the sprite
model) are only built when a test actually requests them, so unit-test
runs stay fast.
"""
import pytest

from crdi.diffusion import NoiseNet, TrainConfig, train_source
from crdi.numerics import RngStream
from crdi.schedules import linear_schedule
from crdi.workbench.domains import DomainSpec, flatten, synth_domain


@pytest.fixture(scope="session")
def tiny_ring():
    """Cheap 2-D model for mechanism tests (not for quality assertions)."""
    schedule = linear_schedule(50, 1e-4, 0.02)
    spec = DomainSpec.make("ring-of-gaussians", seed=0, components=8, radius=2.0,
                           rotation=0.0, noise_std=0.1, center_x=0.0, center_y=0.0)
    dataset = flatten(synth_domain(spec, 512))
    net = NoiseNet.init(2, schedule.T, [32, 32], RngStream(0, "init"))
    net, trace = train_source(net, schedule, dataset,
                              TrainConfig(steps=400, batch=64, lr=2e-3),
                              RngStream(0, "train"))
    return schedule, net, dataset, trace


@pytest.fixture(scope="session")
def ring_model(tmp_path_factory):
    """The 2-D source model used by the acceptance battery, trained once
    and checkpointed so pipeline runs can share it."""
    from crdi.workbench import ExperimentConfig
    from crdi.workbench.experiment import prepare_source_model

    cfg = ExperimentConfig.defaults(
        schedule__T=400, train__steps=2500, train__batch=128,
        train__hidden="96,96")
    out = tmp_path_factory.mktemp("ring-model")
    net, _ = prepare_source_model(cfg, out)
    return cfg.schedule(), net, str(out / "model.crdn")


@pytest.fixture(scope="session")
def sprite_model(tmp_path_factory):
    """The sprite-image source model for the reconstruction-quality tests."""
    from crdi.workbench import ExperimentConfig
    from crdi.workbench.experiment import prepare_source_model

    cfg = ExperimentConfig.defaults(
        schedule__T=400, train__steps=6000, train__batch=128,
        train__hidden="256,256", train__lr=8e-4,
        source__kind="sprite-images", target__kind="sprite-images")
    out = tmp_path_factory.mktemp("sprite-model")
    net, _ = prepare_source_model(cfg, out)
    return cfg.schedule(), net, str(out / "model.crdn")
