"""Metric battery: SSIM, mode-coverage SSIM, Frechet distance, diversity."""
import numpy as np
import pytest

from crdi.errors import InvalidArgumentError, ShapeError
from crdi.metrics import (FeatureExtractor, MetricsReport, frechet,
                          intra_diversity, mc_ssim, ssim)
from crdi.numerics import RngStream, gaussian


# ---------------------------------------------------------------- ssim

def test_ssim_identity():
    img = gaussian(RngStream(0, "img"), (16, 16))
    assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)
    small = gaussian(RngStream(0, "small"), (8, 8))
    assert ssim(small, small) == pytest.approx(1.0, abs=1e-12)


def test_ssim_symmetry():
    a = gaussian(RngStream(1, "a"), (16, 16))
    b = gaussian(RngStream(1, "b"), (16, 16))
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)


def test_ssim_constant_offset():
    # constant images separated by half the dynamic range score below 0.5
    a = np.full((8, 8), 0.1)
    b = np.full((8, 8), 0.6)
    val = ssim(a, b)
    # direct evaluation of the global formula on constants (variances zero)
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    ref = ((2 * 0.1 * 0.6 + c1) * c2) / ((0.1 ** 2 + 0.6 ** 2 + c1) * c2)
    assert val == pytest.approx(ref, abs=1e-12)
    assert val < 0.5


def test_ssim_windowed_path_used_for_large_images():
    a = gaussian(RngStream(2, "a"), (32, 32))
    noise = 0.05 * gaussian(RngStream(2, "n"), (32, 32))
    windowed = ssim(a, a + noise)
    assert -1.0 <= windowed <= 1.0
    assert ssim(a, a) == pytest.approx(1.0, abs=1e-9)


def _tensordot_ssim(a, b):
    """The windowed SSIM with one tensordot per window moment: the reference
    the batched moments in ssim must match bit for bit."""
    from numpy.lib.stride_tricks import sliding_window_view

    from crdi.metrics import _C1, _C2, _KERNEL
    wa = sliding_window_view(a, _KERNEL.shape)
    wb = sliding_window_view(b, _KERNEL.shape)
    mu_a = np.tensordot(wa, _KERNEL, axes=((2, 3), (0, 1)))
    mu_b = np.tensordot(wb, _KERNEL, axes=((2, 3), (0, 1)))
    ea = np.tensordot(wa * wa, _KERNEL, axes=((2, 3), (0, 1)))
    eb = np.tensordot(wb * wb, _KERNEL, axes=((2, 3), (0, 1)))
    eab = np.tensordot(wa * wb, _KERNEL, axes=((2, 3), (0, 1)))
    va, vb = ea - mu_a ** 2, eb - mu_b ** 2
    cov = eab - mu_a * mu_b
    local = ((2 * mu_a * mu_b + _C1) * (2 * cov + _C2)) / \
            ((mu_a ** 2 + mu_b ** 2 + _C1) * (va + vb + _C2))
    return float(local.mean())


@pytest.mark.parametrize("shape", [(16, 16), (16, 17), (20, 17), (32, 32), (64, 64)])
def test_ssim_matches_per_moment_tensordot(shape):
    stream = RngStream(9, f"ssim{shape}")
    for _ in range(3):
        a = stream.uniform(shape[0] * shape[1]).reshape(shape)
        b = np.clip(a + 0.3 * gaussian(stream, shape), 0.0, 1.0)
        assert ssim(a, b) == _tensordot_ssim(a, b)


def test_ssim_validation():
    with pytest.raises(ShapeError):
        ssim(np.zeros((4, 4)), np.zeros((4, 5)))


# ---------------------------------------------------------------- mc_ssim

def _random_images(tag, n, shape=(8, 8)):
    stream = RngStream(3, tag)
    return [np.clip(0.5 + 0.2 * gaussian(stream, shape), 0, 1) for _ in range(n)]


def test_mc_ssim_self_match():
    imgs = _random_images("self", 4)
    assert mc_ssim(imgs, imgs, n=1) == pytest.approx(1.0, abs=1e-12)


def test_mc_ssim_hand_oracle():
    # every generated sample is a copy of target 0: per-target top-1 scores
    # are 1 for target 0 and ssim(g, y_j) otherwise
    targets = _random_images("targets", 3)
    generated = [targets[0].copy() for _ in range(5)]
    expected = (1.0 + ssim(targets[0], targets[1]) +
                ssim(targets[0], targets[2])) / 3.0
    assert mc_ssim(generated, targets, n=1) == pytest.approx(expected, abs=1e-12)


def test_mc_ssim_top_all_is_plain_mean():
    generated = _random_images("gen", 4)
    targets = _random_images("tgt", 3)
    val = mc_ssim(generated, targets, n=4)
    ref = np.mean([[ssim(g, y) for g in generated] for y in targets])
    assert val == pytest.approx(float(ref), abs=1e-12)


def test_mc_ssim_direction_swap():
    generated = _random_images("g2", 5)
    targets = _random_images("t2", 2)
    per_gen = mc_ssim(generated, targets, n=1, direction="per-generated")
    ref = np.mean([max(ssim(g, y) for y in targets) for g in generated])
    assert per_gen == pytest.approx(float(ref), abs=1e-12)


def test_mc_ssim_permutation_invariant():
    generated = _random_images("g3", 4)
    targets = _random_images("t3", 3)
    val = mc_ssim(generated, targets, n=2)
    assert mc_ssim(generated[::-1], targets[::-1], n=2) == \
        pytest.approx(val, abs=1e-12)


def test_mc_ssim_validation():
    imgs = _random_images("v", 2)
    with pytest.raises(InvalidArgumentError):
        mc_ssim([], imgs, n=1)
    with pytest.raises(InvalidArgumentError):
        mc_ssim(imgs, imgs, n=3)
    with pytest.raises(InvalidArgumentError, match="unknown direction 'per-targte'"):
        mc_ssim(imgs, imgs, n=1, direction="per-targte")


# ---------------------------------------------------------------- frechet

def test_frechet_identical_sets():
    f = gaussian(RngStream(4, "f"), (64, 3))
    assert frechet(f, f) == pytest.approx(0.0, abs=1e-9)


def test_frechet_symmetric():
    a = gaussian(RngStream(5, "a"), (128, 4))
    b = 0.5 + gaussian(RngStream(5, "b"), (128, 4))
    assert frechet(a, b) == pytest.approx(frechet(b, a), abs=1e-9)


def test_frechet_unit_mean_shift_one_dim():
    stream = RngStream(6, "shift")
    a = gaussian(stream, (10_000, 1))
    b = 1.0 + gaussian(stream, (10_000, 1))
    fd = frechet(a, b)
    # closed form on the fitted moments: (mu_a - mu_b)^2 + (sd_a - sd_b)^2
    ref = (a.mean() - b.mean()) ** 2 + (a.std(ddof=1) - b.std(ddof=1)) ** 2
    assert fd == pytest.approx(float(ref), rel=0.05)
    assert fd == pytest.approx(1.0, abs=0.15)  # population value is exactly 1


def test_frechet_matches_closed_form_two_dim():
    # diagonal Gaussians: closed form sum of per-axis 1-D distances
    stream = RngStream(7, "cf")
    a = gaussian(stream, (20_000, 2)) * np.array([1.0, 2.0])
    b = gaussian(stream, (20_000, 2)) * np.array([1.5, 1.0]) + np.array([0.5, -1.0])
    mu1, mu2 = a.mean(axis=0), b.mean(axis=0)
    s1 = np.cov(a, rowvar=False)
    s2 = np.cov(b, rowvar=False)
    # oracle: for near-diagonal covariances use the commuting closed form
    d1 = np.sqrt(np.diag(s1))
    d2 = np.sqrt(np.diag(s2))
    ref = np.sum((mu1 - mu2) ** 2) + np.sum((d1 - d2) ** 2)
    assert frechet(a, b) == pytest.approx(float(ref), rel=0.02)


def test_frechet_validation():
    with pytest.raises(InvalidArgumentError):
        frechet(np.zeros((1, 2)), np.zeros((5, 2)))
    with pytest.raises(ShapeError):
        frechet(np.zeros((5, 2)), np.zeros((5, 3)))


def test_frechet_degenerate_covariance_handled():
    # identical constant sets: covariance singular, ridge keeps it finite
    a = np.ones((10, 3))
    val = frechet(a, a + 0.0)
    assert np.isfinite(val) and val == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------- diversity

def test_diversity_identical_samples_degenerate_zero():
    gen = np.ones((4, 2))
    targets = np.array([[1.0, 1.0]])
    val, degenerate = intra_diversity(gen, targets, FeatureExtractor("identity"))
    assert val == 0.0 and not degenerate  # one cluster of four identical points


def test_diversity_hand_case_two_clusters():
    # two clusters, each two unit-normalized points at feature distance 1
    a = np.array([1.0, 0.0])
    b = np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)])  # |a - b| = 1 on the circle
    c = np.array([-1.0, 0.0])
    d = np.array([-np.cos(np.pi / 3), np.sin(np.pi / 3)])
    gen = np.stack([a, b, c, d]) * 5.0  # normalization restores unit radius
    targets = np.array([[1.0, 0.2], [-1.0, 0.2]])
    val, degenerate = intra_diversity(gen, targets, FeatureExtractor("identity"))
    assert val == pytest.approx(1.0, abs=1e-9)
    assert not degenerate


def test_diversity_all_singletons_flagged():
    gen = np.array([[1.0, 0.0], [-1.0, 0.0]])
    targets = np.array([[1.0, 0.0], [-1.0, 0.0]])
    val, degenerate = intra_diversity(gen, targets, FeatureExtractor("identity"))
    assert val == 0.0 and degenerate


def test_diversity_image_assignment_uses_ssim():
    base = _random_images("div", 2)
    gen = np.stack([base[0], base[0] + 0.01, base[1], base[1] - 0.01])
    targets = np.stack(base)
    val, degenerate = intra_diversity(gen, targets, FeatureExtractor("pixels"),
                                      images=True)
    assert not degenerate and val > 0.0


def test_diversity_validation():
    with pytest.raises(InvalidArgumentError):
        intra_diversity(np.zeros((1, 2)), np.zeros((1, 2)),
                        FeatureExtractor("identity"))


# ---------------------------------------------------------------- features

def test_feature_extractors_deterministic():
    x = gaussian(RngStream(8, "x"), (6, 2))
    ident = FeatureExtractor("identity")
    np.testing.assert_array_equal(ident(x), x)
    proj = FeatureExtractor("random-projection", dim=4, seed=3)
    np.testing.assert_array_equal(proj(x), proj(x))
    assert proj(x).shape == (6, 4)
    imgs = gaussian(RngStream(8, "im"), (3, 5, 5))
    assert FeatureExtractor("pixels")(imgs).shape == (3, 25)
    with pytest.raises(InvalidArgumentError, match="unknown feature kind 'vgg'"):
        FeatureExtractor("vgg")


# ---------------------------------------------------------------- report

def test_report_serialization():
    rep = MetricsReport(ssim_per_pair=[0.5, 0.7], mc_ssim=0.6, frechet=1.2,
                        intra_diversity=0.3)
    d = rep.to_dict()
    assert d["mc_ssim"] == 0.6 and "note" in d
    row = rep.to_csv_row()
    assert row["mean_ssim"] == pytest.approx(0.6)
    assert row["frechet"] == 1.2
