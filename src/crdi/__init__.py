"""Desk-scale laboratory for conditional relaxing diffusion inversion."""

__version__ = "0.1.0"

from .errors import (ConfigError, CrdiError, FormatError, InvalidArgumentError,
                     NumericError, ShapeError)
from .numerics import Mlp, RngStream, adam_step, gaussian, mlp_backward, mlp_forward
from .schedules import (InferencePlan, NoiseSchedule, PerturbationSchedule,
                        RigidityMap, gamma, linear_schedule, make_plan, segment_for)
from .diffusion import (NoiseNet, TrainConfig, ddim_step, eps_theta,
                        load_checkpoint, noise_from_score, noise_to, predict_x0,
                        save_checkpoint, score_from_noise, train_source)
from .sge import (SgeFitConfig, SgeSet, fit_sge, guided_noise, load_sge, residual_terms,
                  save_sge, sge_loss)
from .sampler import generate, perturb_guidance, reconstruct
from .metrics import MetricsReport, frechet, intra_diversity, mc_ssim, ssim
