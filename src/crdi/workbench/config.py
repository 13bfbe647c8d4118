"""Experiment configuration: TOML tables of scalar keys, read strictly."""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .. import binfmt
from ..diffusion import MAX_T, TrainConfig
from ..errors import ConfigError, InvalidArgumentError
from ..metrics import check_top_n
from ..sampler import GUIDANCE, STARTS, start_step
from ..schedules import (InferencePlan, NoiseSchedule, PerturbationSchedule, RigidityMap,
                         linear_schedule, make_plan)
from ..sge import SgeFitConfig, fit_window
from .domains import KINDS, DomainSpec, sample_shape, typed_like

# [source] and [target] hold a kind, then that kind's parameters, filled and checked
# by DomainSpec.make; the target's defaults apply where its kind takes the key.
_SIDES = ("source", "target")
_TARGET = {"radius": 1.8, "rotation": 0.2, "center_x": 0.7, "center_y": 0.5, "bar": True}

# The train and fit keys and defaults are the fields of the stage configs;
# their field order is the key order config.toml is written in.
_TRAIN, _FIT = asdict(TrainConfig()), asdict(SgeFitConfig())

# section -> key -> default; each value must have its default's type.
_SCHEMA = {
    "schedule": {"T": 1000, "beta_start": 1e-4, "beta_end": 0.02},
    "inference": {"steps": 25},
    "sge": {"eta": 8, "window_lo_frac": 0.0, "window_hi_frac": 1.0, **_FIT},
    "perturb": {"alpha_frac": 1.0, "beta_frac": 0.6, "s": 0.1},
    "train": {**_TRAIN, "hidden": "64,64", "checkpoint": ""},
    "source": {"kind": "ring-of-gaussians"},
    "target": {"kind": "ring-of-gaussians"},
    "run": {"k": 10, "count": 64, "seed": 0, "eval_count": 256,
            "ablation": "none", "guidance": "per-sample", "start": "noised"},
    "metrics": {"n": 3},
}

# Keys whose string value must be one of a fixed set; the code branches on them.
_CHOICES = {
    "run.ablation": ("none", "no-sge", "no-perturbation"),
    "run.guidance": GUIDANCE,
    "run.start": STARTS,
}


def parse_config_text(text: str) -> dict:
    """Parse TOML text of [section] tables, applying schema defaults.

    Unknown sections or keys are errors; types must match the defaults.
    """
    # imported here and in parse_param_value: a config built from a dict never
    # reads TOML, and the import holds 0.2 MB for the life of the process
    import tomllib
    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    return _schema_values(doc)


def _schema_values(given: dict) -> dict:
    """Schema defaults overridden by given's section -> key -> value, each type-checked."""
    values = {sec: dict(keys) for sec, keys in _SCHEMA.items()}
    for section, keys in given.items():
        if not isinstance(keys, dict):
            raise ConfigError(f"malformed config: {section} must be a [section] table")
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, val in keys.items():
            if key in _SCHEMA[section]:
                val = _typed(section, key, val)
            elif section not in _SIDES or key in ("cls", "seed"):   # DomainSpec.make's own
                raise ConfigError(f"unknown key {section}.{key}")
            values[section][key] = val
    for side in _SIDES:
        takes = KINDS.get(values[side]["kind"], (None, {}))[1]
        shifted = {k: v for k, v in _TARGET.items() if side == "target" and k in takes}
        spec = _built(side, DomainSpec.make, **{**shifted, **values[side]})
        values[side] = {"kind": spec.kind, **dict(spec.params)}
    return values


def _typed(section: str, key: str, val):
    """val checked against the schema default's type; ints promote to float,
    and a float must be finite."""
    try:
        val = typed_like(_SCHEMA[section][key], val)
    except TypeError:
        raise ConfigError(f"type mismatch for {section}.{key}") from None
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{section}.{key} must be finite, got {val}")
    return val


def _schema_key(param: str):
    """(section, key) of a dotted schema key such as "sge.eta"."""
    section, _, key = param.partition(".")
    if key not in _SCHEMA.get(section, {}) and not (section in _SIDES and key):
        raise ConfigError(f"unknown config key {param!r} (expected section.key)")
    return section, key


def parse_param_value(param: str, raw: str):
    """A command-line value: a TOML value, or the text as given for a string key."""
    section, key = _schema_key(param)
    if isinstance(_SCHEMA[section].get(key), str):
        return raw.strip()
    import tomllib
    try:
        (val,) = tomllib.loads(f"value = {raw}").values()
    except ValueError:   # not a TOML value, or text that adds more keys
        raise ConfigError(f"cannot parse value {raw.strip()!r} for key {param}") from None
    return val


@dataclass
class ExperimentConfig:
    """Validated experiment configuration."""

    values: dict

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    @classmethod
    def from_dict(cls, values: dict) -> "ExperimentConfig":
        """Schema defaults overridden by values, each type-checked, then validated."""
        cfg = cls(_schema_values(values))
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(parse_config_text(Path(path).read_text(encoding="utf-8")))

    @classmethod
    def defaults(cls, **overrides) -> "ExperimentConfig":
        """Schema defaults with section__key overrides."""
        values = {}
        for dotted, val in overrides.items():
            sec, key = _schema_key(dotted.replace("__", "."))
            values.setdefault(sec, {})[key] = val
        return cls.from_dict(values)

    def with_value(self, param: str, val) -> "ExperimentConfig":
        """A validated copy with param set to val; a new domain kind keeps the shared keys."""
        section, key = _schema_key(param)
        keys = {**self.values[section], key: val}
        if key == "kind" and isinstance(val, str) and val in KINDS:
            keys = {k: v for k, v in keys.items() if k == "kind" or k in KINDS[val][1]}
        return ExperimentConfig.from_dict({**self.values, section: keys})

    def validate(self):
        v = self.values
        for section, key in (("sge", "window_lo_frac"), ("sge", "window_hi_frac"),
                             ("perturb", "alpha_frac"), ("perturb", "beta_frac")):
            if not 0.0 <= v[section][key] <= 1.0:
                raise ConfigError(f"{section}.{key} must be in [0, 1]")
        if v["sge"]["window_lo_frac"] > v["sge"]["window_hi_frac"]:
            raise ConfigError("sge.window_lo_frac must be <= sge.window_hi_frac")
        for param, low in (("run.k", 1), ("run.count", 2), ("run.eval_count", 2),
                           ("train.steps", 1), ("sge.eta", 1)):
            section, key = param.split(".")
            if v[section][key] < low:
                raise ConfigError(f"{param} must be >= {low}")
        if not 2 <= v["schedule"]["T"] <= MAX_T:
            raise ConfigError(f"schedule.T must be in [2, {MAX_T}]")
        # the domain seeds 2 * seed + 1 must fit the 64 bits of an RngStream seed
        if not 0 <= v["run"]["seed"] <= 2**63 - 1:
            raise ConfigError(f"run.seed must be in [0, {2**63 - 1}]")
        for param, allowed in _CHOICES.items():
            section, key = param.split(".")
            if v[section][key] not in allowed:
                raise ConfigError(f"unknown {key} {v[section][key]!r} for {param}; "
                                  f"expected one of {', '.join(allowed)}")
        src, tgt = (_built(side, self.domain_spec, side) for side in ("source", "target"))
        if (src.kind, src.params) == (tgt.kind, tgt.params):
            raise ConfigError("source and target domains must differ")
        if sample_shape(src) != sample_shape(tgt):
            raise ConfigError(f"source sample shape {sample_shape(src)} != "
                              f"target sample shape {sample_shape(tgt)}")
        self.hidden_widths()
        ckpt = v["train"]["checkpoint"]
        if ckpt and not Path(ckpt).is_file():
            raise ConfigError(f"checkpoint {ckpt} does not exist or is not a file")
        # The stage objects, built as the stages build them, so that a rule
        # they hold fails here and not after training and fitting.
        _built("train", self.train_config)
        _built("sge", self.fit_config)
        schedule = _built("schedule", self.schedule)
        plan = _built("inference.steps", self.plan)
        perturb = _built("perturb", self.perturb_schedule)
        rmap = self.rigidity_map()
        _built("sge.window_lo_frac", fit_window, rmap, schedule)
        # generate starts at run.start; evaluate reconstructs image targets
        # from the noised start and scores them by mc_ssim
        is_images = len(sample_shape(tgt)) == 2
        for start in [v["run"]["start"]] + ["noised"] * is_images:
            _built(f"run.start = {start!r}", start_step, plan, rmap, start, perturb.alpha_t)
        if is_images:
            _built("metrics.n", check_top_n, v["metrics"]["n"], v["run"]["count"])

    def schedule(self) -> NoiseSchedule:
        sec = self.values["schedule"]
        return linear_schedule(sec["T"], sec["beta_start"], sec["beta_end"])

    def plan(self) -> InferencePlan:
        return make_plan(self.schedule(), self.values["inference"]["steps"])

    def rigidity_map(self) -> RigidityMap:
        T, sec = self.values["schedule"]["T"], self.values["sge"]
        t_lo = int(round(sec["window_lo_frac"] * T))
        t_hi = int(round(sec["window_hi_frac"] * T))
        return RigidityMap(eta=sec["eta"], t_lo=t_lo, t_hi=max(t_hi, t_lo + 1))

    def perturb_schedule(self) -> PerturbationSchedule:
        """The annealing window in steps; s = 0 under the no-perturbation ablation."""
        T, sec = self.values["schedule"]["T"], self.values["perturb"]
        s = 0.0 if self.values["run"]["ablation"] == "no-perturbation" else sec["s"]
        return PerturbationSchedule(alpha_t=int(round(sec["alpha_frac"] * T)),
                                    beta_t=int(round(sec["beta_frac"] * T)), s=s)

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{key: self.values["train"][key] for key in _TRAIN})

    def fit_config(self) -> SgeFitConfig:
        return SgeFitConfig(**{key: self.values["sge"][key] for key in _FIT})

    def domain_spec(self, side: str) -> DomainSpec:
        tag = 0 if side == "source" else 1
        return DomainSpec.make(seed=self.values["run"]["seed"] * 2 + tag, **self.values[side])

    def hidden_widths(self) -> list:
        """train.hidden as layer widths; a blank string is a linear net, and
        no item may be empty."""
        hidden = self.values["train"]["hidden"]
        if not hidden.strip():
            return []
        widths = [w.strip() for w in hidden.split(",")]
        if not all(w.isdecimal() and int(w) > 0 for w in widths):
            raise ConfigError(f"train.hidden {hidden!r} must be comma-separated "
                              "positive integers")
        return [int(w) for w in widths]

    def hash(self) -> str:
        return hashlib.sha256(json.dumps(self.values, sort_keys=True).encode("utf-8")).hexdigest()

    def write(self, path):
        lines = []
        for sec, keys in self.values.items():
            lines.append(f"[{sec}]")
            for key, val in keys.items():
                if isinstance(val, bool):
                    lines.append(f"{key} = {'true' if val else 'false'}")
                elif isinstance(val, str):   # a JSON string is a TOML basic string but for DEL
                    lines.append(f"{key} = {json.dumps(val, ensure_ascii=False)}"
                                 .replace("\x7f", "\\u007f"))
                else:
                    lines.append(f"{key} = {val}")
            lines.append("")
        binfmt.write_file(path, "\n".join(lines).encode())


def _built(what: str, build, *args, **kwargs):
    """build(*args, **kwargs), with an InvalidArgumentError it raises as a ConfigError."""
    try:
        return build(*args, **kwargs)
    except InvalidArgumentError as exc:
        raise ConfigError(f"{what}: {exc}") from None
