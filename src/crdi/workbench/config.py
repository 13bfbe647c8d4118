"""Experiment configuration: flat TOML-style tables with strict keys."""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .. import binfmt
from ..diffusion import MAX_T, TrainConfig
from ..errors import ConfigError, InvalidArgumentError
from ..metrics import DIRECTIONS, FEATURES, FeatureExtractor, check_top_n
from ..sampler import GUIDANCE, STARTS, start_step
from ..schedules import (InferencePlan, NoiseSchedule, PerturbationSchedule, RigidityMap,
                         linear_schedule, make_plan)
from ..sge import COUPLINGS, SgeFitConfig, fit_window
from .domains import KINDS, DomainSpec, sample_shape, typed_like

# A domain section: its kind, then every parameter any kind takes.
_DOMAIN = {"kind": "ring-of-gaussians",
           **{key: val for _, params in KINDS.values() for key, val in params.items()}}

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
    "source": _DOMAIN,
    "target": {**_DOMAIN, "radius": 1.8, "rotation": 0.2, "center_x": 0.7,
               "center_y": 0.5, "bar": True},
    "run": {"k": 10, "count": 64, "seed": 0, "eval_count": 256,
            "ablation": "none", "guidance": "per-sample", "start": "noised"},
    "metrics": {"n": 3, "direction": "per-target", "feature": "identity",
                "feature_dim": 32},
}

# Keys whose string value must be one of a fixed set; the code branches on them.
_CHOICES = {
    "run.ablation": ("none", "no-sge", "no-perturbation"),
    "run.guidance": GUIDANCE,
    "run.start": STARTS,
    "sge.coupling": COUPLINGS,
    "metrics.direction": DIRECTIONS,
    "metrics.feature": FEATURES,
    "source.kind": tuple(KINDS),
    "target.kind": tuple(KINDS),
}


def _parse_value(raw: str, path: str):
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} for key {path}")


def _strip_comment(line: str) -> str:
    """The line up to its first '#' outside a double-quoted string."""
    quoted = False
    for i, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:i]
    return line


def parse_config_text(text: str) -> dict:
    """Parse flat [section] / key = value text, applying schema defaults.

    Unknown sections or keys are errors; types must match the defaults.
    """
    values = {sec: dict(keys) for sec, keys in _SCHEMA.items()}
    section = None
    seen = set()   # sections, and (section, key) pairs, given so far
    for lineno, line in enumerate(text.splitlines(), 1):
        line = _strip_comment(line).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}] at line {lineno}")
            if section in seen:
                raise ConfigError(f"repeated section [{section}] at line {lineno}")
            seen.add(section)
            continue
        if "=" not in line or section is None:
            raise ConfigError(f"malformed line {lineno}: {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {section}.{key} at line {lineno}")
        if (section, key) in seen:
            raise ConfigError(f"repeated key {section}.{key} at line {lineno}")
        seen.add((section, key))
        val = _parse_value(raw, f"{section}.{key}")
        values[section][key] = _typed(section, key, val, f" at line {lineno}")
    return values


def _typed(section: str, key: str, val, where: str = ""):
    """val checked against the schema default's type; ints promote to float,
    and a float must be finite."""
    try:
        val = typed_like(_SCHEMA[section][key], val)
    except TypeError:
        raise ConfigError(f"type mismatch for {section}.{key}{where}") from None
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{section}.{key} must be finite, got {val}{where}")
    return val


def _schema_key(param: str):
    """(section, key) of a dotted schema key such as "sge.eta"."""
    section, _, key = param.partition(".")
    if key not in _SCHEMA.get(section, {}):
        raise ConfigError(f"unknown config key {param!r} (expected section.key)")
    return section, key


def parse_param_value(param: str, raw: str):
    """A command-line value read by its key's schema type; strings stay as given."""
    section, key = _schema_key(param)
    if isinstance(_SCHEMA[section][key], str):
        return raw.strip()
    return _parse_value(raw, param)


@dataclass
class ExperimentConfig:
    """Validated experiment configuration."""

    values: dict

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    @classmethod
    def from_dict(cls, values: dict) -> "ExperimentConfig":
        """Schema defaults overridden by values, each type-checked, then validated."""
        full = {sec: dict(keys) for sec, keys in _SCHEMA.items()}
        for section, keys in values.items():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]")
            for key, val in keys.items():
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {section}.{key}")
                full[section][key] = _typed(section, key, val)
        cfg = cls(full)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(parse_config_text(Path(path).read_text()))

    @classmethod
    def defaults(cls, **overrides) -> "ExperimentConfig":
        """Schema defaults with section__key overrides."""
        values = {}
        for dotted, val in overrides.items():
            sec, key = _schema_key(dotted.replace("__", "."))
            values.setdefault(sec, {})[key] = val
        return cls.from_dict(values)

    def with_value(self, param: str, val) -> "ExperimentConfig":
        """A validated copy with the dotted parameter set to val."""
        section, key = _schema_key(param)
        return ExperimentConfig.from_dict({**self.values,
                                           section: {**self.values[section], key: val}})

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
        src, tgt = self.domain_spec("source"), self.domain_spec("target")
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
        is_images = tgt.kind == "sprite-images"
        for start in [v["run"]["start"]] + ["noised"] * is_images:
            _built(f"run.start = {start!r}", start_step, plan, rmap, start, perturb.alpha_t)
        if is_images:
            _built("metrics.n", check_top_n, v["metrics"]["n"], v["metrics"]["direction"],
                   v["run"]["count"], v["run"]["k"])
        _built("metrics.feature_dim", self.feature_extractor)

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

    def feature_extractor(self) -> FeatureExtractor:
        m = self.values["metrics"]
        return FeatureExtractor(kind=m["feature"], dim=m["feature_dim"],
                                seed=self.values["run"]["seed"])

    def domain_spec(self, side: str) -> DomainSpec:
        sec = self.values[side]
        params = {key: sec[key] for key in KINDS[sec["kind"]][1]}
        tag = 0 if side == "source" else 1
        return DomainSpec.make(sec["kind"], seed=self.values["run"]["seed"] * 2 + tag, **params)

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
                elif isinstance(val, str):
                    lines.append(f'{key} = "{val}"')
                else:
                    lines.append(f"{key} = {val}")
            lines.append("")
        binfmt.write_file(path, "\n".join(lines).encode())


def _built(what: str, build, *args):
    """build(*args), with an InvalidArgumentError it raises as a ConfigError."""
    try:
        return build(*args)
    except InvalidArgumentError as exc:
        raise ConfigError(f"{what}: {exc}") from None
