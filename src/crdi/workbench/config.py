"""Experiment configuration: flat TOML-style tables with strict keys."""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from ..diffusion import MAX_T
from ..errors import ConfigError
from .domains import DomainSpec

# section -> key -> default. A default of None marks a required-by-context
# optional string.
_SCHEMA = {
    "schedule": {"T": 1000, "beta_start": 1e-4, "beta_end": 0.02},
    "inference": {"steps": 25},
    "sge": {"eta": 8, "window_lo_frac": 0.0, "window_hi_frac": 1.0,
            "lam": 1.0, "lr": 0.01, "iterations": 2000, "coupling": "coupled"},
    "perturb": {"alpha_frac": 1.0, "beta_frac": 0.6, "s": 0.1},
    "train": {"steps": 4000, "batch": 128, "lr": 1e-3, "hidden": "64,64",
              "checkpoint": ""},
    "source": {"kind": "ring-of-gaussians", "components": 8, "radius": 2.0,
               "rotation": 0.0, "center_x": 0.0, "center_y": 0.0,
               "noise_std": 0.1, "scale": 1.5, "size": 16,
               "bar": False, "bar_row": 11, "bar_intensity": 0.9},
    "target": {"kind": "ring-of-gaussians", "components": 8, "radius": 1.8,
               "rotation": 0.2, "center_x": 0.7, "center_y": 0.5,
               "noise_std": 0.1, "scale": 1.5, "size": 16,
               "bar": True, "bar_row": 11, "bar_intensity": 0.9},
    "run": {"k": 10, "count": 64, "seed": 0, "eval_count": 256,
            "ablation": "none", "guidance": "per-sample", "start": "noised"},
    "metrics": {"n": 3, "direction": "per-target", "feature": "identity",
                "feature_dim": 32},
}

_DOMAIN_KEYS = {
    "ring-of-gaussians": {"components", "radius", "rotation", "noise_std",
                          "center_x", "center_y"},
    "two-moons": {"noise_std", "scale"},
    "sprite-images": {"size", "bar", "bar_row", "bar_intensity"},
}

# Keys whose string value must be one of a fixed set; the code branches on them.
_CHOICES = {
    "run.ablation": ("none", "no-sge", "no-perturbation"),
    "run.guidance": ("per-sample", "mean"),
    "run.start": ("noised", "prior"),
    "sge.coupling": ("coupled", "independent"),
    "metrics.direction": ("per-target", "per-generated"),
    "metrics.feature": ("identity", "pixels", "random-projection"),
    "source.kind": tuple(_DOMAIN_KEYS),
    "target.kind": tuple(_DOMAIN_KEYS),
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
    for lineno, line in enumerate(text.splitlines(), 1):
        line = _strip_comment(line).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}] at line {lineno}")
            continue
        if "=" not in line or section is None:
            raise ConfigError(f"malformed line {lineno}: {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {section}.{key} at line {lineno}")
        val = _parse_value(raw, f"{section}.{key}")
        values[section][key] = _typed(section, key, val, f" at line {lineno}")
    return values


def _typed(section: str, key: str, val, where: str = ""):
    """val checked against the schema default's type; ints promote to float."""
    default = _SCHEMA[section][key]
    if isinstance(default, bool) != isinstance(val, bool):
        raise ConfigError(f"type mismatch for {section}.{key}{where}")
    if isinstance(default, float) and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if type(val) is not type(default):
        raise ConfigError(f"type mismatch for {section}.{key}{where}")
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
        cfg = cls(values)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(parse_config_text(Path(path).read_text()))

    @classmethod
    def defaults(cls, **overrides) -> "ExperimentConfig":
        values = {sec: dict(keys) for sec, keys in _SCHEMA.items()}
        for dotted, val in overrides.items():
            sec, key = _schema_key(dotted.replace("__", "."))
            values[sec][key] = val
        return cls.from_dict(values)

    def with_value(self, param: str, val) -> "ExperimentConfig":
        """A validated copy with the dotted parameter set to val."""
        section, key = _schema_key(param)
        values = {sec: dict(kv) for sec, kv in self.values.items()}
        values[section][key] = _typed(section, key, val)
        return ExperimentConfig.from_dict(values)

    def validate(self):
        v = self.values
        for frac in ("window_lo_frac", "window_hi_frac"):
            if not 0.0 <= v["sge"][frac] <= 1.0:
                raise ConfigError(f"sge.{frac} must be in [0, 1]")
        for frac in ("alpha_frac", "beta_frac"):
            if not 0.0 <= v["perturb"][frac] <= 1.0:
                raise ConfigError(f"perturb.{frac} must be in [0, 1]")
        if v["perturb"]["beta_frac"] >= v["perturb"]["alpha_frac"]:
            raise ConfigError("perturb.beta_frac must be < perturb.alpha_frac")
        for param, low in (("run.k", 1), ("run.count", 2), ("run.eval_count", 2),
                           ("train.steps", 1), ("train.batch", 1), ("sge.eta", 1)):
            section, key = param.split(".")
            if v[section][key] < low:
                raise ConfigError(f"{param} must be >= {low}")
        if not 2 <= v["schedule"]["T"] <= MAX_T:
            raise ConfigError(f"schedule.T must be in [2, {MAX_T}]")
        if not 2 <= v["inference"]["steps"] <= v["schedule"]["T"] + 1:
            raise ConfigError("inference.steps must be in [2, schedule.T + 1]")
        for param, allowed in _CHOICES.items():
            section, key = param.split(".")
            if v[section][key] not in allowed:
                raise ConfigError(f"unknown {key} {v[section][key]!r} for {param}; "
                                  f"expected one of {', '.join(allowed)}")
        src, tgt = self.domain_spec("source"), self.domain_spec("target")
        if (src.kind, src.params) == (tgt.kind, tgt.params):
            raise ConfigError("source and target domains must differ")
        ckpt = v["train"]["checkpoint"]
        if ckpt and not Path(ckpt).exists():
            raise ConfigError(f"checkpoint file {ckpt} does not exist")

    def domain_spec(self, side: str) -> DomainSpec:
        sec = self.values[side]
        kind = sec["kind"]
        params = {k: sec[k] for k in _DOMAIN_KEYS[kind]}
        tag = 0 if side == "source" else 1
        return DomainSpec.make(kind, seed=self.values["run"]["seed"] * 2 + tag, **params)

    def hidden_widths(self) -> list:
        return [int(w) for w in str(self.values["train"]["hidden"]).split(",") if w.strip()]

    def canonical_json(self) -> str:
        return json.dumps(self.values, sort_keys=True)

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

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
        Path(path).write_text("\n".join(lines))
