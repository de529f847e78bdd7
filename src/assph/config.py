"""The two configuration schemas: training and the synthetic corpus.

The fields of ``TrainConfig`` are the keys of a ``--config`` JSON file
and of the manifest's ``config`` block; the fields of ``SynthConfig``
are the keys of a synth manifest's ``config`` block.  The CLI generates
one flag per field of each (``code_length`` -> ``--code-length``; bools
get a ``--no-`` form), so adding a field adds all of them, and a field's
default is defined here only.

The module imports no numpy, so the CLI can build its parser before
``--threads`` caps the BLAS pools.
"""

import math
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError

HIDDEN_ACTS = ("relu", "tanh")

# MAP cutoffs a self-evaluation or an eval reports when none are asked for
MAP_CUTOFFS = (50,)


@dataclass(frozen=True)
class LossWeights:
    """Term weights: mu1 on the correlation term, mu2 on agreement, plus
    the target cosine level beta for correlated pairs.  Checked once, when
    built."""

    mu1: float = 2.0
    mu2: float = 1.0
    beta: float = 1.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu1) and self.mu1 >= 0):
            raise ConfigError(f"mu1 must be a finite real >= 0, got {self.mu1}")
        if not (math.isfinite(self.mu2) and self.mu2 >= 0):
            raise ConfigError(f"mu2 must be a finite real >= 0, got {self.mu2}")
        if not (math.isfinite(self.beta) and self.beta >= 1):
            raise ConfigError(f"beta must be a finite real >= 1, got {self.beta}")


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run depends on, seed included.

    The defaults are the source paper's published hyperparameters (ASSPH,
    arXiv 2207.04214), which ``--profile paper-default`` names.  It checks
    every value when built, whether by from_dict, directly or by
    dataclasses.replace, and is frozen, so a TrainConfig holds valid
    settings and the stages that read it check none of them again.
    """

    code_length: int = 64
    epochs: int = 50
    batch_size: int = 32
    ks: int = 2000
    kr: int = 50
    tau: int = 1
    gamma: float = 0.3
    mu1: float = LossWeights.mu1
    mu2: float = LossWeights.mu2
    beta: float = LossWeights.beta
    learning_rate: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0005
    eta_base: float = 1.0
    d_hidden: int = 4096
    seed: int = 0
    hidden_act: str = "relu"
    adaptive: bool = True
    bin_opt: bool = True
    corr: bool = True
    struct: bool = True
    pair_corr: bool = False

    def __post_init__(self) -> None:
        for name in ("code_length", "epochs", "batch_size", "ks", "kr", "d_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.tau < 1:
            raise ConfigError(f"tau must be >= 1, got {self.tau}")
        if not 0 <= self.gamma <= 1:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        if not (math.isfinite(self.eta_base) and self.eta_base > 0):
            raise ConfigError(f"eta_base must be a finite real > 0, got {self.eta_base}")
        if self.hidden_act not in HIDDEN_ACTS:
            raise ConfigError(f"hidden_act must be one of {HIDDEN_ACTS}")
        LossWeights(self.mu1, self.mu2, self.beta)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning_rate must be a finite real > 0, got {self.learning_rate}"
            )
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(
                f"weight_decay must be a finite real >= 0, got {self.weight_decay}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, flat: dict) -> "TrainConfig":
        """Config from JSON-style keys; absent keys keep their defaults."""
        kinds = {f.name: f.type for f in fields(cls)}
        unknown = set(flat) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{key: _coerce(key, kinds[key], value)
                      for key, value in flat.items()})


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic multi-label two-modality corpus, checked
    once, when built."""

    classes: int = 5
    instances: int = 2000
    dim_image: int = 24
    dim_text: int = 20
    label_cardinality: float = 1.0
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("classes", "instances", "dim_image", "dim_text"):
            if getattr(self, name) < 1:
                raise ConfigError(f"synth: {name} must be >= 1")
        if not 0 < self.label_cardinality <= self.classes:
            raise ConfigError("synth: label_cardinality must be in (0, classes]")
        if self.noise_sigma < 0:
            raise ConfigError("synth: noise_sigma must be >= 0")


def _coerce(key: str, kind: type, value):
    """value as a field of type kind: only true/false is a bool and
    nothing else takes one, and an int must be a whole number."""
    if (kind is bool) == isinstance(value, bool):
        if kind is int and isinstance(value, float):
            if value.is_integer():
                return int(value)
        else:
            try:
                return kind(value)
            except (TypeError, ValueError):
                pass
    raise ConfigError(
        f"bad config value: {key} must be a {kind.__name__}, got {value!r}"
    )
