"""The two configuration schemas: training and the synthetic corpus.

The fields of ``TrainConfig`` are the keys of a ``--config`` JSON file
and of the manifest's ``config`` block; the fields of ``SynthConfig``
are the keys of a synth manifest's ``config`` block.  The CLI generates
one flag per field of each (``code_length`` -> ``--code-length``; bools
get a ``--no-`` form), so adding a field adds all of them, and a field's
default is defined here only.

A term of the loss is off when its weight is 0: mu1 = 0 drops the
correlation-preserving term and gamma = 0 the structural similarity,
the paper's two term ablations.

The module imports no numpy, so the CLI can build its parser before
``--threads`` caps the BLAS pools.
"""

import math
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError

HIDDEN_ACTS = ("relu", "tanh")

# MAP cutoffs a self-evaluation or an eval reports when none are asked for
MAP_CUTOFFS = (50,)

# the paper's ablation study: short name -> (run title, the TrainConfig
# fields the variant changes), the full model first
VARIANTS = {
    "full": ("ASSPH", {}),
    "noadapt": ("ASSPH_NoAdapt", {"adaptive": False}),
    "paircorr": ("ASSPH_PairCorr", {"pair_corr": True}),
    "nocorr": ("ASSPH_NoCorr", {"mu1": 0.0}),
    "nobinopt": ("ASSPH_NoBinOpt", {"bin_opt": False}),
    "nostruct": ("ASSPH_NoStruct", {"gamma": 0.0}),
}


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
    mu1: float = 2.0
    mu2: float = 1.0
    beta: float = 1.5
    learning_rate: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0005
    eta_base: float = 1.0
    d_hidden: int = 4096
    seed: int = 0
    hidden_act: str = "relu"
    adaptive: bool = True
    bin_opt: bool = True
    pair_corr: bool = False

    def __post_init__(self) -> None:
        for name, least in (("code_length", 1), ("epochs", 1), ("batch_size", 1),
                            ("ks", 1), ("kr", 1), ("d_hidden", 1), ("tau", 1),
                            ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not 0 <= self.gamma <= 1:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        for name, op, bound in (("mu1", ">=", 0), ("mu2", ">=", 0), ("beta", ">=", 1),
                                ("learning_rate", ">", 0), ("weight_decay", ">=", 0),
                                ("eta_base", ">", 0)):
            value = getattr(self, name)
            if not (math.isfinite(value)
                    and (value > bound if op == ">" else value >= bound)):
                raise ConfigError(f"{name} must be a finite real {op} {bound}, got {value}")
        if self.hidden_act not in HIDDEN_ACTS:
            raise ConfigError(f"hidden_act must be one of {HIDDEN_ACTS}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")

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
    once, when built; train_size None trains on every retrieval row."""

    classes: int = 5
    instances: int = 2000
    dim_image: int = 24
    dim_text: int = 20
    label_cardinality: float = 1.0
    noise_sigma: float = 0.1
    seed: int = 0
    train_size: int | None = None

    @property
    def n_query(self) -> int:  # 10% of the instances, at least one
        return max(1, self.instances // 10)

    def __post_init__(self) -> None:
        # one instance always goes to the query split, so one more must train
        for name, least in (("classes", 1), ("instances", 2), ("dim_image", 1),
                            ("dim_text", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"synth: {name} must be >= {least}")
        if not 0 < self.label_cardinality <= self.classes:
            raise ConfigError("synth: label_cardinality must be in (0, classes]")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ConfigError("synth: noise_sigma must be a finite real >= 0")
        n_retrieval = self.instances - self.n_query
        if self.train_size is not None and not 1 <= self.train_size <= n_retrieval:
            raise ConfigError(
                f"synth: train_size {self.train_size} outside [1, {n_retrieval}]")


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
