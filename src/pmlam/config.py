"""Run configuration: defaults, flat key=value config files, validation.

Keys in files and CLI flags use the field names below (``-`` and ``_`` are
interchangeable). ``margin_mode`` is ``adaptive`` or ``fixed:<m>``;
``relations`` is a comma list out of ``ui,uu,ii`` and must contain ``ui``.
"""

from dataclasses import dataclass, field, fields, replace

from .bilevel import OUTER_BATCHES
from .distance import DistanceKind
from .embeddings import MU_STD, SIGMA0, SIGMA_JITTER
from .losses import RELATIONS
from .margin_net import INDICATOR_MODES


@dataclass
class RunConfig:
    h: int = 50
    hidden: int = 50
    alpha: float = 0.001
    lam: float = 0.001
    epochs: int = 100
    batch_size: int = 5000
    neg_samples: int = 2
    pool_size: int = 500
    refresh_period: int = 20
    sim_threshold: float = 0.2
    ks: tuple = (5, 10, 15, 20)
    seed: int = 0
    distance_kind: str = "w2"            # "w2" | "euclidean"
    margin_mode: str = "adaptive"        # "adaptive" | "fixed:<m>"
    margin_mode_uu: str | None = None    # per-relation overrides (ablations)
    margin_mode_ii: str | None = None
    relations: tuple = ("ui", "uu", "ii")
    indicator_mode: str = "squared-diff"  # "squared-diff" | "concat" | "sum"
    eval_every: int = 10
    eps_fd: float = 1e-2
    outer_batch: str = "same"            # "same" | "fresh"
    joint_margin_training: bool = False  # anti-pattern switch: phi follows the inner loss

    def kind(self):
        return DistanceKind(self.distance_kind)

    def margin_mode_for(self, relation):
        """Parsed margin mode of one relation: "adaptive" or ("fixed", m)."""
        raw = self.margin_mode
        if relation == "uu" and self.margin_mode_uu is not None:
            raw = self.margin_mode_uu
        if relation == "ii" and self.margin_mode_ii is not None:
            raw = self.margin_mode_ii
        return parse_margin_mode(raw)

    def validate(self):
        if self.h < 1 or self.hidden < 1:
            raise ValueError("h and hidden must be >= 1")
        if self.alpha <= 0 or self.lam < 0:
            raise ValueError("alpha must be > 0 and lambda >= 0")
        if self.batch_size < 1 or self.neg_samples < 1:
            raise ValueError("batch_size and neg_samples must be >= 1")
        if self.pool_size < self.neg_samples:
            raise ValueError("pool_size must be >= neg_samples")
        if self.refresh_period < 1 or self.epochs < 0 or self.eval_every < 1:
            raise ValueError("bad epoch bookkeeping values")
        if not 0.0 < self.sim_threshold <= 1.0:
            raise ValueError("sim_threshold must lie in (0, 1]")
        if not self.ks or min(self.ks) < 1:
            raise ValueError(f"ks: expected cut-offs >= 1, got {self.ks!r}")
        if self.distance_kind not in [k.value for k in DistanceKind]:
            raise ValueError(f"unknown distance_kind {self.distance_kind!r}")
        if self.indicator_mode not in INDICATOR_MODES:
            raise ValueError(f"unknown indicator_mode {self.indicator_mode!r}")
        if self.outer_batch not in OUTER_BATCHES:
            raise ValueError(f"unknown outer_batch {self.outer_batch!r}")
        if "ui" not in self.relations:
            raise ValueError("relations must contain 'ui'")
        for rel in self.relations:
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            self.margin_mode_for(rel)
        if self.eps_fd <= 0:
            raise ValueError("eps_fd must be > 0")
        return self


def parse_margin_mode(raw):
    if raw == "adaptive":
        return "adaptive"
    if raw == "fixed":
        return ("fixed", 1.0)
    if raw.startswith("fixed:"):
        m = float(raw.split(":", 1)[1])
        if m < 0:
            raise ValueError("fixed margin must be >= 0")
        return ("fixed", m)
    raise ValueError(f"unknown margin mode {raw!r}")


# Keys that older config files and checkpoints may carry, with the one value a
# config file may still give each: today's behaviour, so no run changes
# silently. ``deterministic`` (None) takes any value; it chose a pool-refresh
# path, and pools are now always refreshed synchronously.
RETIRED_KEYS = {"deterministic": None, "early_stop_patience": 0, "optimizer": "adam",
                "margin_grad_to_theta": False, "mu_std": MU_STD, "sigma0": SIGMA0,
                "sigma_jitter": SIGMA_JITTER}

_BOOL_WORDS = {"true": True, "on": True, "yes": True, "1": True,
               "false": False, "off": False, "no": False, "0": False}


def _coerce(name, default, raw):
    raw = raw.strip()
    if isinstance(default, bool):
        if raw.lower() not in _BOOL_WORDS:
            raise ValueError(f"{name}: expected a boolean, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    if isinstance(default, (int, float)):
        try:
            return type(default)(raw)
        except ValueError:
            expected = "an integer" if isinstance(default, int) else "a number"
            raise ValueError(f"{name}: expected {expected}, got {raw!r}") from None
    if isinstance(default, tuple):  # items take the type of the default's items
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        return tuple(_coerce(name, default[0], p) for p in parts)
    return raw  # strings and optional strings


def load_config_file(path):
    """Parse a flat ``key = value`` file (# comments) into a raw dict.

    A key set twice is rejected; ``-`` and ``_`` in keys are the same.
    """
    raw, set_on = {}, {}
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            key = key.strip().replace("-", "_")
            if key in set_on:
                raise ValueError(f"{path}:{line_no}: {key!r} is already set on "
                                 f"line {set_on[key]}")
            raw[key], set_on[key] = value.strip(), line_no
    return raw


def make_config(file_values=None, **overrides):
    """RunConfig from optional file values plus keyword overrides (which win)."""
    defaults = RunConfig()
    values = {}
    known = {f.name: getattr(defaults, f.name) for f in fields(RunConfig)}
    for key, raw in (file_values or {}).items():
        key = key.replace("-", "_")
        if key in RETIRED_KEYS:
            _check_retired(key, raw)
            continue
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = _coerce(key, known[key], raw) if isinstance(raw, str) else raw
    cfg = replace(defaults, **values)
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    return cfg.validate()


def _check_retired(key, raw):
    kept = RETIRED_KEYS[key]
    try:
        ok = kept is None or _coerce(key, kept, str(raw)) == kept
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"retired config key {key!r}: only {kept} is accepted, "
                         f"got {raw!r}")


def config_strings(cfg):
    """Field name -> value as a config-file string, in field order; None is left out."""
    out = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if v is not None:
            out[f.name] = ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
    return out


def echo_lines(cfg):
    """Stable key=value lines, sorted by key, for artifact headers; None prints as None."""
    strings = config_strings(cfg)
    return [f"{name} = {strings.get(name)}" for name in sorted(f.name for f in fields(cfg))]
