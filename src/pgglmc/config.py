"""Experiment configuration: a single strict JSON document.

Unknown keys are errors, not warnings — a silently ignored typo in ``mu`` or
``eta`` is the costliest failure mode this tool has.  Every numeric range is
validated before any computation starts.  The ranges come from the domain
types: each number goes through the check its type uses (``_check_count``,
``_check_positive``, ``_check_p``, in the type's own words), and the error
names the number's path, as in ``smoothing.n: batch size must be an integer
>= 1, got 0``.

Schema (see README for the full description)::

    {
      "potential": {"name": str, "d": int, "lambda": float, "params": {...}},
      "smoothing": {"mu": float, "n": int, "p": float},
      "lmc": {"eta": float | "auto", "steps": int, "chains": int,
              "init": {"kind": "point", "value": ...} |
                      {"kind": "gaussian", "mean": ..., "scale": ...},
              "seed": int},
      "report": {"thinning": int | "auto", "resamples": int,
                 "csv": str, "json": str}
    }

"eta": "auto" resolves to 0.9 * (2 / (M + 2 lam)) once the potential and
smoothing parameters are known.  Every number must be finite.  The init is
``InitSpec(center=value or mean, scale)``, scale 0 at a point and 1 by default
for a Gaussian; left-out ``lmc.init`` and ``report`` keys take the defaults of
``InitSpec()`` and ``ReportConfig()``.  The report file names must be
strings here; the rules for where they may point belong to ``cli``, which
writes them.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, ParameterError
from .lmc import _COUNTS, InitSpec, LmcConfig
from .pgg import _check_count, _check_p, _check_positive
from .potentials import RegularizedPotential, _check_mu, get_potential, max_step_size, regularize
from .smoothing import SmoothingConfig

__all__ = ["ExperimentConfig", "ReportConfig"]

_FLOAT_MAX = sys.float_info.max


def _require_mapping(doc, path):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {type(doc).__name__}")


def _check_keys(doc, path, required, optional=()):
    _require_mapping(doc, path)
    allowed = set(required) | set(optional)
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {missing}")


def _finite(val) -> bool:
    """Whether val is a JSON number within the float range: JSON reads 1e309 as
    inf, and an integer past the float range is no finite float either."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and -_FLOAT_MAX <= val <= _FLOAT_MAX)


def _number(doc, path, key, check=float, *words):
    """doc[key], a finite JSON number, as ``check(value, *words)``, the domain type's own
    check, returns it; a ParameterError from check becomes a ConfigError naming path.key."""
    val = doc[key]
    if not _finite(val):
        raise ConfigError(f"{path}.{key}: expected a finite number, got {val!r}")
    try:
        return check(val, *words)
    except ParameterError as exc:
        raise ConfigError(f"{path}.{key}: {exc}") from None


def _point(doc, path, key, d):
    """A finite number or a list of d finite numbers, returned as given (the echo keeps it)."""
    val = doc[key]
    items = val if isinstance(val, list) else [val]
    if (isinstance(val, list) and len(val) != d) or not all(map(_finite, items)):
        raise ConfigError(f"{path}.{key}: expected a finite number or a list of {d} "
                          f"finite numbers, got {val!r}")
    return val


@dataclass(frozen=True)
class ReportConfig:
    thinning: int | str = "auto"
    resamples: int = 5
    csv: str = "samples.csv"
    json_path: str = "report.json"


@dataclass(frozen=True)
class ExperimentConfig:
    potential_name: str
    d: int
    lam: float
    potential_params: dict
    mu: float
    n: int
    p: float
    eta: float | str
    steps: int
    chains: int
    init: InitSpec
    seed: int
    report: ReportConfig

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        _check_keys(doc, "config", required=("potential", "smoothing", "lmc"),
                    optional=("report",))

        pot = doc["potential"]
        _check_keys(pot, "potential", required=("name", "d", "lambda"), optional=("params",))
        if not isinstance(pot["name"], str):
            raise ConfigError(f"potential.name: expected a string, got {pot['name']!r}")
        d = _number(pot, "potential", "d", _check_count, "d")
        lam = _number(pot, "potential", "lambda", _check_positive, "regularization weight")
        params = pot.get("params", {})
        _require_mapping(params, "potential.params")
        for key in params:
            _number(params, "potential.params", key)

        sm = doc["smoothing"]
        _check_keys(sm, "smoothing", required=("mu", "n", "p"))
        mu = _number(sm, "smoothing", "mu", _check_mu)
        n = _number(sm, "smoothing", "n", _check_count, "batch size")
        p = _number(sm, "smoothing", "p", _check_p)

        lmc = doc["lmc"]
        _check_keys(lmc, "lmc", required=("eta", "steps", "chains", "seed"), optional=("init",))
        eta = lmc["eta"]
        if eta != "auto":
            eta = _number(lmc, "lmc", "eta", _check_positive, "step size")
        counts = {name: _number(lmc, "lmc", name, _check_count, what, low)
                  for name, what, low in _COUNTS}
        init = cls._parse_init(lmc["init"], d) if "init" in lmc else InitSpec()

        rep = doc.get("report", {})
        _check_keys(rep, "report", required=(), optional=("thinning", "resamples", "csv", "json"))
        default = ReportConfig()
        thinning = rep.get("thinning", default.thinning)
        if thinning != "auto":
            thinning = _number(rep, "report", "thinning", _check_count, "thinning")
        resamples = (_number(rep, "report", "resamples", _check_count, "resamples")
                     if "resamples" in rep else default.resamples)
        names = {"csv": rep.get("csv", default.csv), "json": rep.get("json", default.json_path)}
        for key, name in names.items():
            if not isinstance(name, str):
                raise ConfigError(f"report.{key}: expected a string, got {name!r}")
        report = ReportConfig(thinning=thinning, resamples=resamples,
                              csv=names["csv"], json_path=names["json"])

        return cls(potential_name=pot["name"], d=d, lam=lam, potential_params=dict(params),
                   mu=mu, n=n, p=p, eta=eta, init=init, report=report, **counts)

    @staticmethod
    def _parse_init(doc, d: int) -> InitSpec:
        _require_mapping(doc, "lmc.init")
        kind = doc.get("kind")
        if kind not in ("point", "gaussian"):
            raise ConfigError(f"lmc.init.kind: expected 'point' or 'gaussian', got {kind!r}")
        _check_keys(doc, "lmc.init", required=("kind",),
                    optional=("value",) if kind == "point" else ("mean", "scale"))
        fields = {}  # keys left out keep InitSpec's defaults
        center = "value" if kind == "point" else "mean"
        if center in doc:
            fields["center"] = _point(doc, "lmc.init", center, d)
        if kind == "gaussian":
            fields["scale"] = (_number(doc, "lmc.init", "scale", _check_positive, "init scale")
                               if "scale" in doc else 1.0)
        return InitSpec(**fields)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                              f"{exc.msg}") from exc
        return cls.from_dict(doc)

    # -- builders -----------------------------------------------------------

    def build_potential(self) -> RegularizedPotential:
        base = get_potential(self.potential_name, self.d, **self.potential_params)
        return regularize(base, self.lam)

    def build_smoothing(self) -> SmoothingConfig:
        return SmoothingConfig(mu=self.mu, n=self.n, p=self.p)

    def resolve_eta(self, pot: RegularizedPotential) -> float:
        if self.eta == "auto":
            return 0.9 * max_step_size(pot, self.mu, self.p)
        return float(self.eta)

    def build_lmc(self, pot: RegularizedPotential, seed_override: int | None = None) -> LmcConfig:
        return LmcConfig(eta=self.resolve_eta(pot), steps=self.steps, chains=self.chains,
                         init=self.init, seed=self.seed if seed_override is None else seed_override)

    def resolve_thinning(self) -> int:
        """The thinning as an int; "auto" keeps at most ~1000 states per chain."""
        if self.report.thinning == "auto":
            return max(1, self.steps // 1000)
        return int(self.report.thinning)

    def echo(self) -> dict:
        """Lossless round-trip of every input parameter, in schema shape."""
        if self.init.scale:
            init = {"kind": "gaussian", "mean": self.init.center, "scale": self.init.scale}
        else:
            init = {"kind": "point", "value": self.init.center}
        return {
            "potential": {"name": self.potential_name, "d": self.d, "lambda": self.lam,
                          "params": dict(self.potential_params)},
            "smoothing": {"mu": self.mu, "n": self.n, "p": self.p},
            "lmc": {"eta": self.eta, "steps": self.steps, "chains": self.chains,
                    "init": init, "seed": self.seed},
            "report": {"thinning": self.report.thinning, "resamples": self.report.resamples,
                       "csv": self.report.csv, "json": self.report.json_path},
        }
