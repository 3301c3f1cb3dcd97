"""Run configuration: `key = value` text files and their validation.

The format is deliberately flat UTF-8 text, one assignment per line;
blank lines and `#` comments are ignored.  Unknown and duplicate keys are
rejected, and every parse or validation error names the offending line.
A ``SimConfig`` is checked when it is built.  A key that a library
function takes is checked by that function's own rule
(``characteristic_roots`` for alpha, ``scaled_params_from_physical`` for
k, ``check_rtol`` for rtol, ...), and the objects those rules build are
kept on the config for the run; only the rules of ``mode``, ``T``,
``n_grid`` and the non-empty lists are stated here.

Example::

    # corner passage, physical parameterisation
    alpha = 2.0
    theta_bar = 1.0471975511965976
    mode = physical
    k = 100.0
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .asymptotics import check_gamma1, check_zeta
from .corner_phase import DEFAULT_ATOL, DEFAULT_RTOL, check_atol, check_rtol
from .errors import ConfigError, InvalidInput
from .geometry import ConeGeometry
from .linear_phase import DampingParams, InitialData, characteristic_roots
from .scaling import (
    ScaledParams,
    check_eps,
    check_eta,
    check_k,
    scaled_params_direct,
    scaled_params_from_physical,
)

__all__ = ["SimConfig", "parse_config", "load_config"]

_FLOAT_KEYS = {
    "alpha", "theta_bar", "s0", "dr0", "ds0", "k", "eta", "gamma1", "zeta",
    "rtol", "atol", "T",
}
_LIST_KEYS = {"k_list", "eta_list"}
# What a sweep runs when neither its list nor its single value is set.
_DEFAULT_SWEEPS = {"k": (100.0, 1000.0, 10000.0), "eta": (1e-2, 1e-3)}
# The rule each value of a sweep is checked by.
_SWEEP_RULES = {"k": check_k, "eta": check_eta}


@dataclass(frozen=True)
class SimConfig:
    """Run parameters shared by all subcommands, checked when built.

    The check keeps what it builds: ``damping``, ``init``, ``cone`` and
    ``params``, the scaled parameters of the one run the config names (of
    k or eta, whichever is set; of the mode's when both are; None if
    neither is).
    """

    alpha: float = 2.0
    theta_bar: float = math.pi / 3.0
    s0: float = -1.0
    dr0: float = 1.0
    ds0: float = 1.0
    mode: str = "physical"          # "physical" | "scaled"
    k: float | None = None
    eta: float | None = None
    eps: float | str = "derive"     # "derive" | number in [0, 1)
    gamma1: float = 1.2
    zeta: float | None = None       # default from asymptotic_times
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    T: float | None = None          # physical horizon, default 2 t0
    n_grid: int = 2000
    out: str | None = None
    # A sweep runs k_list, else (k,), else _DEFAULT_SWEEPS["k"]; eta
    # likewise (``sweep``).
    k_list: tuple[float, ...] | None = None
    eta_list: tuple[float, ...] | None = None
    _line_of: dict = field(default_factory=dict, repr=False, compare=False)
    damping: DampingParams = field(init=False, repr=False, compare=False)
    init: InitialData = field(init=False, repr=False, compare=False)
    cone: ConeGeometry = field(init=False, repr=False, compare=False)
    params: ScaledParams | None = field(init=False, repr=False,
                                        compare=False)

    def __post_init__(self) -> None:
        self.validated()

    def sweep(self, key: str, values=None) -> tuple[float, ...]:
        """The values a sweep over ``key`` ("k" or "eta") runs: ``values``
        when given, each checked by the key's rule alone (the config's own
        k or eta is not rebuilt), else the config's list or value."""
        if values is not None:
            values = tuple(map(_SWEEP_RULES[key], values))
            if not values:
                raise InvalidInput(f"{key}_list must not be empty")
            return values
        single = getattr(self, key)
        return getattr(self, f"{key}_list") or (
            (single,) if single is not None else _DEFAULT_SWEEPS[key])

    def validated(self) -> "SimConfig":
        """Check every key and keep what the checks build; raise
        ConfigError naming the key's line otherwise.

        A key is checked by the rule of the function that consumes it, and
        that rule's ``InvalidInput`` becomes a ``ConfigError`` on the key's
        line.  k and eta are checked by building their scaled parameters,
        so the e^-175 floor and the corner constants fail here too.
        """

        def fail(key: str, message) -> None:
            line = self._line_of.get(key)
            where = f"line {line}: " if line else ""
            raise ConfigError(f"{where}{message}") from None

        def check(key: str, rule, *args, **kwargs):
            try:
                return rule(*args, **kwargs)
            except InvalidInput as exc:
                fail(key, f"{key}: {exc}" if key in _LIST_KEYS else exc)

        damping = check("alpha", characteristic_roots, self.alpha)
        cone = check("theta_bar", ConeGeometry, self.theta_bar)
        # One InitialData per key, so that a failure names the right line.
        check("s0", InitialData, s0=self.s0)
        check("dr0", InitialData, dr0=self.dr0)
        init = check("ds0", InitialData, self.s0, self.dr0, self.ds0)
        if self.mode not in ("physical", "scaled"):
            fail("mode",
                 f"mode must be 'physical' or 'scaled', got {self.mode!r}")
        check("eps", check_eps, self.eps)
        # k/eta may stay unset here: sweep commands supply them per run and
        # single-run consumers check completeness for their mode.
        k_params = eta_params = None
        if self.k is not None:
            k_params = check("k", scaled_params_from_physical, init, damping,
                             self.k)
        if self.eta is not None:
            eta_params = check("eta", scaled_params_direct, self.eta,
                               self.eps, init, damping)
        # The mode picks between k and eta only when both are set.
        params = (k_params or eta_params if self.mode == "physical"
                  else eta_params or k_params)
        check("gamma1", check_gamma1, self.gamma1)
        if self.zeta is not None:
            check("zeta", check_zeta, self.zeta, damping)
        check("rtol", check_rtol, self.rtol)
        check("atol", check_atol, self.atol)
        if self.T is not None and not 0.0 < self.T < math.inf:
            fail("T", f"T must be positive and finite, got {self.T!r}")
        if self.n_grid < 2:
            fail("n_grid", f"n_grid must be at least 2, got {self.n_grid!r}")
        for name, rule in _SWEEP_RULES.items():
            key = f"{name}_list"
            vals = getattr(self, key)
            if vals is not None and not vals:
                fail(key, f"{key} must not be empty")
            for val in vals or ():
                check(key, rule, val)
        for name, value in (("damping", damping), ("init", init),
                            ("cone", cone), ("params", params)):
            object.__setattr__(self, name, value)
        return self

    def override(self, **kwargs) -> "SimConfig":
        """Replace fields (CLI overrides); the new config is checked when
        built, and a replaced field no longer names its config line."""
        line_of = {k: v for k, v in self._line_of.items() if k not in kwargs}
        return replace(self, **kwargs, _line_of=line_of)


def _number_or_word(raw: str):
    """eps is a number or a word; ``check_eps`` decides which words."""
    try:
        return float(raw)
    except ValueError:
        return raw


# The value of each scalar key from its text; ValueError is a wrong type.
_PARSERS = {**dict.fromkeys(_FLOAT_KEYS, float), "n_grid": int,
            "eps": _number_or_word, "mode": str, "out": str}
_KNOWN = set(_PARSERS) | _LIST_KEYS
assert _KNOWN <= {f.name for f in fields(SimConfig)}


def parse_floats(raw: str, what: str) -> tuple[float, ...]:
    """The numbers of a non-empty comma-separated list (empty items are
    skipped), for list keys and CLI flags; ``what`` opens each message."""
    try:
        vals = tuple(float(p) for p in raw.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"{what} expects comma-separated numbers, "
                          f"got {raw!r}") from None
    if not vals:
        raise ConfigError(f"{what} must not be empty, got {raw!r}")
    return vals


def parse_config(text: str) -> SimConfig:
    """Parse configuration text into a (checked) SimConfig."""
    values: dict = {}
    line_of: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key in _LIST_KEYS:
            values[key] = parse_floats(raw, f"line {lineno}: {key}")
        else:
            try:
                values[key] = _PARSERS[key](raw)
            except ValueError:
                what = "an integer" if key == "n_grid" else "a number"
                raise ConfigError(f"line {lineno}: {key} expects {what}, "
                                  f"got {raw!r}") from None
        line_of[key] = lineno
    return SimConfig(**values, _line_of=line_of)


def load_config(path) -> SimConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not valid UTF-8: {exc}") from None
    except OSError as exc:
        raise ConfigError(
            f"cannot read config {path}: {exc.strerror or exc}") from None
    return parse_config(text)
