"""Run configuration: `key = value` text files and their validation.

The format is deliberately flat UTF-8 text, one assignment per line;
blank lines and `#` comments are ignored.  Unknown and duplicate keys are
rejected, and every parse or validation error names the offending line.

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

from .errors import ConfigError
from .linear_phase import characteristic_roots

__all__ = ["SimConfig", "parse_config", "load_config"]

_FLOAT_KEYS = {
    "alpha", "theta_bar", "s0", "dr0", "ds0", "k", "eta", "eps", "gamma1",
    "zeta", "rtol", "atol", "T",
}
_STR_KEYS = {"mode", "eps_policy", "out"}
_INT_KEYS = {"n_grid"}
_LIST_KEYS = {"k_list", "eta_list"}


@dataclass(frozen=True)
class SimConfig:
    """Validated run parameters shared by all subcommands."""

    alpha: float = 2.0
    theta_bar: float = math.pi / 3.0
    s0: float = -1.0
    dr0: float = 1.0
    ds0: float = 1.0
    mode: str = "physical"          # "physical" | "scaled"
    k: float | None = None
    eta: float | None = None
    eps_policy: str = "derive"      # "derive" | "zero" | "fixed"
    eps: float | None = None
    gamma1: float = 1.2
    zeta: float | None = None       # default 0.5/|xi1| at use sites
    rtol: float = 1e-10
    atol: float = 1e-12
    T: float | None = None          # physical horizon, default 2 t0
    n_grid: int = 2000
    out: str | None = None
    k_list: tuple[float, ...] = (100.0, 1000.0, 10000.0)
    eta_list: tuple[float, ...] = (1e-2, 1e-3)
    _line_of: dict = field(default_factory=dict, repr=False, compare=False)

    def validated(self) -> "SimConfig":
        """Check all cross-field invariants; raise ConfigError otherwise."""

        def fail(key: str, message: str):
            line = self._line_of.get(key)
            where = f"line {line}: " if line else ""
            raise ConfigError(f"{where}{message}")

        if not (math.isfinite(self.alpha) and self.alpha > 1.0):
            fail("alpha", f"alpha must exceed 1, got {self.alpha!r}")
        if not (0.0 < self.theta_bar < math.pi):
            fail("theta_bar",
                 f"theta_bar must lie in (0, pi), got {self.theta_bar!r}")
        if not self.s0 < 0.0:
            fail("s0", f"s0 must be negative, got {self.s0!r}")
        if not self.dr0 > 0.0:
            fail("dr0", f"dr0 must be positive, got {self.dr0!r}")
        if not self.ds0 > 0.0:
            fail("ds0", f"ds0 must be positive, got {self.ds0!r}")
        if self.mode not in ("physical", "scaled"):
            fail("mode",
                 f"mode must be 'physical' or 'scaled', got {self.mode!r}")
        # k/eta may stay unset here: sweep commands supply them per run and
        # single-run consumers check completeness for their mode.
        if self.k is not None and not 0.0 < self.k < math.inf:
            fail("k", f"k must be positive and finite, got {self.k!r}")
        if self.eta is not None and not 0.0 < self.eta < 1.0:
            fail("eta", f"eta must lie in (0, 1), got {self.eta!r}")
        if self.eps_policy not in ("derive", "zero", "fixed"):
            fail("eps_policy",
                 "eps_policy must be 'derive', 'zero' or 'fixed', "
                 f"got {self.eps_policy!r}")
        if self.eps_policy == "fixed":
            if self.eps is None:
                fail("eps_policy", "eps_policy 'fixed' requires eps")
            if not 0.0 <= self.eps < 1.0:
                fail("eps", f"eps must lie in [0, 1), got {self.eps!r}")
        if not 1.0 < self.gamma1 < 4.0 / 3.0:
            fail("gamma1",
                 f"gamma1 must lie in (1, 4/3), got {self.gamma1!r}")
        if self.zeta is not None:
            xi1 = characteristic_roots(self.alpha).xi1
            if not 0.0 < self.zeta < 1.0 / abs(xi1):
                fail("zeta",
                     f"zeta must lie in (0, 1/|xi1|={1.0 / abs(xi1):g}), "
                     f"got {self.zeta!r}")
        for key in ("rtol", "atol"):
            val = getattr(self, key)
            if not 0.0 < val < math.inf:
                fail(key, f"{key} must be positive and finite, got {val!r}")
        if self.T is not None and not 0.0 < self.T < math.inf:
            fail("T", f"T must be positive and finite, got {self.T!r}")
        if self.n_grid < 2:
            fail("n_grid", f"n_grid must be at least 2, got {self.n_grid!r}")
        for key in ("k_list", "eta_list"):
            vals = getattr(self, key)
            if not vals:
                fail(key, f"{key} must not be empty")
        return self

    def override(self, **kwargs) -> "SimConfig":
        """Replace fields (CLI overrides) and re-validate."""
        return replace(self, **kwargs).validated()

    @property
    def eps_spec(self) -> float | str:
        """eps argument for scaled_params_direct per the configured policy."""
        if self.eps_policy == "fixed":
            return float(self.eps)
        return self.eps_policy


_KNOWN = _FLOAT_KEYS | _STR_KEYS | _INT_KEYS | _LIST_KEYS
_FIELD_NAMES = {f.name for f in fields(SimConfig)}
assert _KNOWN <= _FIELD_NAMES


def _parse_float(key: str, raw: str, lineno: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: {key} expects a number, got {raw!r}") from None


def parse_config(text: str) -> SimConfig:
    """Parse and validate configuration text."""
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
        if key in _FLOAT_KEYS:
            values[key] = _parse_float(key, raw, lineno)
        elif key in _INT_KEYS:
            try:
                values[key] = int(raw)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: {key} expects an integer, got {raw!r}"
                ) from None
        elif key in _LIST_KEYS:
            try:
                values[key] = tuple(float(p) for p in raw.split(",") if p.strip())
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: {key} expects comma-separated numbers, "
                    f"got {raw!r}") from None
        else:
            values[key] = raw
        line_of[key] = lineno
    cfg = SimConfig(**values, _line_of=line_of)
    return cfg.validated()


def load_config(path) -> SimConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not valid UTF-8: {exc}") from None
    return parse_config(text)
