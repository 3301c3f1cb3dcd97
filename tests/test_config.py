"""Configuration parsing, validation messages and overrides."""
import math
from pathlib import Path

import pytest

from cornerimpact import (
    ConfigError,
    SimConfig,
    asymptotic_report,
    load_config,
    parse_config,
)
from cornerimpact import cli, config, harness

VALID = """\
# corner passage, physical parameterisation
alpha = 2.0
theta_bar = 1.0471975511965976

mode = physical
k = 100.0          # stiffness
k_list = 100, 1000, 10000
n_grid = 500
out = run.csv
"""


def test_parse_valid_text():
    cfg = parse_config(VALID)
    assert cfg.alpha == 2.0
    assert cfg.theta_bar == pytest.approx(math.pi / 3.0, rel=1e-15)
    assert cfg.mode == "physical" and cfg.k == 100.0
    assert cfg.k_list == (100.0, 1000.0, 10000.0)
    assert cfg.n_grid == 500
    assert cfg.out == "run.csv"
    # Untouched keys keep their defaults.
    assert cfg.gamma1 == 1.2 and cfg.eps == "derive"


def test_defaults_validate():
    cfg = SimConfig().validated()
    assert cfg.mode == "physical" and cfg.k is None


@pytest.mark.parametrize("text,fragment", [
    ("alpha = 0.5", "alpha must exceed 1"),
    ("gamma1 = 1.5", "gamma1 must lie in (1, 4/3)"),
    ("theta_bar = 3.5", "theta_bar must lie in (0, pi)"),
    ("mode = quantum", "mode must be 'physical' or 'scaled'"),
    ("eps = 1.0", "eps must be 'derive' or a number in"),
    ("k = -1", "k must be positive"),
    ("eta = 1.5", "eta must lie in (0, 1)"),
    ("n_grid = 1", "n_grid must be at least 2"),
    ("s0 = 0.0", "s0 must be negative"),
    ("s0 = -inf", "s0 must be negative and finite"),
    ("dr0 = inf", "dr0 must be positive and finite"),
    ("ds0 = inf", "ds0 must be positive and finite"),
    ("zeta = 9.0", "zeta must lie in"),
    ("rtol = 1e-24", "rtol must be at least 2.22e-14"),
])
def test_constraint_messages(text, fragment):
    with pytest.raises(ConfigError, match=r".*" + fragment.replace(
            "(", r"\(").replace(")", r"\)").replace("/", "/")):
        parse_config(text)


def test_errors_name_the_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("alpha = 2.0\n\nalpha = 3.0\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("alpha = 2.0\nwavelength = 5\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("alpha two\n")
    with pytest.raises(ConfigError, match="line 2.*number"):
        parse_config("alpha = 2.0\nk = fast\n")
    with pytest.raises(ConfigError, match="line 1.*integer"):
        parse_config("n_grid = 2.5\n")
    with pytest.raises(ConfigError, match="line 1.*comma-separated"):
        parse_config("k_list = 1; 2; 3\n")
    # Validation failures point at the assignment that caused them.
    with pytest.raises(ConfigError, match="line 2.*alpha must exceed 1"):
        parse_config("theta_bar = 1.0\nalpha = 0.9\n")


@pytest.mark.parametrize("text,fragment", [
    ("alpha = 2.0\nk_list = 100, nan\n",
     "line 2: k_list: k must be positive and finite, got nan"),
    ("eta_list = 1e-2, 0\n",
     "line 1: eta_list: eta must lie in (0, 1), got 0.0"),
    # k and eta are checked by building their scaled parameters.
    ("alpha = 2.0\n\nk = 1e7\n", "line 3: eta = exp(-423.66) leaves double"),
    ("k = 1e-40\n", "line 1: the corner constant R0 = 0.0 is zero"),
    ("eta = 1e-100\n", "line 1: eta = exp(-230.26) leaves double"),
    ("k_list = ,\n", "line 1: k_list must not be empty"),
], ids=["k_list", "eta_list", "k_large", "k_tiny", "eta_tiny", "k_list_empty"])
def test_owner_rules_name_the_line(text, fragment):
    # The list entries and k = 1e7 used to fail with no line, or only
    # once a run reached them.
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert fragment in str(info.value)


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("\n# header\nalpha = 3.0   # trailing\n\n")
    assert cfg.alpha == 3.0


def test_scaled_mode_round_trip():
    cfg = parse_config("mode = scaled\neta = 0.001\neps = 0.1\n")
    assert cfg.mode == "scaled" and cfg.eta == 0.001
    assert cfg.eps == 0.1
    assert parse_config("eps = 0\n").eps == 0.0
    assert parse_config("eps = derive\n").eps == "derive"
    assert SimConfig().eps == "derive"


def test_eps_errors_name_the_line():
    with pytest.raises(ConfigError, match=r"line 2: eps must be 'derive' "
                                          r"or a number in \[0, 1\), "
                                          r"got 'maybe'"):
        parse_config("eta = 0.01\neps = maybe\n")
    with pytest.raises(ConfigError, match="line 3: eps must be"):
        parse_config("eta = 0.01\nmode = scaled\neps = 1.0\n")
    # The policy is a value of eps now; the old key is unknown.
    with pytest.raises(ConfigError, match="line 2: unknown key 'eps_policy'"):
        parse_config("eta = 0.01\neps_policy = fixed\n")
    with pytest.raises(ConfigError, match="eps must be"):
        SimConfig().override(eps="fixed")


def test_eps_zero_word_is_refused():
    # eps = 0 names the idealised limit; the word "zero" is refused, on
    # its config line.
    with pytest.raises(ConfigError, match=r"line 3: eps must be 'derive' "
                                          r"or a number in \[0, 1\), "
                                          r"got 'zero'"):
        parse_config("mode = scaled\neta = 0.01\neps = zero\n")


def test_eps_reaches_scaled_params(monkeypatch, tmp_path):
    # Both scale-free consumers hand config.eps to scaled_params_direct.
    seen = []

    def spy(module):
        real = module.scaled_params_direct

        def recording(eta, eps, *rest):
            seen.append(eps)
            return real(eta, eps, *rest)

        monkeypatch.setattr(module, "scaled_params_direct", recording)

    text = "eps = 0.5\neta = 0.01\nmode = scaled\n"
    cfg = parse_config(text)
    path = tmp_path / "scaled.cfg"
    path.write_text(text, encoding="utf-8")
    # The config builds the params of its own run; the report builds one
    # per eta of its sweep and none for the config's own eta.
    spy(config)
    spy(harness)
    assert cli.main(["phase-portrait", "--config", str(path),
                     "--grid-n", "2"]) == 0
    assert seen == [0.5]
    asymptotic_report(cfg, eta_list=(0.01,))
    assert seen == [0.5, 0.5]


def test_checked_when_built():
    cfg = SimConfig(mode="physical", k=100.0, theta_bar=1.0)
    assert cfg.damping.alpha == 2.0 and cfg.init.s0 == -1.0
    assert cfg.cone.theta_bar == 1.0
    assert cfg.params.eta == pytest.approx(0.26191219573938435, rel=1e-15)
    # The run a config names: the one of k and eta that is set, the mode's
    # when both are, else none.
    assert SimConfig(mode="scaled", k=100.0, eta=0.01).params.eta == 0.01
    assert SimConfig(mode="physical", k=100.0, eta=0.01).params.k == 100.0
    assert SimConfig(mode="scaled", k=100.0).params.k == 100.0
    assert SimConfig(mode="physical", eta=0.01).params.eta == 0.01
    assert SimConfig().params is None
    with pytest.raises(ConfigError, match="alpha must exceed 1"):
        SimConfig(alpha=0.5)


def test_sweep_defaults():
    # With neither a list nor a single value (the other cases run through
    # the CLI in test_cli.test_sweep_rule).
    assert SimConfig().sweep("k") == (100.0, 1000.0, 10000.0)
    assert SimConfig().sweep("eta") == (1e-2, 1e-3)


def test_override_revalidates():
    cfg = SimConfig()
    assert cfg.override(k=25.0).k == 25.0
    with pytest.raises(ConfigError):
        cfg.override(alpha=0.3)
    with pytest.raises(ConfigError):
        cfg.override(k_list=())
    # frozen: attribute assignment is rejected
    with pytest.raises(AttributeError):
        cfg.alpha = 3.0


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(VALID, encoding="utf-8")
    assert load_config(path) == parse_config(VALID)
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"alpha = 2\xff\xfe\n")
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(bad)


def test_identical_text_gives_identical_config():
    assert parse_config(VALID) == parse_config(VALID)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_example_parses():
    text = README.read_text(encoding="utf-8")
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block)
    assert (cfg.alpha, cfg.theta_bar, cfg.mode, cfg.k) == (
        2.0, 1.0471975511965976, "physical", 1e4)
    assert (cfg.rtol, cfg.atol) == (1e-10, 1e-12)
