"""Tests for config parsing, defaults and the command-line surface."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fronthaul_planner.cli import main
from fronthaul_planner.config import (SystemConfig, effective_config_lines,
                                      load_config, symmetric_beta)


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = load_config(str(path))
    assert cfg == SystemConfig()
    assert cfg.b_s_hz == 20e6
    assert cfg.rho_u_w == pytest.approx(0.1)
    assert cfg.f_mhz == 1900.0
    assert cfg.m == 100 and cfg.k == 10


def test_noise_power_derivation():
    cfg = SystemConfig()
    # k_B T0 B_s NF = 1.381e-23 * 290 * 2e7 * 10^0.9
    assert cfg.noise_power_w == pytest.approx(6.362410294e-13, rel=1e-9)


def test_config_overrides_and_unit_conversions(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("""
# comment line
f_ghz = 2.4
bandwidth_mhz = 10
rho_u_mw = 200
m = 25
eta = 0.25   # inline comment
""")
    cfg = load_config(str(path))
    assert cfg.f_mhz == pytest.approx(2400.0)
    assert cfg.b_s_hz == pytest.approx(10e6)
    assert cfg.rho_u_w == pytest.approx(0.2)
    assert cfg.m == 25 and cfg.eta == 0.25


def test_config_duplicate_key_last_wins(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("m = 10\nm = 30\n")
    assert load_config(str(path)).m == 30


def test_config_error_messages(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("eta = 1.5\n")
    with pytest.raises(ValueError, match="'eta'"):
        load_config(str(path))
    path.write_text("warp_factor = 9\n")
    with pytest.raises(ValueError, match="unknown config key 'warp_factor'"):
        load_config(str(path))
    path.write_text("m = many\n")
    with pytest.raises(ValueError, match="'m'"):
        load_config(str(path))
    path.write_text("just some words\n")
    with pytest.raises(ValueError, match="key = value"):
        load_config(str(path))
    with pytest.raises(FileNotFoundError):
        load_config(str(tmp_path / "missing.cfg"))


def test_config_sha_stable_and_sensitive():
    a, b = SystemConfig(), SystemConfig()
    assert a.sha() == b.sha()
    c = SystemConfig(m=99)
    assert a.sha() != c.sha()


def test_effective_config_lines_cover_all_keys():
    lines = effective_config_lines(SystemConfig())
    keys = {l.split(" = ")[0] for l in lines}
    assert {"f_ghz", "bandwidth_mhz", "rho_u_mw", "eta", "m", "k",
            "beta_policy", "beta_scalar"} <= keys


def test_symmetric_beta_policies():
    fixed = symmetric_beta(SystemConfig(), seed=0)
    assert fixed == SystemConfig().beta_scalar
    cfg = SystemConfig(beta_policy="geometric_mean", m=20, k=4)
    gm1 = symmetric_beta(cfg, seed=0)
    gm2 = symmetric_beta(cfg, seed=0)
    gm3 = symmetric_beta(cfg, seed=1)
    assert gm1 == gm2
    assert gm1 != gm3
    assert gm1 > 0


def test_cli_optimize_prints_summary(capsys):
    rc = main(["optimize", "--config", "default", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "# effective config" in out
    assert "n_star" in out and "m_of_star" in out and "ee_star" in out


def test_cli_grid_deterministic(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("m = 20\nk = 4\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    stdouts = []
    for out in (out_a, out_b):
        rc = main(["grid", "--config", str(cfg), "--seed", "3",
                   "--n", "1:5:0.5", "--out", str(out)])
        assert rc == 0
        stdouts.append(capsys.readouterr().out.replace(str(out), "<out>"))
    assert (out_a / "grid.csv").read_bytes() == (out_b / "grid.csv").read_bytes()
    # stdout identical up to the differing output directory
    assert stdouts[0] == stdouts[1]
    assert "n_star" in stdouts[0]


def test_cli_bad_range_is_usage_error(tmp_path, capsys):
    # malformed text, lo > hi, a zero and a negative step
    for text in ("nonsense", "5:1:0.1", "1:2:0", "1:2:-0.1"):
        with pytest.raises(SystemExit) as exc:
            main(["grid", "--n", text, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert text in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_cli_missing_config_is_runtime_error(capsys):
    rc = main(["optimize", "--config", "/nonexistent/path.cfg"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_validate_small_run(tmp_path, capsys):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("m = 20\nk = 4\n")
    rc = main(["validate", "--config", str(cfg), "--trials", "30000",
               "--seed", "7", "--m", "10", "--k", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max relative term error" in out
    assert "PASS" in out


def test_cli_outdir_env(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("m = 15\nk = 3\n")
    outdir = tmp_path / "envout"
    monkeypatch.setenv("FRONTHAUL_PLANNER_OUTDIR", str(outdir))
    rc = main(["tradeoff", "--config", str(cfg), "--seed", "1"])
    capsys.readouterr()
    assert rc == 0
    assert (outdir / "ee_vs_sumrate.csv").exists()


@pytest.mark.parametrize("argv", [
    ["cdf", "--drops", "0"],
    ["cdf", "--drops", "-3"],
    ["validate", "--trials", "0"],
    ["validate", "--m", "0"],
    ["validate", "--k", "0"],
    ["validate", "--k", "four"],
])
def test_cli_nonpositive_count_is_usage_error(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# The unit conversions the config keys promise, written out independently of
# the unit table: file key -> (field, load, echo).
UNIT_KEYS = {
    "f_ghz": ("f_mhz", lambda v: float(v) * 1000.0, lambda x: x / 1000.0),
    "bandwidth_mhz": ("b_s_hz", lambda v: float(v) * 1e6, lambda x: x / 1e6),
    "rho_u_mw": ("rho_u_w", lambda v: float(v) / 1000.0, lambda x: x * 1000.0),
}
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def load_text(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cfg") / "c.cfg"
    path.write_text(text)
    return load_config(str(path))


@SETTINGS
@given(st.sampled_from(sorted(UNIT_KEYS)), st.floats(1e-9, 1e9))
def test_unit_keys_convert_bit_for_bit(tmp_path_factory, key, value):
    field, load, echo = UNIT_KEYS[key]
    cfg = load_text(tmp_path_factory, f"{key} = {value}\n")
    assert getattr(cfg, field) == load(str(value))
    assert f"{key} = {echo(getattr(cfg, field))}" in effective_config_lines(cfg)


@SETTINGS
@given(st.fixed_dictionaries({
    "f_ghz": st.floats(1e-3, 1e3),
    "bandwidth_mhz": st.floats(1e-3, 1e4),
    "rho_u_mw": st.floats(1e-3, 1e5),
    "eta": st.floats(0.0, 1.0),
    "m": st.integers(1, 500),
    "beta_policy": st.sampled_from(["fixed", "geometric_mean"]),
    "beta_scalar": st.floats(1e-20, 1e-6),
}))
def test_effective_config_lines_reload_to_the_same_config(tmp_path_factory,
                                                          values):
    text = "".join(f"{key} = {v}\n" for key, v in values.items())
    cfg = load_text(tmp_path_factory, text)
    echoed = load_text(tmp_path_factory,
                       "\n".join(effective_config_lines(cfg)) + "\n")
    assert echoed == cfg
    assert echoed.sha() == cfg.sha()
