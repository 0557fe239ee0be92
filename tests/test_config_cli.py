"""Tests for config parsing, defaults and the command-line surface."""

import itertools
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fronthaul_planner.cli import build_parser, main
from fronthaul_planner.config import (_KEYS, SystemConfig, draw_fading,
                                      effective_config_lines, fading_blocks,
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


@pytest.mark.parametrize("fields", [{"nf_db": 1e10}, {"k_boltzmann": 1e300},
                                    {"k_boltzmann": 1e-300, "t0_kelvin": 1e-30}])
def test_noise_power_out_of_range_is_rejected(fields):
    # an overflowing noise figure, an infinite and an underflowing product
    with pytest.raises(ValueError, match="'k_boltzmann', 't0_kelvin', 'b_s_hz' "
                       "and 'nf_db' must give a positive, finite noise power"):
        SystemConfig(**fields)


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", sorted(k for k, (_, typ, *_) in _KEYS.items()
                                       if typ is float))
def test_config_rejects_non_finite_values(key, value, tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(ValueError, match=f"config value '{key}' must"):
        load_config(str(path))


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


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
def test_one_drop_is_drop_zero_of_the_drop_stream(seed):
    # the one drop of validate and the geometric_mean policy is the first
    # drop cdf writes, bit for bit
    cfg = SystemConfig(m=20, k=4)
    (ap, ue), fading = draw_fading(cfg, seed)
    (aps, ues), block = fading_blocks(cfg, 3, seed)(0, 3)
    assert fading.beta.shape == (20, 4)
    for one, stacked in ((ap, aps), (ue, ues), (fading.beta, block.beta)):
        assert np.array_equal(one, stacked[0])


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
def test_geometric_mean_gain_is_that_of_drop_zero(seed):
    cfg = SystemConfig(beta_policy="geometric_mean", m=20, k=4)
    _, block = fading_blocks(cfg, 1, seed)(0, 1)
    assert symmetric_beta(cfg, seed) == float(np.exp(np.mean(np.log(block.beta[0]))))


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
    # malformed text, lo > hi, a zero and a negative step, an infinite
    # bound and step, and a bound that overflows to infinity
    for text in ("nonsense", "5:1:0.1", "1:2:0", "1:2:-0.1",
                 "1:inf:1", "1:10:inf", "1:1e400:1"):
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


def test_cli_non_finite_config_is_runtime_error(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("c_fso = nan\n")
    rc = main(["optimize", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: config value 'c_fso'")
    assert "ee_star" not in captured.out


@pytest.mark.parametrize("command", ["cdf", "optimize"])
@pytest.mark.parametrize("text, keys", [
    ("mu_fso = 0.05\n", ("'mu_fso'", "'mu_of'")),
    ("p_fh_fso_w_per_gbps = 0.1\n",
     ("'p_fh_fso_w_per_gbps'", "'p_fh_of_w_per_gbps'")),
])
def test_cli_rejects_link_ordering_for_every_command(command, text, keys,
                                                     tmp_path, capsys):
    # FSO links deploy cheaper and burn more power per bit than fiber
    cfg = tmp_path / "order.cfg"
    cfg.write_text(text)
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: config value")
    assert all(key in err for key in keys)
    assert not (tmp_path / "out").exists()


def test_cli_tradeoff_rejects_power_below_the_sweep(tmp_path, capsys):
    # at 1 mW the sweep would start and end at the same power
    cfg = tmp_path / "low.cfg"
    out = tmp_path / "out"
    for value in ("0.5", "1"):
        cfg.write_text(f"rho_u_mw = {value}\n")
        rc = main(["tradeoff", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: config value 'rho_u_mw' must exceed 1 mW "
            "for the power sweep\n")
        assert not (out / "ee_vs_sumrate.csv").exists()
    cfg.write_text("rho_u_mw = 2\n")
    assert main(["tradeoff", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "ee_vs_sumrate.csv").exists()


# Every value in range, but the all-FSO network draws no power and costs
# nothing, so its energy efficiency would be 0/0.
ZERO_POWER = """eta = 0
p_circuit_w = 0
p_fronthaul_const_w = 0
p_fh_fso_w_per_gbps = 0
p_fh_of_w_per_gbps = 0
mu_fso = 0
"""


@pytest.mark.parametrize("command", ["optimize", "grid"])
def test_cli_rejects_a_network_without_power(command, tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(ZERO_POWER)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: power plus cost must be positive\n")
    assert not (out / "grid.csv").exists()


@pytest.mark.parametrize("c_fso, argv", [
    ("2000", ["optimize"]), ("2000", ["grid"]), ("2000", ["surface"]),
    ("2000", ["tradeoff"]), ("200", ["cdf", "--drops", "2"]),
])
def test_cli_huge_fso_capacity_gives_finite_output(c_fso, argv, tmp_path,
                                                   capsys):
    # 2^c_fso overflows to inf: the distortion takes its limit 0, with no
    # OverflowError and no overflow warning
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"c_fso = {c_fso}\n")
    out = tmp_path / "out"
    rc = main(argv + ["--config", str(cfg), "--out", str(out)])
    texts = [capsys.readouterr().out] + [p.read_text() for p in out.glob("*.csv")]
    assert rc == 0
    assert len(texts) == 1 + (argv[0] != "optimize")
    assert not [t for t in texts if re.search(r"\b(nan|inf)\b", t, re.IGNORECASE)]


COMMANDS = ["optimize", "grid", "surface", "cdf", "tradeoff", "validate"]


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_rejects_fso_capacity_below_resolution(command, tmp_path, capsys):
    # 2^c_fso - 1 rounds to 0: the config key named, not nan or inf output
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("c_fso = 1e-17\n")
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: config value 'c_fso' is too small: 2^c_fso - 1 rounds to 0\n")
    assert not out.exists()


@pytest.mark.parametrize("command, text", [
    ("cdf", ""), ("validate", ""),
    ("optimize", "beta_policy = geometric_mean\n"),
])
def test_cli_huge_shadowing_names_the_key(command, text, tmp_path, capsys):
    # 10^(sigma_sh z / 10) leaves the float range: the key named on one
    # line, no overflow warning and no CSV
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(text + "sigma_sh_db = 2000\n")
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: shadowing 'sigma_sh_db' = 2000 dB is too large: "
        "link gains leave the float range\n")
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("text, named", [
    ("h_ue_m = 1e10\n", "'h_ue_m' = 1e+10"),
    ("area_m = 1e200\n", "'area_m' = 1e+200"),
    ("f_ghz = 1e-300\n", "'f_ghz' = 1e-300"),
])
@pytest.mark.parametrize("command", ["cdf", "validate"])
def test_cli_path_loss_out_of_scale_names_the_key(command, text, named,
                                                   tmp_path, capsys):
    # the loss constant (h_ue_m, f_ghz) or the distances (area_m) put every
    # gain outside the float range: the key named on one line, no overflow
    # warning from the distances and no CSV
    cfg = tmp_path / "far.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    argv = ["--drops", "2"] if command == "cdf" else []
    rc = main([command, *argv, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: path loss at {named} is out of scale: "
        "link gains leave the float range\n")
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("text, shown", [("1e200", "1e+200"),
                                         ("1e-320", "9.99989e-321")])
@pytest.mark.parametrize("command", ["optimize", "grid", "surface", "tradeoff"])
def test_cli_symmetric_gain_out_of_scale_names_the_key(command, text, shown,
                                                       tmp_path, capsys):
    # a gain whose aggregates overflow (1e200) or whose noise floor l2
    # rounds to 0 (1e-320): the key named on one line, no traceback, no
    # warning and no CSV
    cfg = tmp_path / "gain.cfg"
    cfg.write_text(f"beta_scalar = {text}\n")
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: gain 'beta_scalar' = {shown} is out of scale: "
        "the symmetric aggregates leave the float range\n")
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command", ["optimize", "grid", "surface", "tradeoff"])
def test_cli_drawn_gain_out_of_scale_names_its_policy(command, tmp_path, capsys):
    # the config sets no beta_scalar: the drawn gain is named with its
    # policy and the path-loss key off its reference value, on one line
    cfg = tmp_path / "drawn.cfg"
    cfg.write_text("beta_policy = geometric_mean\nh_ue_m = 753\n")
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: drawn gain 8.61649e+194 (beta_policy = geometric_mean) at path "
        "loss 'h_ue_m' = 753 is out of scale: the symmetric aggregates leave "
        "the float range\n")
    assert not list(out.glob("*.csv"))


def test_cli_path_loss_faults_named_together(tmp_path, capsys):
    # neither key's reference value alone brings the gains back
    cfg = tmp_path / "far.cfg"
    cfg.write_text("h_ue_m = 1e10\narea_m = 1e200\n")
    rc = main(["cdf", "--drops", "2", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: path loss at 'h_ue_m' = 1e+10, 'area_m' = 1e+200 is out of "
        "scale: link gains leave the float range\n")


@pytest.mark.parametrize("text, command, error", [
    ("h_ue_m = 1000\n", "cdf", "path loss at 'h_ue_m' = 1000 is out of scale"),
    ("sigma_sh_db = 1000\n", "cdf", "shadowing 'sigma_sh_db' = 1000 dB is too large"),
    ("h_ue_m = 1000\n", "validate", "path loss at 'h_ue_m' = 1000 is out of scale"),
    ("h_ap_m = 1e-100\n", "validate", "path loss at 'h_ap_m' = 1e-100 is out of scale"),
    ("d1_m = 1e100\n", "validate", "path loss at 'd1_m' = 1e+100 is out of scale"),
])
def test_cli_rejects_gains_the_sinr_cannot_use(text, command, error, tmp_path,
                                               capsys):
    # finite, positive gains whose squares overflow (h_ue_m, sigma_sh_db) or
    # underflow (h_ap_m, d1_m, sigma_sh_db) gave nan rates or a traceback:
    # the key named on one line, no warning and no CSV
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    argv = ["--drops", "2"] if command == "cdf" else ["--trials", "300", "--m", "4",
                                                      "--k", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, *argv, "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {error}: link gains leave the float range\n")
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("text, shown, term", [
    ("rho_u_mw = 1e-300\n", "'rho_u_mw' = 1e-300, 'eta' = 0.5", "ds_sq"),
    ("eta = 1e-300\n", "'rho_u_mw' = 100, 'eta' = 1e-300", "ds_sq"),
    ("boltzmann = 1e-300\nnoise_temp_k = 1e-10\nbandwidth_mhz = 1e-10\nc_fso = 2000\n",
     "'bandwidth_mhz' = 1e-10, 'boltzmann' = 1e-300, 'noise_temp_k' = 1e-10, "
     "'noise_figure_db' = 9", "noise_var"),
])
def test_cli_validate_rejects_a_zero_closed_form_term(text, shown, term, tmp_path,
                                                      capsys):
    # the signal terms round to 0, or the noise term does (no quantization
    # noise at c_fso = 2000 and a tiny receiver noise), so no relative error
    # is defined: the keys named on one line before the Monte-Carlo loop
    cfg = tmp_path / "faint.cfg"
    cfg.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["validate", "--trials", "300", "--m", "4", "--k", "2",
                   "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: config values {shown} make the closed-form '{term}' 0: "
        "validate's relative errors are undefined\n")


def test_cli_validate_rejects_zero_power_control(tmp_path, capsys):
    # every closed-form signal term is 0, so no relative error is defined
    cfg = tmp_path / "silent.cfg"
    cfg.write_text("eta = 0\n")
    rc = main(["validate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr() == ("", "error: config value 'eta' must be positive "
                                   "for validate: at eta = 0 every signal term it "
                                   "checks is 0\n")


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64), "1.5", "seven"])
@pytest.mark.parametrize("command", COMMANDS)
def test_cli_seed_outside_u64_is_usage_error(command, seed, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", seed, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert ("argument --seed: expected an integer in [0, 2^64), got "
            f"{seed!r}") in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_accepts_the_largest_seed(tmp_path, capsys):
    seed = str(2 ** 64 - 1)
    assert main(["cdf", "--drops", "3", "--seed", seed, "--out", str(tmp_path)]) == 0
    assert f"seed = {seed}\n" in capsys.readouterr().out
    stamp = (tmp_path / "rate_cdf.csv").read_text().splitlines()[0]
    assert stamp.startswith(f"# scenario=rate_cdf seed={seed} ")


def test_cli_validate_small_run(tmp_path, capsys):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("m = 20\nk = 4\n")
    rc = main(["validate", "--config", str(cfg), "--trials", "30000",
               "--seed", "7", "--m", "10", "--k", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max relative term error" in out
    assert "PASS" in out


@pytest.mark.parametrize("m, k", [(8, 3), (2, 2)])
def test_cli_validate_few_trials_report_their_failure(m, k, tmp_path, capsys):
    # a few trials' estimates may fall below 0; validate still reports
    # every term and fails its gate, with no error
    for trials, seed in itertools.product([1, 2, 3, 5, 10, 20], range(6)):
        rc = main(["validate", "--trials", str(trials), "--m", str(m), "--k", str(k),
                   "--seed", str(seed), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert (rc, err) == (1, ""), (trials, seed, err)
        assert "\nFAIL: relative error at or above 2%\n" in out


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


@pytest.mark.parametrize("text, key", [("noise_figure_db = 1e10\n", "noise_figure_db"),
                                       ("boltzmann = 1e300\n", "boltzmann")])
@pytest.mark.parametrize("command", COMMANDS)
def test_cli_noise_power_out_of_range_names_the_key(command, text, key,
                                                    tmp_path, capsys):
    # noise power overflows (10^(nf / 10)) or is inf: one error line naming
    # the thermal keys, no traceback and no CSV
    cfg = tmp_path / "hot.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("error: config values 'boltzmann', 'noise_temp_k', "
                   "'bandwidth_mhz' and 'noise_figure_db' must give a "
                   "positive, finite noise power\n")
    assert f"'{key}'" in err
    assert not list(out.glob("*.csv"))


def test_cli_parser_is_built_once_and_keeps_no_options(tmp_path, capsys):
    # a second run in the same process takes the default --n, and writes
    # what a fresh process writes
    assert build_parser() is build_parser()
    assert main(["grid", "--n", "1:2:0.5", "--out", str(tmp_path / "a")]) == 0
    assert main(["grid", "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "fronthaul_planner.cli", "grid",
         "--out", str(tmp_path / "c")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, second, fresh = ((tmp_path / d / "grid.csv").read_bytes() for d in "abc")
    assert second == fresh != first


# The float keys, each alone at the edges of the float range, under every
# command at small sizes
EDGE_RUNS = {"optimize": [], "grid": ["--n", "1:3:0.5"], "surface": [],
             "cdf": ["--drops", "2"], "tradeoff": [],
             "validate": ["--trials", "300", "--m", "4", "--k", "2"]}


@pytest.mark.parametrize("key", sorted(k for k, (_, typ, *_) in _KEYS.items()
                                       if typ is float))
def test_cli_edge_values_end_in_output_an_error_or_usage(key, tmp_path, capsys):
    # every run ends one of three ways: exit 0 with finite stdout and CSVs
    # and no warning; exit 1 with one 'error:' line naming the key and no
    # CSV (or validate's own FAIL); or exit 2 for usage
    broken = []
    for value in ("0", "1e-300", "1e300"):
        cfg = tmp_path / f"{value}.cfg"
        cfg.write_text(f"m = 4\nk = 2\n{key} = {value}\n")
        for command, argv in EDGE_RUNS.items():
            out = tmp_path / f"{value}-{command}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main([command, "--config", str(cfg), "--out", str(out), *argv])
            std = capsys.readouterr()
            csvs = "".join(p.read_text() for p in out.glob("*.csv"))
            if rc == 0:
                ok = not caught and not re.search(r"\b(nan|inf)\b", std.out + csvs, re.I)
            elif rc == 1 and std.err:
                ok = (std.err.count("\n") == 1 and std.err.startswith("error: ")
                      and f"'{key}'" in std.err and not csvs)
            else:
                ok = rc == 2 or (command == "validate" and "FAIL:" in std.out)
            if not ok:
                broken.append((value, command, rc, std.err.strip(),
                               [str(w.message) for w in caught]))
    assert broken == []
