"""Golden bytes: each study's CSV at seeds 0-2 under the default config, and
the stdout of the commands that write no CSV.

The digests were recorded before the objective kernel, the table writer and
the unit table were each given one home; that change kept every byte, and
so did the one-log10, one-power drop-gain kernel. A change that alters
output on purpose (the path-loss units fix will change the rate_cdf
digests and the validate stdout, which reads a drop's gains) records the
new digests and says why. The stdout digests were recorded before the
unused channel, distortion and link-tag options were deleted; they pin the
Monte-Carlo kernel and the optimizer summary.

The pins named '<file>:<argument>' were recorded before CSV rows were
rendered by numpy: `grid --n 1:10:0.01` (91,001 rows) and `cdf --drops 400`
are the benchmark's sizes, and `grid --n 1:8:1` holds the rows of the
removed fiber-count study (its n, m_of and EE columns at n in 1-4, 7, 8).
The `cdf --drops 1` pins were recorded before drop i of a stream became i
jumps of its generator; they hold drop 0, which that change keeps.
That change moved every later cdf drop, so the other rate_cdf CSV
digests (`cdf --drops 20` at seeds 0-2, `--drops 400` and both M = 1000,
K = 100 pins) were recorded again after it; no other digest moved, and
the M = 1000 stdout digests held.

The geometric_mean gains pin a whole drop of the reference network,
where the validate stdout reads only an 8 x 3 slice. They, both validate
stdouts and the geometric_mean optimize stdout were recorded again when
the one drop of validate and the geometric_mean policy became drop 0 of
the "drop" stream (it had been drawn from two streams of its own) and
the validate user pick came to be keyed (tag, 0) like every stream: the
gains of seeds 0-2 went from 6.868e-24, 3.951e-24 and 3.718e-24 to
3.514e-24, 3.483e-24 and 9.593e-24. Every CSV digest held.

The configured pins were recorded before the symmetric studies were
streamed in blocks of n rows and the trade-off sweep became one objective
call. At M = 1000 an n row holds 1001 cells, so blocks of whole n rows cut
the tables mid-table, and 4096-row pieces of a whole table cut it
mid-row; the grid's optimum there is a tie of the whole n-independent
m_of = 0 column. The
trade-off pin moves beta_scalar and rho_u_mw, which set the sweep's top.
Each pins the CSV and the stdout, with the output directory as 'TMP'.
The cdf pin at M = 1000, K = 100 (the benchmark's 10x size, one drop per
gain block) was recorded before a run's drop blocks were computed in
place, in buffers the run reuses.

The optimize pins were recorded before each optimizer step picked its cell
with grid_search and the alternating loop stopped re-evaluating them. They
hold both ends of the benchmark's beta_scalar range, M = 1000, a dearer
fiber, a drawn gain, and a run that stopped at the best point seen. Four
were recorded again when the loop's n-step took grid's n grid
(parse_range, which holds 2.0 exactly where np.arange held
2.000000000000001) and n became N_MIN at m_of = 0, where grid_search
picks it: the three all-FSO pins (beta_scalar=1.1e-12*10**0.3, m=1000,
mu_of=0.05) print n_star = 1 where they printed 1.67, 1.34 and 1.47, with
ee_star unchanged, and 'np.arange n-step' (then named 'stopped at best
seen'), whose n-step at (2, 50) picked 2.000000000000001 at 2.3e-10
bits/J below the start, now converges at grid's optimum (2.1, 100),
2165618.93 bits/J where it stopped at (2, 50), 2094688.46 bits/J. No
other digest moved.

All seven optimize stdout pins (the default run and the six configured
ones) were recorded again when the alternating loop was deleted and
optimize became the endpoint step over grid's n grid. Only the method
line moved, from the loop's name and status to 'method = endpoints
(m_of = 0 or M, n = 1:10:0.01)'; the n_star, m_of_star and ee_star
lines, and every other line, are byte-identical.
"""

import hashlib
from dataclasses import replace

import pytest

from fronthaul_planner.cli import main
from fronthaul_planner.config import SystemConfig, symmetric_beta

# pin name -> argv; the CSV a command writes is named before any ':'
COMMANDS = {
    "grid.csv": ["grid"],
    "grid.csv:n=1:8:1": ["grid", "--n", "1:8:1"],
    "grid.csv:n=1:10:0.01": ["grid", "--n", "1:10:0.01"],
    "ee_surface.csv": ["surface"],
    "ee_vs_sumrate.csv": ["tradeoff"],
    "rate_cdf.csv": ["cdf", "--drops", "20"],
    "rate_cdf.csv:drops=1": ["cdf", "--drops", "1"],
    "rate_cdf.csv:drops=400": ["cdf", "--drops", "400"],
}

DIGESTS = {
    ("ee_surface.csv", 0): "098b646ad796cf80d4e38686ad1cd66f33997e7abba99f74454a2a8258f0683c",
    ("ee_surface.csv", 1): "5d1754b903e1cb1024a87e7fdd55e3d6647577e692c067992a33627bb24d14e2",
    ("ee_surface.csv", 2): "256b91fae7e5042939bfe63be3034ab10e36e9f506081535d716a4c09e994263",
    ("ee_vs_sumrate.csv", 0): "259595935c997e536dcfff0ab0b7c8169aefffc4df0ad3776b067b45d384afbe",
    ("ee_vs_sumrate.csv", 1): "77d8e3f245f7ff2f3978cd4b3431678415e2b97c25f69a157b62eece18b2013b",
    ("ee_vs_sumrate.csv", 2): "3af80136b3f3d30641f77fbefcd09b9eede1f04dbc439d867cdf8d87e7b8fc0a",
    ("grid.csv", 0): "b0260252aea4da40cdb90782f390a784f12645057b80edf94e5b1554923b9355",
    ("grid.csv", 1): "67b6bba33523f7bbbee5d13f2ca246fcc2647f234b585d73af093f25f0309187",
    ("grid.csv", 2): "d84fca3b12df3bc1c1cf0c829647883e117c05f0a16a6dde54932789ba88b59e",
    ("grid.csv:n=1:8:1", 0): "44847d8c3488f870a95f7b98e9f3189732cbf237416f294082872ef1707cc1cf",
    ("grid.csv:n=1:8:1", 1): "e72faf451081dba6eff65d31b6a94a50c5635b04017ee64181bd68c587df8163",
    ("grid.csv:n=1:8:1", 2): "1782b230403f70ab8ec54820658fd850028d2194163a859f41c26d4d801b8de1",
    ("grid.csv:n=1:10:0.01", 0): "1b37d2d963635bb4430dc9c2ecb26a04ad6407e4825f84efc46def35d40861a5",
    ("rate_cdf.csv", 0): "c0806842e608d29a29092613b451f016af0fdf650b0a58ae70948d0dfbb53aad",
    ("rate_cdf.csv", 1): "a2db0968e0c6ea90487afe70199d5e7df09fcd942ad6094cce5f4c2f5fd56714",
    ("rate_cdf.csv", 2): "25edee42c783d08bcac9c3f7ed53343ff451250893c3a287c05478e36c8213fa",
    ("rate_cdf.csv:drops=1", 0): "657ec2dcfa63162f35023d951b5a2858c04ceed33f77c2f031bae163dc82dae8",
    ("rate_cdf.csv:drops=1", 1): "a4b0f2942d8af01fefd2b15cf8a8e51fad9fc67402530fcaa27a4e0554a81f20",
    ("rate_cdf.csv:drops=1", 2): "44e9df06892cbcc70a8baf2682957837283ec95d0704060b806dbd2be2991882",
    ("rate_cdf.csv:drops=400", 0): "8214c908d865f1c59bcd18647b6960e28e46b5af63b3e6e2d94dd70b4e768fb9",
}


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_csv_bytes_unchanged(name, seed, tmp_path, capsys):
    assert main(COMMANDS[name] + ["--seed", str(seed), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    path = tmp_path / name.split(":")[0]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[(name, seed)]


# argv -> (exit code, stdout sha256). The validate run at 5000 trials failed
# its 2% gate (interference_var[0] at 4.383%, exit 1) until each term came
# to be estimated with the draws as control variates, then passed with
# interference_var[2] at 0.703%. On drop 0 of the "drop" stream, with the
# user picked from the (tag, 0) key, it checks user 0 and fails again at
# noise_var 2.825%, exit 1: on this drop, at 5000 trials, the bu_var
# estimate's error has a standard deviation of 2.4-3.0% and noise_var's of
# 0.7-1.3% (each user, 200 Monte-Carlo seeds).
STDOUT_DIGESTS = {
    ("validate", "--m", "8", "--k", "3", "--trials", "5000", "--seed", "5"):
        (1, "7849d01d2bee4d79a7c8f00fa34e0b90a75ab20a3ba04eb32c835aaff1b6b1a7"),
    ("optimize", "--seed", "0"):
        (0, "8a9a88442dd8e3d47e08f9c0d0efd817e8c11ced13075706761d546e46156af0"),
}


@pytest.mark.parametrize("argv", sorted(STDOUT_DIGESTS), ids=lambda argv: argv[0])
def test_stdout_bytes_unchanged(argv, tmp_path, capsys):
    code = main(list(argv) + ["--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == STDOUT_DIGESTS[argv]


def test_validate_within_one_trial_block_keeps_its_stdout(tmp_path, capsys):
    # block 0 is the stream's index-0 generator, so a run of at most
    # MC_BLOCK trials draws what one generator gives. Recorded again when
    # the terms came to be estimated with the draws as control variates:
    # the worst term went from interference_var[0] at 21.763% to
    # interference_var[0] at 6.291%, still a FAIL. Recorded again for drop
    # 0 of the "drop" stream and the (tag, 0) user key: user 0,
    # interference_var[1] at 9.139%, a FAIL
    argv = ["validate", "--m", "8", "--k", "3", "--trials", "256", "--seed", "5"]
    code = main(argv + ["--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        1, "8946a4da4cd352ebd110f22a8459df676a7459b565c54659078eb736de3d27e5")


# seed -> float.hex() of the geometric_mean gain of the reference network
GEOMETRIC_MEAN_BETA = {
    0: "0x1.0fdbd328436f9p-78",
    1: "0x1.0d8207800e816p-78",
    2: "0x1.731dbc2a026fcp-77",
}


@pytest.mark.parametrize("seed", sorted(GEOMETRIC_MEAN_BETA))
def test_geometric_mean_beta_unchanged(seed):
    cfg = replace(SystemConfig(), beta_policy="geometric_mean")
    assert symmetric_beta(cfg, seed).hex() == GEOMETRIC_MEAN_BETA[seed]


# pin name -> (config file text, argv); the CSV is named before any ':'
CONFIGURED = {
    "grid.csv:m=1000,n=1:3:0.05": ("m = 1000\n", ["grid", "--n", "1:3:0.05"]),
    "ee_surface.csv:m=1000": ("m = 1000\n", ["surface"]),
    "ee_vs_sumrate.csv:beta_scalar=3.3e-13,rho_u_mw=250": (
        "beta_scalar = 3.3e-13\nrho_u_mw = 250\n", ["tradeoff"]),
    "rate_cdf.csv:m=1000,k=100,drops=40": (
        "m = 1000\nk = 100\n", ["cdf", "--drops", "40"]),
}

# (pin name, seed) -> (CSV sha256, stdout sha256)
CONFIGURED_DIGESTS = {
    ("grid.csv:m=1000,n=1:3:0.05", 0): (
        "d23834df81eccfdec5db56a2bf006f5da2e82aa862a278d307e76fa14050924f",
        "b71f98e00dfab49e3f50acfe11e3adc92695612770d9cdcf55927d3749c371b5"),
    ("grid.csv:m=1000,n=1:3:0.05", 1): (
        "1a64cc506db11ff244149950ff5a634cc9c69dfd1367cdbc947129a0cf908073",
        "3bf89fbf4bae1f3bee1982a1a91e09fbd85cc8f66d146cb325b90cb9383c47aa"),
    ("ee_surface.csv:m=1000", 0): (
        "aa05c5664bcceee9272ffd58e417d2c7698bc74b3fdfcef5f3c0e9bbcdb00761",
        "d52f0572fc31024d9f80494a708c6b89eec94238e13a3c5bfdeacf7a28369e25"),
    ("ee_surface.csv:m=1000", 1): (
        "4942a336ae54887b40479fe1e5074cec66f3afc5292e2f15c19164b300239e8e",
        "648275096a195645a9e205fc675fc6ba12e73d001362c29674becee355a0c29c"),
    ("ee_vs_sumrate.csv:beta_scalar=3.3e-13,rho_u_mw=250", 0): (
        "fa3c09251c05ab010ad8ed5378ecc4c0e02b7de7c66bc3e057de0ae49c9b7174",
        "70b92b27f73f5853de7a14308953ecb3668f5abb563c35d46723c7570e06ad5d"),
    ("ee_vs_sumrate.csv:beta_scalar=3.3e-13,rho_u_mw=250", 1): (
        "bb500790d337d8d6dae8878857d32b09d15b4ccae7539e5aaf74c8c5b9f414be",
        "b5667800745614d2395f693f24fbca4c4729f79a3e3ac55b077fca10b71b9e9c"),
    ("rate_cdf.csv:m=1000,k=100,drops=40", 0): (
        "edfd7f86f33a898ec1d5cc4224c54f38b4fd79aad4a6b1a436a43b21cbbda4c3",
        "177de76a944d7a3e32aa9bfd5049452abc7cc735263c79de6972628b36f8814f"),
    ("rate_cdf.csv:m=1000,k=100,drops=40", 1): (
        "4f06e077a07b7534c482007150e84f2a40143e263f65768f230f1ca119407c23",
        "29938ebd67de8641637a22186009d1a8bcbd2a181ce4be3a36099c83a8aea6da"),
}


@pytest.mark.parametrize("name, seed", sorted(CONFIGURED_DIGESTS))
def test_configured_study_bytes_unchanged(name, seed, tmp_path, capsys):
    text, argv = CONFIGURED[name]
    cfg = tmp_path / "pin.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(tmp_path), "TMP")
    csv = hashlib.sha256((out / name.split(":")[0]).read_bytes()).hexdigest()
    assert (csv, hashlib.sha256(stdout.encode()).hexdigest()) == CONFIGURED_DIGESTS[(name, seed)]


# pin name -> (config file text, seed) of an optimize run; on the last
# one's network an n-step on an np.arange grid once stopped the former
# alternating loop below grid's optimum.
OPTIMIZE = {
    "beta_scalar=1.1e-12*10**-0.3": ("beta_scalar = 5.513059569899995e-13\n", 0),
    "beta_scalar=1.1e-12*10**0.3": ("beta_scalar = 2.194788546465767e-12\n", 0),
    "m=1000": ("m = 1000\n", 0),
    "mu_of=0.05": ("mu_of = 0.05\n", 0),
    "beta_policy=geometric_mean": ("beta_policy = geometric_mean\n", 1),
    "np.arange n-step": ("beta_scalar = 9.9e-13\nmu_fso = 0.0031\neta = 0.11\n"
                         "p_fh_of_w_per_gbps = 0.051\n", 0),
}

# pin name -> stdout sha256
OPTIMIZE_DIGESTS = {
    "beta_scalar=1.1e-12*10**-0.3": "cc2177fcb6d67c3299ec90f3d573703d701da292cf22ed5bd38def290cdcd683",
    "beta_scalar=1.1e-12*10**0.3": "2f01ce9178053b65a5d6ca79e76a187e6f71ecf834579ed59eb45672555a6ffd",
    "m=1000": "0eff641a579e84fdce4dae230d40a2e3d023a21a84af23eb50aa958056aaf540",
    "mu_of=0.05": "0d8cb0e8aa048bb6a39c3310c2190711df4be87f8fc656bc4659b933cc437843",
    "beta_policy=geometric_mean": "8f72bc3c7a7a521de9dc3a238cb4e57e98f331dc8b3bd4e40bb8f5f0f5d66e8d",
    "np.arange n-step": "5131771a02cb07b9f1da6e68fa37867f393585b970ac20ba7f40d4403a21ea6b",
}


@pytest.mark.parametrize("name", sorted(OPTIMIZE_DIGESTS))
def test_configured_optimize_stdout_unchanged(name, tmp_path, capsys):
    text, seed = OPTIMIZE[name]
    cfg = tmp_path / "pin.cfg"
    cfg.write_text(text)
    argv = ["optimize", "--config", str(cfg), "--seed", str(seed),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.replace(str(tmp_path), "TMP")
    assert hashlib.sha256(stdout.encode()).hexdigest() == OPTIMIZE_DIGESTS[name]
