"""Golden bytes: each study's CSV at seeds 0-2 under the default config, and
the stdout of the commands that write no CSV.

The digests were recorded before the objective kernel, the table writer and
the unit table were each given one home; that change kept every byte. A
change that alters a CSV on purpose (the path-loss units fix changes the
rate_cdf digests) records the new digests and says why. The stdout digests
were recorded before the unused channel, distortion and link-tag options
were deleted; they pin the Monte-Carlo kernel and the optimizer summary.
"""

import hashlib

import pytest

from fronthaul_planner.cli import main
from fronthaul_planner.config import SystemConfig
from fronthaul_planner.experiments import ExperimentSpec, run_ee_vs_mof

COMMANDS = {
    "grid.csv": ["grid"],
    "ee_surface.csv": ["surface"],
    "ee_vs_sumrate.csv": ["tradeoff"],
    "rate_cdf.csv": ["cdf", "--drops", "20"],
}

DIGESTS = {
    ("ee_surface.csv", 0): "098b646ad796cf80d4e38686ad1cd66f33997e7abba99f74454a2a8258f0683c",
    ("ee_surface.csv", 1): "5d1754b903e1cb1024a87e7fdd55e3d6647577e692c067992a33627bb24d14e2",
    ("ee_surface.csv", 2): "256b91fae7e5042939bfe63be3034ab10e36e9f506081535d716a4c09e994263",
    ("ee_vs_mof.csv", 0): "bdf6c3479fc31935c8b7de351ed3de9270b3eeee014e1fbf4c92686203f11fc4",
    ("ee_vs_mof.csv", 1): "37553d8c9cf1aa3a62478af4079aa1cffc8b9dfecc3724d934b235dfacfdce67",
    ("ee_vs_mof.csv", 2): "ed1f1b2d809e10528b1cb1111c954e6b30de11cc130ce69e316162bb0da4c0f4",
    ("ee_vs_sumrate.csv", 0): "259595935c997e536dcfff0ab0b7c8169aefffc4df0ad3776b067b45d384afbe",
    ("ee_vs_sumrate.csv", 1): "77d8e3f245f7ff2f3978cd4b3431678415e2b97c25f69a157b62eece18b2013b",
    ("ee_vs_sumrate.csv", 2): "3af80136b3f3d30641f77fbefcd09b9eede1f04dbc439d867cdf8d87e7b8fc0a",
    ("grid.csv", 0): "b0260252aea4da40cdb90782f390a784f12645057b80edf94e5b1554923b9355",
    ("grid.csv", 1): "67b6bba33523f7bbbee5d13f2ca246fcc2647f234b585d73af093f25f0309187",
    ("grid.csv", 2): "d84fca3b12df3bc1c1cf0c829647883e117c05f0a16a6dde54932789ba88b59e",
    ("rate_cdf.csv", 0): "149a2c8859d3c4da50eb0b597813e7abd625fdc491c1691d5fb3b6defe5c1069",
    ("rate_cdf.csv", 1): "d3a2035cb8e8ae413fb9e11e29eedae227433892dc780d3b9b5740a68cfb28d1",
    ("rate_cdf.csv", 2): "0d61184b42eb2cc64991b81b0c30209f2e8076687289e151cd2594c9d5a60c21",
}


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_csv_bytes_unchanged(name, seed, tmp_path, capsys):
    path = tmp_path / name
    if name == "ee_vs_mof.csv":
        run_ee_vs_mof(ExperimentSpec("ee_vs_mof", SystemConfig(), seed=seed,
                                     output_path=str(path)))
    else:
        assert main(COMMANDS[name] + ["--seed", str(seed),
                                      "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[(name, seed)]


# argv -> (exit code, stdout sha256). The validate run fails its 2% gate at
# 5000 trials; the pinned report includes the FAIL line and exit code 1.
STDOUT_DIGESTS = {
    ("validate", "--m", "8", "--k", "3", "--trials", "5000", "--seed", "5"):
        (1, "88267d41d06df2207d39ec51c26e60e7b0f500885746a577e0796c436261a1e2"),
    ("optimize", "--seed", "0"):
        (0, "252033712cd954d4a1b56874ae4f50bdf6e87bbe527e28a25eed0ce2b1a2f701"),
}


@pytest.mark.parametrize("argv", sorted(STDOUT_DIGESTS), ids=lambda argv: argv[0])
def test_stdout_bytes_unchanged(argv, tmp_path, capsys):
    code = main(list(argv) + ["--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == STDOUT_DIGESTS[argv]
