import csv
import hashlib
import io

import pytest

from hestonsim.cli import (_GRID_CONFIGS, _KEYS, _call_config, _varswap_config, main,
                           parse_config_file)
from hestonsim.errors import ConfigurationError
from hestonsim.harness import parse_table_csv

CASE_III_CONFIG = """\
# Case III parameters
model.s0 = 100
model.v0 = 0.010201
model.kappa = 6.21
model.theta = 0.019
model.xi = 0.61
model.rho = -0.7
model.r = 0.0319  # decimal rate
product.maturity = 1
product.strike = 100
"""


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "case,ref",
    [("I", "13.08467014"), ("II", "16.64922292"),
     ("III", "6.80611331"), ("IV", "9.02491348")],
)
def test_exact_prints_reference_price(capsys, case, ref):
    code, out, _ = _run(capsys, "exact", "--case", case)
    assert code == 0
    assert out.strip() == ref


def test_exact_from_params_file(tmp_path, capsys):
    cfg = tmp_path / "case3.cfg"
    cfg.write_text(CASE_III_CONFIG)
    code, out, _ = _run(capsys, "exact", "--params", str(cfg))
    assert code == 0
    assert out.strip() == "6.80611331"


def test_exact_requires_case_or_params(capsys):
    code, _, err = _run(capsys, "exact")
    assert code == 1
    assert "error:" in err


def test_case_and_params_together_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "case3.cfg"
    cfg.write_text(CASE_III_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--case", "I", "--params", str(cfg)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["price", "--case", "I", "--scheme", "pois-ge", "--bogus"])
    assert exc.value.code == 2


def test_unknown_scheme_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["price", "--case", "I", "--scheme", "euler"])
    assert exc.value.code == 2


def test_price_smoke_csv(capsys):
    code, out, _ = _run(capsys, "price", "--case", "IV", "--scheme", "pois-ge",
                        "--K", "1", "--paths", "2000", "--reps", "2", "--seed", "3")
    assert code == 0
    rows = parse_table_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert row.scheme == "POIS-GE" and row.trunc_k == 1
    assert abs(row.bias) < 0.5
    assert row.benchmark == pytest.approx(9.02491348, abs=1e-6)


def test_price_missing_scheme_is_runtime_error(capsys):
    code, _, err = _run(capsys, "price", "--case", "I", "--paths", "100", "--reps", "1")
    assert code == 1
    assert "--scheme" in err


def test_price_config_file_matches_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CASE_III_CONFIG + "run.scheme = ig\nrun.paths = 1500\n"
                   "run.reps = 2\nrun.seed = 11\n")
    code, out_cfg, _ = _run(capsys, "price", "--params", str(cfg))
    assert code == 0
    code, out_flags, _ = _run(capsys, "price", "--case", "III", "--scheme", "ig",
                              "--paths", "1500", "--reps", "2", "--seed", "11")
    assert code == 0
    row_cfg = parse_table_csv(out_cfg)[0]
    row_flags = parse_table_csv(out_flags)[0]
    assert row_cfg.estimate == row_flags.estimate
    assert row_cfg.se == row_flags.se


def test_strike_flag_overrides_params_run_scheme(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CASE_III_CONFIG + "run.scheme = qem\n")
    code, out, _ = _run(capsys, "price", "--params", str(cfg), "--strike", "80",
                        "--paths", "200", "--reps", "1")
    assert code == 0
    assert parse_table_csv(out)[0].benchmark == pytest.approx(22.95428383, abs=1e-6)


@pytest.mark.parametrize("argv", [
    ("price", "--scheme", "ig"),
    ("varswap", "--scheme", "qem", "--periods", "2"),
], ids=["price", "varswap"])
def test_params_run_keys_override_flags(tmp_path, capsys, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CASE_III_CONFIG + "run.paths = 300\n")
    code, out, _ = _run(capsys, *argv, "--params", str(cfg), "--paths", "500", "--reps", "1")
    assert code == 0
    assert parse_table_csv(out)[0].n_paths == 300


def test_price_grid_config_emits_cross_product(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(CASE_III_CONFIG + "run.scheme = pois-ge\nrun.paths = 500\n"
                   "run.reps = 1\ngrid.xi = 0.61,0.3\ngrid.kappa = 6.21,1\n")
    code, out, _ = _run(capsys, "price", "--params", str(cfg))
    assert code == 0
    rows = parse_table_csv(out)
    assert len(rows) == 4
    assert {r.case for r in rows} == {
        "custom[xi=0.61,kappa=6.21]", "custom[xi=0.61,kappa=1]",
        "custom[xi=0.3,kappa=6.21]", "custom[xi=0.3,kappa=1]",
    }


def test_price_markdown_output(capsys):
    code, out, _ = _run(capsys, "price", "--case", "I", "--scheme", "qem",
                        "--steps", "4", "--paths", "500", "--reps", "1",
                        "--format", "md")
    assert code == 0
    assert "| QEM | 4 |" in out


def test_price_writes_out_file(tmp_path, capsys):
    dest = tmp_path / "table.csv"
    code, out, _ = _run(capsys, "price", "--case", "IV", "--scheme", "pois-td",
                        "--steps", "2", "--paths", "500", "--reps", "1",
                        "--out", str(dest))
    assert code == 0
    assert dest.read_text() == out


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_is_one_error_line_after_the_table(tmp_path, capsys, target):
    # The table reaches stdout before the write fails, so the run is not lost.
    dest = tmp_path / "missing" / "table.csv" if target == "missing-dir" else tmp_path
    code, out, err = _run(capsys, "price", "--case", "III", "--scheme", "pois-ge",
                          "--paths", "200", "--reps", "2", "--out", str(dest))
    assert code == 1
    assert out.startswith("case,scheme,N,K,paths,") and out.count("\n") == 2
    assert err.startswith(f"error: cannot write output file {dest}: ") and err.count("\n") == 1


def test_varswap_smoke(capsys):
    code, out, _ = _run(capsys, "varswap", "--case", "IV", "--scheme", "pois-td",
                        "--periods", "4", "--paths", "2000", "--reps", "2")
    assert code == 0
    row = parse_table_csv(out)[0]
    assert row.scheme == "POIS-TD" and row.n_steps == 4
    assert row.benchmark == pytest.approx(0.21132, abs=5e-5)


def test_varswap_rejects_exact_scheme(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["varswap", "--case", "IV", "--scheme", "pois-ge", "--periods", "4"])
    assert exc.value.code == 2


def test_bench_var3_table(capsys):
    code, out, _ = _run(capsys, "bench", "--table", "var3",
                        "--paths", "400", "--reps", "1", "--seed", "2")
    assert code == 0
    rows = parse_table_csv(out)
    assert len(rows) == 8
    benchmarks = sorted({round(100 * r.benchmark, 3) for r in rows}, reverse=True)
    assert benchmarks == [1.870, 1.832, 1.790, 1.767]
    assert {r.scheme for r in rows} == {"QEM", "POIS-TD"}


def test_bench_opt_table_config_count(capsys):
    code, out, _ = _run(capsys, "bench", "--table", "opt4",
                        "--paths", "200", "--reps", "1")
    assert code == 0
    rows = parse_table_csv(out)
    # 5 GE levels + 5 series levels + 4 IG steps + 4 series steps + 3 + 3 TD rows
    assert len(rows) == 24
    assert all(r.benchmark == pytest.approx(9.02491348, abs=1e-6) for r in rows)


def test_parse_config_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model.s0 100\n")
    with pytest.raises(ConfigurationError):
        parse_config_file(str(cfg), "price")


def test_misspelled_config_key_is_runtime_error(tmp_path, capsys):
    # Ignored, these would leave pois_ge at the default path count unnoticed.
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(CASE_III_CONFIG + "run.shceme = ge\nrun.path = 7\n")
    code, out, err = _run(capsys, "price", "--params", str(cfg), "--scheme", "pois-ge",
                          "--paths", "100", "--reps", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(cfg) in err and "run.shceme" in err


# Values for each key that some subcommand refuses.  Ignored, varswap with
# run.scheme = qem would price POIS-TD and run.steps = 7 four periods, and exact
# with grid.xi = 0.1,0.9 would print one price at the file's own xi.
_REFUSED_VALUES = {"run.scheme": ["qem"], "run.steps": ["7"], "run.trunc_k": ["3"],
                   "grid.xi": ["0.3", "0.1,0.9"], "grid.kappa": ["1", "1,4"]}
_COMMAND_ARGV = {
    "exact": ["exact"],
    "price": ["price", "--scheme", "pois-ge", "--paths", "100", "--reps", "1"],
    "varswap": ["varswap", "--scheme", "pois-td", "--periods", "4", "--paths", "100",
                "--reps", "1"],
}
_REFUSED = [(command, key) for key, (_, takers) in _KEYS.items()
            for command in _COMMAND_ARGV if command not in takers]


def test_each_subcommand_refuses_the_keys_it_cannot_apply():
    grid, run = ["grid.xi", "grid.kappa"], ["run.scheme", "run.trunc_k", "run.steps"]
    assert sorted(_REFUSED) == sorted([("exact", key) for key in grid]
                                      + [("varswap", key) for key in grid + run])


@pytest.mark.parametrize("command,line", [
    (command, f"{key} = {value}") for command, key in _REFUSED for value in _REFUSED_VALUES[key]])
def test_refused_key_is_one_error_line_at_its_line(tmp_path, capsys, command, line):
    cfg = tmp_path / "refused.cfg"
    cfg.write_text(CASE_III_CONFIG + line + "\n")
    argv = _COMMAND_ARGV[command]
    code, out, err = _run(capsys, *argv[:1], "--params", str(cfg), *argv[1:])
    assert code == 1 and out == ""
    lineno = CASE_III_CONFIG.count("\n") + 1
    assert err.startswith(f"error: {cfg}:{lineno}: ")
    assert err.count("\n") == 1 and line.split(" =")[0] in err


def test_missing_config_file_is_runtime_error(capsys):
    code, _, err = _run(capsys, "exact", "--params", "/nonexistent/file.cfg")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "extra,key",
    [("model.s0 = abc", "model.s0"),
     ("product.maturity = one", "product.maturity"),
     ("run.scheme = pois-ge\nproduct.strike = 1O0", "product.strike"),
     ("run.scheme = pois-ge\nrun.paths = 1e5", "run.paths"),
     ("grid.xi = 0.5, x", "grid.xi"),
     ("grid.kappa = ,", "grid.kappa"),
     ("product.maturity = inf", "product.maturity"),
     ("product.maturity = nan", "product.maturity"),
     ("product.strike = inf", "product.strike"),
     ("grid.xi = 0.61,,0.3", "grid.xi")],
    ids=["model", "maturity", "strike", "run-int", "grid", "grid-empty", "maturity-inf",
         "maturity-nan", "strike-inf", "grid-empty-item"],
)
def test_malformed_config_value_is_runtime_error(tmp_path, capsys, extra, key):
    # The last line sets ``key``; a line is checked even where a later one overrides it.
    text = CASE_III_CONFIG + extra + "\n"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code, _, err = _run(capsys, "price", "--params", str(cfg), "--scheme", "pois-ge",
                        "--paths", "100", "--reps", "1")
    assert code == 1
    lineno = text.count("\n")
    assert err.startswith(f"error: {cfg}:{lineno}: ") and key in err


def test_exact_checks_the_run_keys_it_does_not_use(tmp_path, capsys):
    # A shared case file is checked whole: exact prints no price beside a bad run.paths.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CASE_III_CONFIG + "run.paths = 1e5\n")
    code, out, err = _run(capsys, "exact", "--params", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {cfg}:11: run.paths")


def test_undecodable_config_file_is_runtime_error(tmp_path, capsys):
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(b"model.s0 = \xd0\xff\n")
    code, out, err = _run(capsys, "exact", "--params", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot read config file {cfg}") and err.count("\n") == 1


@pytest.mark.parametrize("command", [("exact", "--strike", "1e308"),
                                     ("price", "--strike", "1e308", "--scheme", "pois-ge",
                                      "--paths", "100", "--reps", "1"),
                                     ("exact", "--strike", "1e9")])
def test_unpriceable_strike_is_runtime_error(capsys, command):
    # The Fourier oracle cannot resolve these strikes: at 1e308 price wrote a
    # benchmark of inf, and at 1e9 exact printed -0.00000009.
    code, out, err = _run(capsys, command[0], "--case", "III", *command[1:])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "out of the money" in err and err.count("\n") == 1


def test_failed_forward_identity_is_one_error_line(tmp_path, capsys):
    # kappa < rho * xi puts 0/0 in the characteristic function at u = -i.
    cfg = tmp_path / "trap.cfg"
    cfg.write_text(CASE_III_CONFIG + "model.v0 = 0.9\nmodel.kappa = 0.05\nmodel.theta = 0.003\n"
                   "model.xi = 0.6\nmodel.rho = 0.25\nmodel.r = 0\nproduct.maturity = 0.86\n"
                   "product.strike = 91\n")
    code, out, err = _run(capsys, "exact", "--params", str(cfg))
    assert code == 1 and out == ""
    assert err == "error: characteristic function fails the forward identity\n"


def test_undefined_qe_correction_is_one_error_line(tmp_path, capsys):
    # At xi = 4, rho = 0.5 one QE step over T = 5 puts 2*A1*a >= 1.
    cfg = tmp_path / "qe.cfg"
    cfg.write_text("model.s0 = 100\nmodel.v0 = 2\nmodel.kappa = 10\nmodel.theta = 2\n"
                   "model.xi = 4\nmodel.rho = 0.5\nproduct.maturity = 5\nproduct.strike = 100\n")
    code, out, err = _run(capsys, "price", "--params", str(cfg), "--scheme", "qem",
                          "--steps", "1", "--paths", "2000", "--reps", "1")
    assert code == 1 and out == ""
    assert err == "error: quadratic-exponential correction undefined: 2*A1*a >= 1\n"


def test_cli_martingale_modes():
    # The correction each subcommand picks, per kind, and the grid4 configs.
    assert {kind: _call_config(kind, 0, 4).martingale_mode
            for kind in ("ge", "pois_ge", "ig", "qem", "pois_td")} == {
        "ge": "none", "pois_ge": "none", "ig": "none", "qem": "price", "pois_td": "price"}
    assert {kind: _varswap_config(kind, 4).martingale_mode for kind in ("qem", "pois_td")} == {
        "qem": "price", "pois_td": "return_variance"}
    assert [(cfg.kind, cfg.martingale_mode) for cfg in _GRID_CONFIGS] == [
        ("ge", "none"), ("pois_ge", "none"), ("ig", "none"), ("pois_ge", "none"),
        ("qem", "price"), ("pois_td", "price")]


def test_jobs_env_malformed_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("HESTONSIM_JOBS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--table", "var3", "--paths", "10", "--reps", "1"])
    assert exc.value.code == 2
    assert "argument --jobs: invalid int value" in capsys.readouterr().err


def test_jobs_env_zero_is_rejected_like_flag(monkeypatch, capsys):
    monkeypatch.setenv("HESTONSIM_JOBS", "0")
    code, _, err = _run(capsys, "bench", "--table", "var3", "--paths", "10", "--reps", "1")
    assert code == 1
    assert "n_jobs must be >= 1" in err


# SHA-256 of each command's CSV output with the wall_seconds column removed,
# at --paths 500 --reps 2.  They cover every way the CLI builds an experiment;
# a mismatch means an estimate, a benchmark or a label changed.
_PINNED_CSV = {
    "bench_opt1": "a9d78ca5fca2baa1398769f9a3d37b995be5ec412fdce27bd18ba92476f94d58",
    "bench_var3": "dd1e90475a179ccaa31d442b2fc96bd75a751598ec3ed8c20cb52820b4b45382",
    "bench_grid4": "d20d413c9e0c1cf6e1dd413f0349f73df582ba645285a57c9f48cad5a469ca09",
    "price_flags": "da6abb7c360b120f3590575e4a5bf6ba6b763cf342842f178b859b14986e8593",
    "price_params": "f45b09b0736b9a89e7e539ef4d8a17a3e600823d19a3f79b1eee3cbe9f554a74",
    "price_grid": "d992aaaddd31c647b701d2412696b40e14e91bc1ee682a448740facb4b8c6d03",
    "varswap": "9a5956d4265cc9eedb973a4f6a6d2c7ed665ca0cd6c04a3f478109d7e2651ce0",
}


def _pinned_argv(name, tmp_path):
    case3 = tmp_path / "case3.cfg"
    case3.write_text(CASE_III_CONFIG)
    grid = tmp_path / "grid.cfg"
    grid.write_text(CASE_III_CONFIG + "run.scheme = pois-td\nrun.steps = 4\n"
                    "grid.xi = 0.61,0.3\ngrid.kappa = 6.21,1\n")
    return {
        "bench_opt1": ["bench", "--table", "opt1"],
        "bench_var3": ["bench", "--table", "var3"],
        "bench_grid4": ["bench", "--table", "grid4"],
        "price_flags": ["price", "--case", "IV", "--scheme", "pois-ge", "--K", "1",
                        "--strike", "110"],
        "price_params": ["price", "--params", str(case3), "--scheme", "ig", "--steps", "2"],
        "price_grid": ["price", "--params", str(grid)],
        "varswap": ["varswap", "--case", "IV", "--scheme", "pois-td", "--periods", "4"],
    }[name] + ["--paths", "500", "--reps", "2"]


@pytest.mark.parametrize("name", list(_PINNED_CSV))
def test_cli_csv_is_pinned(tmp_path, capsys, name):
    code, out, _ = _run(capsys, *_pinned_argv(name, tmp_path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][-1] == "wall_seconds"
    text = "\n".join(",".join(row[:-1]) for row in rows) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_CSV[name]
