import os

import numpy as np
import pytest

from proxqn import bench, cli, validate
from proxqn.bench import ReferenceSolution
from proxqn.cli import main
from proxqn.metric import LowRankMetric
from proxqn.prox import (Box, GroupL2, Hinge, L1Ball, L1Norm, LinfBall,
                         LinfNorm, MaxFunction, NonNeg, Simplex, Zero)
from proxqn.scaled import scaled_prox
from proxqn.solver import SOLVERS, ProblemSpec

ORTHANT_EXAMPLE = """\
# scaled prox: positive orthant worked example
# h: nonneg
# sign: +
# kappa: 1.0
# vector: x
1.0
-1.0
# vector: d
1.0
1.0
# vector: u
1.0
1.0
"""


@pytest.fixture
def env_cache(cache_dir, monkeypatch):
    monkeypatch.setenv("PROXQN_CACHE_DIR", cache_dir)
    return cache_dir


def test_solve_roundtrip_and_determinism(tmp_path, env_cache, capsys):
    args = ["solve", "--family", "lasso_gaussian", "--m", "30", "--n", "50",
            "--lambda", "0.1", "--solver", "zero-sr1", "--tol", "1e-8",
            "--seed", "7"]
    rc = main(args + ["--out", str(tmp_path / "a.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final_error=" in out and "status=converged" in out
    rc = main(args + ["--out", str(tmp_path / "b.csv")])
    assert rc == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_solve_nonfinite_objective_exits_3(tmp_path, monkeypatch, capsys):
    problem = ProblemSpec(dim=4, f=lambda x: float("nan"), grad=lambda x: x,
                          h=L1Norm(0.1), lipschitz=1.0)
    monkeypatch.setattr(cli, "generate", lambda recipe: problem)
    monkeypatch.setattr(cli, "reference_solution",
                        lambda problem, cache_dir=None: ReferenceSolution(
                            np.zeros(4), 0.0, False, True))
    for solver_id in sorted(SOLVERS):
        rc = main(["solve", "--solver", solver_id,
                   "--out", str(tmp_path / f"{solver_id}.csv")])
        assert rc == 3
        assert "status=nonfinite" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["solve", "--m", "20", "--n", "30"],
    ["race", "--families", "lasso_diff3d", "--solvers", "ista"],
])
def test_zero_max_iters_exits_2(env_cache, capsys, command):
    # argparse rejects the value before any solve runs or file is written
    with pytest.raises(SystemExit) as exc:
        main(command + ["--max-iters", "0"])
    assert exc.value.code == 2
    assert "--max-iters: must be at least 1" in capsys.readouterr().err


def test_solve_unknown_solver(env_cache, capsys):
    assert main(["solve", "--solver", "bogus"]) == 2
    assert "unknown solver" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--lambda", "-1"], "lam must be positive"),
    (["--lambda", "nan"], "lam must be positive"),
    (["--family", "group_lasso", "--block-cap", "0"],
     "block_cap must be at least 1"),
    (["--m", "0"], "m and n must be positive"),
    (["--n", "0"], "m and n must be positive"),
    (["--family", "lasso_diff3d", "--side", "0"],
     "diff3d needs a positive grid side"),
], ids=["negative-lambda", "nan-lambda", "zero-block-cap", "zero-m",
        "zero-n", "zero-side"])
def test_solve_bad_recipe_exits_2(tmp_path, env_cache, capsys, args, message):
    # the recipe check rejects them before a problem is generated or a
    # trace written; nnls, which has no regularizer, ignores lam.  A size
    # of 0 is passed on, not replaced by the family's default
    out = tmp_path / "trace.csv"
    assert main(["solve", "--m", "20", "--n", "30", "--out", str(out)]
                + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()
    assert bench.ProblemRecipe("nnls", m=20, n=30, lam=-1.0).lam == -1.0


_BAD_OPTIONS = [
    (["--tol", "nan"], "tol must be non-negative"),
    (["--tol", "-1"], "tol must be non-negative"),
    (["--budget-s", "nan"], "budget_seconds must be positive"),
    (["--budget-s", "0"], "budget_seconds must be positive"),
]
_BAD_OPTION_IDS = ["nan-tol", "negative-tol", "nan-budget", "zero-budget"]


@pytest.mark.parametrize("args, message", _BAD_OPTIONS, ids=_BAD_OPTION_IDS)
def test_solve_bad_options_exit_2(tmp_path, monkeypatch, capsys, args,
                                  message):
    # a NaN tol or budget would run the solve to its cap: the options are
    # checked before a problem is generated or a trace written
    monkeypatch.setattr(cli, "generate", _no_generate)
    out = tmp_path / "trace.csv"
    assert main(["solve", "--m", "20", "--n", "30", "--out", str(out)]
                + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("args, message", _BAD_OPTIONS + [
    (["--solvers", ","], "no solvers given"),
    (["--solvers", ""], "no solvers given"),
], ids=_BAD_OPTION_IDS + ["comma-solvers", "empty-solvers"])
def test_race_bad_options_exit_2(tmp_path, monkeypatch, capsys, args,
                                 message):
    # checked once, before any problem is generated or solved, and before
    # the output directory or its manifest is made
    monkeypatch.setattr(cli, "generate", _no_generate)
    out_dir = tmp_path / "rc"
    assert main(["race", "--families", "lasso_diff3d", "--out-dir",
                 str(out_dir)] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out_dir.exists()


def _no_generate(recipe):
    raise AssertionError("a problem was generated")


def test_prox_worked_example(tmp_path, capsys):
    path = tmp_path / "orthant.txt"
    path.write_text(ORTHANT_EXAMPLE)
    assert main(["prox", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    np.testing.assert_allclose([float(v) for v in lines[:2]], [0.5, 0.0])
    assert "alpha_star=0.5 " in lines[2]
    assert "method=ssnewton" in lines[2]

    assert main(["prox", "--input", str(path), "--finder", "exact"]) == 0
    summary = capsys.readouterr().out.strip().splitlines()[2]
    assert "alpha_star=0.5 " in summary and "method=exact" in summary

    assert main(["prox", "--input", str(path), "--finder", "bisection"]) == 0
    summary = capsys.readouterr().out.strip().splitlines()[2]
    alpha = float(summary.split()[0].split("=")[1])
    assert alpha == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("signs", [("+", "+1", "1"), ("-", "-1")])
def test_prox_sign_spellings_agree(tmp_path, capsys, signs):
    # the accepted spellings of each sign give the same prox
    outputs = []
    for sign in signs:
        path = tmp_path / "signed.txt"
        path.write_text(ORTHANT_EXAMPLE.replace("# sign: +", f"# sign: {sign}")
                        .replace("# vector: u\n1.0\n1.0",
                                 "# vector: u\n0.5\n0.5"))
        assert main(["prox", "--input", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(set(outputs)) == 1


def test_prox_rank0_echoes_diagonal_prox(tmp_path, capsys):
    path = tmp_path / "diag.txt"
    path.write_text("# h: l1\n# lam: 1.0\n# vector: x\n2.0\n-3.0\n"
                    "# vector: d\n2.0\n1.0\n")
    assert main(["prox", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    np.testing.assert_allclose([float(v) for v in lines[:2]], [1.5, -2.0])
    assert "method=diagonal" in lines[2]


def test_prox_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("# vector: x\nnot-a-number\n")
    assert main(["prox", "--input", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


_PROX_X, _PROX_D = [1.5, -0.7, 0.3, -2.0], [1.0, 1.0, 2.0, 2.0]
_PROX_U = [0.3, -0.2, 0.1, 0.4]
_HALVES = [np.arange(2), np.arange(2, 4)]


def _prox_text(meta, x=_PROX_X, d=_PROX_D, u=_PROX_U):
    lines = [f"# {key}: {value}" for key, value in meta.items()]
    for name, values in (("x", x), ("d", d), ("u", u)):
        if values is not None:
            lines += [f"# vector: {name}", *(repr(v) for v in values)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text, finder, message", [
    (ORTHANT_EXAMPLE.replace("# kappa: 1.0", "# kappa: -1"), "auto",
     "kappa must be positive"),
    (ORTHANT_EXAMPLE.replace("# h: nonneg", "# h: l1").replace(
        "# kappa: 1.0", "# kappa: nan"), "auto", "kappa must be positive"),
    ("# h: group_l1l2\n# blocks: 2\n# vector: x\n1.0\n2.0\n"
     "# vector: d\n1.0\n2.0\n# vector: u\n0.3\n0.1\n", "auto",
     "constant within blocks"),
    (ORTHANT_EXAMPLE.replace("# h: nonneg", "# h: linf_norm"), "exact",
     "no piecewise-affine descriptor"),
    (ORTHANT_EXAMPLE.replace("# h: nonneg", "# h: group_l1l2\n# blocks: 2"),
     "exact", "no piecewise-affine descriptor"),
    (ORTHANT_EXAMPLE.replace("# h: nonneg", "# h: l1\n# lam: nan"), "auto",
     "l1 weight must be positive"),
    (ORTHANT_EXAMPLE.replace("# sign: +", "# sign: plus"), "auto",
     "sign must be + or -, got 'plus'"),
    (ORTHANT_EXAMPLE.replace("# sign: +", "# sign: plus").replace(
        "# vector: u\n1.0\n1.0", "# vector: u\n0.5\n0.5"), "exact",
     "sign must be + or -, got 'plus'"),
    # a key the chosen h does not read ran at that key's default
    (ORTHANT_EXAMPLE.replace("# h: nonneg", "# h: linf_ball\n# lam: 5"),
     "auto", "h linf_ball reads no metadata key 'lam'"),
    (ORTHANT_EXAMPLE.replace("# h: nonneg", "# h: l1\n# lamda: 5"),
     "auto", "h l1 reads no metadata key 'lamda'"),
    (_prox_text({"h": "lasso"}), "auto", "unknown function id 'lasso'"),
    (_prox_text({"h": "group_l1l2", "blocks": "2,1"}), "auto",
     "group sizes must sum to the dimension"),
    (_prox_text({"h": "group_l1l2"}), "auto",
     "group sizes must sum to the dimension"),
    # a bad lam and bad sizes: the sizes are checked before the operator,
    # lam's number parsed before the sizes
    (_prox_text({"h": "group_l1l2", "lam": -1, "blocks": "3"}), "auto",
     "group sizes must sum to the dimension"),
    (_prox_text({"h": "group_l1l2", "lam": "big", "blocks": "3"}), "auto",
     "could not convert string to float: 'big'"),
    (_prox_text({"h": "group_l1l2", "lam": -1, "blocks": "2,2"}), "auto",
     "group weight must be positive"),
    (_prox_text({"h": "box", "lo": 2.0}), "auto",
     "box bounds must satisfy lo <= hi"),
    (_prox_text({}, x=None), "auto", "input must define vectors x and d"),
    (_prox_text({}, d=None), "auto", "input must define vectors x and d"),
    (_prox_text({}, d=_PROX_D[:3]), "auto", "x and d must have equal length"),
    ("# h: l1\n1.0\n" + _prox_text({}), "auto",
     "line 2: value outside any vector"),
], ids=["negative-kappa", "nan-kappa", "weights-vary-in-a-block",
        "exact-linf", "exact-group", "nan-lam", "unknown-sign",
        "unknown-sign-small-u", "lam-on-linf-ball", "misspelt-lam",
        "unknown-id", "sizes-short", "no-sizes", "negative-lam-bad-sizes",
        "unparsed-lam-bad-sizes", "negative-group-lam", "empty-box",
        "no-x", "no-d", "unequal-lengths", "value-outside-a-vector"])
def test_prox_bad_input_exits_2(tmp_path, capsys, text, finder, message):
    # input the prox rejects is a configuration error, not a solver failure
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["prox", "--input", str(path), "--finder", finder]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


@pytest.mark.parametrize("finder", ["auto", "exact", "bisection"])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_prox_bad_tol_exits_2(tmp_path, capsys, tol, finder):
    # a NaN or infinite tol ended the Newton before its first step, and the
    # starting point alpha = 0 (residual 1.5; the root is -2/3) was
    # printed as converged with exit 0
    path = tmp_path / "l1.txt"
    path.write_text("# h: l1\n# vector: x\n1.0\n0.5\n# vector: d\n1.0\n1.0\n"
                    "# vector: u\n1.0\n1.0\n")
    assert main(["prox", "--input", str(path), "--tol", tol,
                 "--finder", finder]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") \
        and "tol must be finite and non-negative" in captured.err


def test_prox_unconverged_report_exits_3(tmp_path, capsys):
    # a NaN entry in x ends the rank-1 Newton at a NaN residual, which its
    # report marks unconverged: the result is printed, and the exit code
    # is the solver failure's
    path = tmp_path / "nan.txt"
    path.write_text(ORTHANT_EXAMPLE.replace("# h: nonneg", "# h: l1")
                    .replace("# vector: x\n1.0\n", "# vector: x\nnan\n"))
    assert main(["prox", "--input", str(path)]) == 3
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert "residual=nan" in summary and "method=ssnewton" in summary


def test_prox_group_input(tmp_path, capsys):
    path = tmp_path / "group.txt"
    path.write_text("# h: group_l1l2\n# lam: 0.5\n# blocks: 2,2\n# sign: -\n"
                    "# vector: x\n1.0\n2.0\n-1.0\n0.5\n"
                    "# vector: d\n1.0\n1.0\n2.0\n2.0\n"
                    "# vector: u\n0.3\n-0.2\n0.1\n0.4\n")
    assert main(["prox", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "method=ssnewton" in lines[-1]


@pytest.mark.parametrize("sign", ["+", "-"], ids=["plus", "minus"])
@pytest.mark.parametrize("meta, op", [
    ({}, L1Norm(1.0)),
    ({"h": "l1", "lam": 0.5}, L1Norm(0.5)),
    ({"h": "nonneg"}, NonNeg()),
    ({"h": "box"}, Box(-1.0, 1.0)),
    ({"h": "box", "lo": -0.5, "hi": 0.75}, Box(-0.5, 0.75)),
    ({"h": "hinge"}, Hinge(1.0)),
    ({"h": "hinge", "lam": 0.5}, Hinge(0.5)),
    ({"h": "linf_ball"}, LinfBall(1.0)),
    ({"h": "linf_ball", "radius": 0.8}, LinfBall(0.8)),
    ({"h": "l1_ball"}, L1Ball(1.0)),
    ({"h": "l1_ball", "radius": 2.0}, L1Ball(2.0)),
    ({"h": "simplex"}, Simplex(1.0)),
    ({"h": "simplex", "radius": 2.0}, Simplex(2.0)),
    ({"h": "linf_norm"}, LinfNorm(1.0)),
    ({"h": "linf_norm", "lam": 0.5}, LinfNorm(0.5)),
    ({"h": "max"}, MaxFunction(1.0)),
    ({"h": "max", "lam": 0.5}, MaxFunction(0.5)),
    ({"h": "zero"}, Zero()),
    ({"h": "group_l1l2", "blocks": "2,2"}, GroupL2(1.0, _HALVES)),
    ({"h": "GROUP_L1L2", "lam": 0.5, "blocks": "2,2"},
     GroupL2(0.5, _HALVES)),
], ids=lambda v: ",".join(map(str, v.values())) or "default"
    if isinstance(v, dict) else type(v).__name__)
def test_prox_function_ids_print_the_operators_prox(tmp_path, capsys, meta,
                                                    op, sign):
    # each id with its keys, or their defaults, is the operator's scaled
    # prox on the same inputs
    path = tmp_path / "prox.txt"
    path.write_text(_prox_text({**meta, "sign": sign}))
    assert main(["prox", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    metric = LowRankMetric(np.array(_PROX_D), [np.array(_PROX_U)],
                           1 if sign == "+" else -1)
    p, report = scaled_prox(metric, op, np.array(_PROX_X))
    assert [float(v) for v in lines[:-1]] == p.tolist()
    assert f"method={report.method} " in lines[-1]


def test_validate_single_suite(capsys):
    assert main(["validate", "--suite", "metric"]) == 0
    assert capsys.readouterr().out.startswith("PASS metric")


@pytest.mark.parametrize("args, message", [
    (["--count", "0"], "--count: must be at least 1, got 0"),
    (["--count", "-3"], "--count: must be at least 1, got -3"),
    (["--n", "1"], "--n: must be at least 2, got 1"),
], ids=["zero-count", "negative-count", "n-1"])
def test_validate_bad_size_exits_2(capsys, args, message):
    # a count of 0 passed the suite on no instances, and n = 1 ended in a
    # numpy traceback with the exit code of a failed suite
    with pytest.raises(SystemExit) as exc:
        main(["validate"] + args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_validate_eigen_bounds_keeps_its_instance_at_small_n(capsys):
    # --n 2 reached the suite's dimension, and a 2-d solve records 14
    # metric pairs where the gate asks for 200: with --n 2 the suite runs
    # its own instance and records as many pairs as it does by default
    rc = main(["validate", "--suite", "eigen-bounds", "--n", "2",
               "--count", "1"])
    assert rc == 0
    default = validate.suite_eigen_bounds()
    assert default.passed
    metrics = default.detail.split(",")[0]
    assert capsys.readouterr().out.startswith(f"PASS eigen-bounds: {metrics},")


def test_validate_filtered_prox_oracle(capsys):
    rc = main(["validate", "--suite", "prox-oracle", "--n", "12",
               "--count", "3"])
    assert rc == 0
    assert "PASS prox-oracle" in capsys.readouterr().out


def test_race_subcommand(tmp_path, env_cache, capsys):
    rc = main(["race", "--families", "lasso_diff3d", "--solvers",
               "zero-sr1,ista", "--out-dir", str(tmp_path / "rc"),
               "--gnuplot", "--max-iters", "50000"])
    assert rc == 0
    files = sorted(os.listdir(tmp_path / "rc"))
    assert "manifest.json" in files and "plot.gp" in files
    assert sum(f.endswith(".csv") for f in files) == 2


def test_race_nonfinite_objective_exits_3(tmp_path, monkeypatch, capsys):
    problem = ProblemSpec(dim=4, f=lambda x: float("nan"), grad=lambda x: x,
                          h=L1Norm(0.1), lipschitz=1.0)
    monkeypatch.setattr(cli, "generate", lambda recipe: problem)
    monkeypatch.setattr(bench, "reference_solution",
                        lambda problem, cache_dir=None: ReferenceSolution(
                            np.zeros(4), 0.0, False, True))
    rc = main(["race", "--families", "lasso_diff3d", "--solvers",
               "zero-sr1,ista", "--out-dir", str(tmp_path / "rc")])
    assert rc == 3
    assert capsys.readouterr().out.count("status=nonfinite") == 2


def test_race_unknown_family(env_cache, capsys):
    assert main(["race", "--families", "made_up"]) == 2
