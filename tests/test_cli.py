"""Command-line contract: exit codes, report serialization, plot CSVs,
config-file defaults, reproducibility."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import symgap
from symgap import cli
from symgap.cli import (
    EXPERIMENTS,
    ExperimentConfig,
    _declared,
    build_parser,
    emit_plot_data,
    main,
    run,
)


def run_main(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


_DEGENERATE = [
    (["chernoff", "--m", "0"], "m_prime must be positive and even, got 0"),
    (["menu-separation", "--menu-trials", "0"], "menu_trials must be positive, got 0"),
    (["basic-count", "--n", "0"], "need positive n and m with n | m, got n = 0, m = 4"),
    (["basic-count", "--m", "0"], "need positive n and m with n | m, got n = 2, m = 0"),
    (["greedy-ratio", "--m-max", "3"], "m_max must be >= 4, got 3"),
    (["greedy-ratio", "--k-max", "0"], "k_max must be >= 1, got 0"),
    *(
        ([exp, "--family", "coverage", "--m", m],
         f"--m must be >= 2 to draw a coverage oracle, got {m}")
        for exp in ("submod-check", "concavity", "poisson-midr")
        for m in ("0", "1")
    ),
    # counts that once passed on zero checks or wrote NaN
    *(
        ([exp, flag, v], f"{flag[2:].replace('-', '_')} must be positive, got {v}")
        for exp, flag in (
            ("symgap", "--partitions"), ("symgap", "--n"), ("amplify", "--ell"),
            ("amplify", "--chains"), ("vcg-audit", "--deviations"),
            ("greedy-ratio", "--instances"), ("product-compose", "--pairs"),
            ("menu-separation", "--configs"),
        )
        for v in ("0", "-1")
    ),
    (["vcg-audit", "--m", "0"], "m must be positive, got 0"),
    (["gap955", "--mc-samples", "-1"], "mc_samples must be >= 0, got -1"),
    # sizes that once crashed or named no flag
    (["concavity", "--family", "additive", "--m", "0"],
     "--m must be >= 1 to draw an additive oracle, got 0"),
    *(
        (["submod-check", "--family", family, "--m", "0"],
         "--m must be >= 1 for an exhaustive check, got 0")
        for family in ("additive", "budget_additive", "polar")
    ),
    # an odd size once dropped an item and reported the odd m
    (["submod-check", "--family", "two_block_product", "--m", "9"],
     "--m must be even and >= 2 for a two-block family, got 9"),
    (["poisson-midr", "--family", "two_block_product", "--m", "7"],
     "--m must be even and >= 2 for a two-block family, got 7"),
    (["submod-check", "--family", "symgap", "--m", "9"],
     "--m must be even and >= 2 for a two-block family, got 9"),
    (["poisson-midr", "--family", "two_block_product", "--m", "0"],
     "--m must be even and >= 2 for a two-block family, got 0"),
    # below 4 items one half holds no pair: the pair gate once wrote NaN
    *(
        (["bisect-uniformity", "--m", v],
         f"--m must be even and >= 4 for a pair inside one half, got {v}")
        for v in ("0", "2", "33")
    ),
    *(
        ([exp, "--grid", v], f"grid must be >= 2, got {v}")
        for exp in ("psi-tilde-check", "inequalities")
        for v in ("0", "-1", "1")
    ),
    # float flags that once crashed, failed a claim, passed vacuously or named no flag
    *(
        (["concavity", "--step", v], f"step must lie in (0, 1], got {float(v)!r}")
        for v in ("0", "inf", "nan", "-1")
    ),
    *(
        ([exp, "--beta", v], f"beta must be finite and >= 0, got {v}")
        for exp in ("psi-tilde-check", "symgap")
        for v in ("inf", "nan")
    ),
    *(
        (["inequalities", "--figure-delta", v], f"figure_delta must be finite, got {v}")
        for v in ("inf", "nan")
    ),
    # alpha' = sqrt(delta) alpha leaves (0, 1] outside this range
    *(
        (["amplify", "--delta", v], f"--delta must be 'paper' or lie in (0, 1], got {v!r}")
        for v in ("nan", "inf", "-0.1", "0", "2", "half")
    ),
]


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        code, out = run_main(["inequalities", "--grid", "2000"], tmp_path)
        assert code == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_assertion_failure_is_two(self, tmp_path):
        # two blocks are far too few for near-saturated endpoints
        code, out = run_main(["gap955", "--blocks", "2", "--alpha", "0.5"], tmp_path)
        assert code == 2
        rep = json.loads(out.read_text())
        assert rep["passed"] is False
        assert rep["assertions"]["endpoints_near_one"] is False

    def test_usage_errors_are_one(self, capsys):
        assert main([]) == 1
        assert main(["symgap", "--ell", "3"]) == 1
        assert main(["chernoff", "--m", "101", "--beta", "0.1"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("seed", range(4))
    def test_product_submod_check_passes(self, tmp_path, seed):
        # random components exceed 1 on the full set and are rescaled first
        code, out = run_main(
            ["submod-check", "--family", "product", "--seed", str(seed)], tmp_path
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["passed"] is True and rep["checked"] > 0

    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["not-an-experiment"])
        assert exc.value.code == 1

    def test_bad_flag_value_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["gap955", "--blocks", "many"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["gap955", "--trials", "5"],  # gap955 runs no trials
            ["suite", "--all"],  # the suite always runs every experiment
            ["submod-check", "--mode", "bogus"],
            ["bisect-uniformity", "--ell", "3"],  # it draws one bisection, no levels
        ],
    )
    def test_undeclared_flag_or_choice_exits_one(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 1
        capsys.readouterr()

    def test_gap955_alpha_without_assertions_exits_one(self, tmp_path, capsys):
        # only alpha 0.5 and 1.0 have claims to check
        with pytest.raises(SystemExit) as exc:
            main(["gap955", "--alpha", "0.7", "--blocks", "20"])
        assert exc.value.code == 1
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"alpha": 0.7, "blocks": 20}))
        assert main(["gap955", "--config", str(cfgfile)]) == 1
        assert "alpha must be one of [0.5, 1.0]" in capsys.readouterr().err

    def test_psi_tilde_check_at_beta_zero_reports(self, tmp_path):
        code, out = run_main(["psi-tilde-check", "--beta", "0", "--grid", "50"], tmp_path)
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["params"]["beta"] == 0.0
        assert rep["checks"]["induced_set_function_submodular"] is True

    def test_zero_trials_is_usage_error(self, capsys):
        assert main(["bisect-uniformity", "--trials", "0"]) == 1
        assert "trials must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["chernoff", "basic-count"])
    def test_exact_laws_take_no_trials(self, tmp_path, experiment, capsys):
        # both compute their law exactly: a trial count would do nothing
        with pytest.raises(SystemExit) as exc:
            main([experiment, "--trials", "100"])
        assert exc.value.code == 1
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"trials": 100}))
        assert main([experiment, "--config", str(cfgfile)]) == 1
        assert "unknown config keys: ['trials']" in capsys.readouterr().err
        with pytest.raises(ValueError, match=r"takes no parameters \['trials'\]"):
            run(ExperimentConfig(experiment, {"trials": 100}))

    def test_workers_accepts_only_one(self, tmp_path, capsys):
        args = ["gap955", "--blocks", "20", "--mc-samples", "2000", "--seed", "3"]
        _, plain = run_main(args, tmp_path, "plain.json")
        _, one = run_main(args + ["--workers", "1"], tmp_path, "one.json")
        assert one.read_bytes() == plain.read_bytes()
        with pytest.raises(SystemExit) as exc:
            main(args + ["--workers", "2"])
        assert exc.value.code == 1
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"workers": 2}))
        assert main(args + ["--config", str(cfgfile)]) == 1
        assert "workers must be 1" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["nan", "0", "1", "-0.5", "1.5"])
    def test_chernoff_beta_outside_unit_interval_exits_one(self, tmp_path, beta, capsys):
        out = tmp_path / "out.json"
        args = ["chernoff", "--m", "100", "--beta", beta, "--out", str(out)]
        assert main(args) == 1
        assert not out.exists()
        assert "beta must lie in (0, 1)" in capsys.readouterr().err

    def test_gap955_single_mc_sample_exits_one(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["gap955", "--blocks", "4", "--mc-samples", "1", "--out", str(out)]) == 1
        assert not out.exists()
        assert "samples must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["1", "0"])
    @pytest.mark.parametrize("experiment", ["poisson-midr", "scaling-probe"])
    def test_below_two_trials_exits_one(self, tmp_path, experiment, trials, capsys):
        # one sample has no standard error, so the rounding check and the
        # weak-monotonicity gate cannot run
        out = tmp_path / "out.json"
        assert main([experiment, "--trials", trials, "--out", str(out)]) == 1
        assert not out.exists()
        assert "trials must be" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["0", "1"])
    def test_sampled_structure_check_below_two_items_exits_one(self, tmp_path, m, capsys):
        out = tmp_path / "out.json"
        args = ["submod-check", "--mode", "sampled", "--family", "additive", "--m", m]
        assert main(args + ["--out", str(out)]) == 1
        assert not out.exists()
        assert "m must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message", [pytest.param(*case, id=" ".join(case[0])) for case in _DEGENERATE]
    )
    def test_degenerate_size_exits_one(self, tmp_path, args, message, capsys):
        out = tmp_path / "out.json"
        assert main(args + ["--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"symgap: error: {message}\n"

    @pytest.mark.parametrize(
        "args",
        [["submod-check", "--family", "random"], ["submod-check", "--family", "product"],
         ["product-compose", "--pairs", "20"]],
        ids=" ".join,
    )
    def test_random_families_need_two_items_at_every_seed(self, args, capsys):
        # at m = 1 the outcome once depended on the seed (exit 0 or 1); at
        # m = 2 a drawn coverage set could ask for 3 of 2 elements
        for seed in range(6):
            for m in ("0", "1"):
                assert main(args + ["--m", m, "--seed", str(seed)]) == 1
                assert "--m must be >= 2 to draw random oracles" in capsys.readouterr().err
            assert main(args + ["--m", "2", "--seed", str(seed)]) == 0
            capsys.readouterr()

    def test_help_shows_declared_default(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gap955", "--help"])
        assert exc.value.code == 0
        assert re.search(r"--blocks BLOCKS\s+default: 200\n", capsys.readouterr().out)


def _int_flag_cases():
    for name, fn in EXPERIMENTS.items():
        if name == "suite":  # it runs every other subcommand
            continue
        for param, (tp, _, _) in _declared(fn).items():
            if tp is int:
                for value in ("0", "-1"):
                    yield [name, "--" + param.replace("_", "-"), value]
        yield [name, "--seed", "-1"]  # --seed 0 is the default run


@pytest.mark.parametrize("args", list(_int_flag_cases()), ids=" ".join)
def test_int_flag_at_zero_or_minus_one_never_crashes(args, tmp_path):
    """Every int flag of every subcommand, one at a time: a pass, a failed
    claim or a usage error, and a report exactly when it is not a usage
    error.  An escaping exception fails the test."""
    out = tmp_path / "out.json"
    code = main(args + ["--out", str(out)])
    assert code in (0, 1, 2)
    assert out.exists() == (code != 1)


def _float_flag_cases():
    for name, fn in EXPERIMENTS.items():
        if name == "suite":  # it runs every other subcommand
            continue
        for param, (tp, _, _) in _declared(fn).items():
            if tp is float:
                for value in ("nan", "inf", "-1", "0"):
                    yield [name, "--" + param.replace("_", "-"), value]
    # a string flag that takes "paper" or a number
    for value in ("nan", "inf", "-1", "0"):
        yield ["amplify", "--delta", value]


@pytest.mark.parametrize("args", list(_float_flag_cases()), ids=" ".join)
def test_float_flag_at_degenerate_values_never_crashes(args, tmp_path, capsys):
    """Every float flag of every subcommand at nan, inf, -1 and 0, one at a
    time: a pass, a failed claim or a usage error (argparse's rejected
    choices included), and a report exactly when it is not a usage error.
    An escaping exception fails the test."""
    out = tmp_path / "out.json"
    try:
        code = main(args + ["--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)
    assert out.exists() == (code != 1)
    capsys.readouterr()


class TestReproducibility:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["bisect-uniformity", "--trials", "500", "--seed", "5"]
        _, a = run_main(args, tmp_path, "a.json")
        _, b = run_main(args, tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_stochastic_output(self, tmp_path):
        base = ["bisect-uniformity", "--trials", "500"]
        _, a = run_main(base + ["--seed", "1"], tmp_path, "a.json")
        _, b = run_main(base + ["--seed", "2"], tmp_path, "b.json")
        ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
        assert ja["z_max_membership"] != jb["z_max_membership"]
        assert ja["params"] == jb["params"]

    @pytest.mark.parametrize(
        "args", [["chernoff", "--m", "100", "--beta", "0.2"], ["basic-count", "--n", "2", "--m", "4"]]
    )
    def test_exact_laws_ignore_the_seed(self, tmp_path, args):
        # seed 362 once failed basic-count's 3-sigma gate on an identity
        _, a = run_main(args + ["--seed", "0"], tmp_path, "a.json")
        code, b = run_main(args + ["--seed", "362"], tmp_path, "b.json")
        assert code == 0
        ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
        assert (ja.pop("seed"), jb.pop("seed")) == (0, 362)
        assert ja == jb

    def test_menu_separation_seed_5_passes(self, tmp_path):
        # its once grid-scanned reference missed a narrow feasible interval
        code, out = run_main(["menu-separation", "--seed", "5"], tmp_path)
        assert code == 0
        assert json.loads(out.read_text())["grid_oracle_mismatches"] == []

    def test_stdout_when_no_out_flag(self, capsys):
        code = main(["inequalities", "--grid", "1000"])
        assert code == 0
        text = capsys.readouterr().out
        assert json.loads(text)["experiment"] == "scalar_inequalities"


class TestCsvOutput:
    def test_psi_tilde_grid_rows(self, tmp_path):
        code, out = run_main(
            ["psi-tilde-check", "--grid", "40", "--format", "csv"], tmp_path, "g.csv"
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,psi,psi_tilde"
        assert len(lines) == 1 + 101 * 101

    def test_inequalities_figure_rows(self, tmp_path):
        code, out = run_main(
            ["inequalities", "--grid", "2000", "--figure-delta", "0.05", "--format", "csv"],
            tmp_path,
            "f.csv",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,f1_ramp,f2_quad_plus_delta,f3_quad"
        assert len(lines) == 1 + 501

    def test_gap955_segment_rows(self, tmp_path):
        code, out = run_main(
            ["gap955", "--blocks", "50", "--format", "csv"], tmp_path, "s.csv"
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 22


class TestEmitPlotData:
    def test_empty_report_header_only(self):
        assert emit_plot_data({}) == [["key", "value"]]

    def test_default_scalar_rows_sorted(self):
        rows = emit_plot_data({"b": 2, "a": 1, "nested": {"x": 1}, "s": "ok"})
        assert rows[0] == ["key", "value"]
        assert rows[1:] == [["a", 1], ["b", 2], ["s", "ok"]]

    def test_symmetry_gap_rows(self):
        rep = {
            "experiment": "symmetry_gap",
            "mechanisms": [
                {
                    "mechanism": "greedy",
                    "value_mean": 0.8,
                    "X_mean": 0.5,
                    "unbalanced_rate": 0.01,
                    "chernoff_bound": 0.5,
                }
            ],
        }
        rows = emit_plot_data(rep)
        assert rows[0][0] == "mechanism"
        assert rows[1] == ["greedy", 0.8, 0.5, 0.01, 0.5]

    def test_scaling_probe_rows(self):
        rep = {
            "experiment": "scaling_probe",
            "trace": [{"alpha": 0.5, "value": 0.9, "stderr": 0.01}],
        }
        assert emit_plot_data(rep)[1] == [0.5, 0.9, 0.01]


class TestConfigFile:
    def test_file_defaults_and_flag_override(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"blocks": 4, "alpha": 1.0}))
        _, out = run_main(
            ["gap955", "--config", str(cfgfile)], tmp_path, "a.json"
        )
        rep = json.loads(out.read_text())
        assert rep["params"] == {"blocks": 4, "alpha": 1.0}
        _, out2 = run_main(
            ["gap955", "--config", str(cfgfile), "--blocks", "8"], tmp_path, "b.json"
        )
        assert json.loads(out2.read_text())["params"]["blocks"] == 8

    def test_common_keys_from_file(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"seed": 42, "grid": 1500}))
        _, out = run_main(["inequalities", "--config", str(cfgfile)], tmp_path)
        rep = json.loads(out.read_text())
        assert rep["params"]["grid"] == 1500

    def test_file_values_take_the_declared_type(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"alpha": 1, "blocks": 4}))
        _, out = run_main(["gap955", "--config", str(cfgfile)], tmp_path)
        assert '"alpha": 1.0,' in out.read_text()

    def test_concavity_echoes_converted_values(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(
            json.dumps({"family": "two_block_product", "alpha": 1, "blocks": 8})
        )
        _, out = run_main(["concavity", "--config", str(cfgfile), "--trials", "10"], tmp_path)
        text = out.read_text()
        assert '"alpha": 1.0,' in text
        assert json.loads(text)["params"] == {
            "family": "two_block_product", "alpha": 1.0, "blocks": 8,
        }

    def test_file_value_outside_declared_choices_exits_one(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"mode": "bogus"}))
        assert main(["submod-check", "--config", str(cfgfile)]) == 1
        assert "mode must be one of" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"blocs": 4}))
        assert main(["gap955", "--config", str(cfgfile)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, given, named",
        [
            (["--m", "40"], {}, "--m"),
            (["--k", "20", "--beta", "0.2"], {}, "--k --beta"),
            ([], {"n": 4}, "--n"),
            (["--m", "40"], {"beta": 0.2}, "--m --beta"),
        ],
    )
    def test_ell_with_its_own_sizes_exits_one(self, tmp_path, capsys, flags, given, named):
        # --ell sets m, k, n and beta; an explicit value once lost silently
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(given))
        out = tmp_path / "out.json"
        args = ["symgap", "--ell", "1", "--partitions", "1", "--config", str(cfgfile)]
        assert main(args + flags + ["--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"symgap: error: --ell sets --m, --k, --n and --beta; drop {named}\n"
        )

    @pytest.mark.parametrize("where", ["flags", "file"])
    @pytest.mark.parametrize(
        "args, given, reason",
        [
            (["concavity", "--family", "coverage"], {"blocks": 7, "alpha": 0.3, "trials": 5},
             "concavity --family coverage"),
            (["concavity"], {"m": 4}, "concavity --family budget_additive_demo"),
            (["concavity", "--family", "additive", "--m", "3"], {"blocks": 9},
             "concavity --family additive"),
            (["concavity", "--family", "two_block_product", "--alpha", "0.5"], {"trials": 5},
             "concavity --family two_block_product --alpha 0.5"),
            (["concavity", "--family", "two_block_product"], {"m": 4, "step": 0.25},
             "concavity --family two_block_product --alpha 1.0"),
            (["submod-check", "--family", "additive"], {"alpha": 0.2, "omega": 0.9, "trials": 3},
             "submod-check --family additive --mode exhaustive"),
            (["submod-check", "--family", "two_block_product", "--mode", "sampled"],
             {"beta": 0.2, "omega": 0.3}, "submod-check --family two_block_product --mode sampled"),
            (["submod-check", "--family", "polar"], {"alpha": 0.7, "beta": 0.2},
             "submod-check --family polar --mode exhaustive"),
            (["submod-check", "--family", "symgap"], {"trials": 50},
             "submod-check --family symgap --mode exhaustive"),
        ],
    )
    def test_flags_the_run_does_not_read_exit_one(
        self, tmp_path, capsys, args, given, reason, where
    ):
        # each was once accepted, echoed in the report and never read
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(given if where == "file" else {}))
        flags = [] if where == "file" else [
            str(x) for name, value in given.items() for x in (f"--{name}", value)
        ]
        out = tmp_path / "out.json"
        assert main(args + flags + ["--config", str(cfgfile), "--out", str(out)]) == 1
        assert not out.exists()
        named = " ".join(f"--{name}" for name in given)
        assert capsys.readouterr().err == (
            f"symgap: error: {reason} reads none of these; drop {named}\n"
        )

    @pytest.mark.parametrize(
        "args",
        [
            ["concavity", "--family", "additive", "--m", "3", "--step", "0.5"],
            ["concavity", "--family", "two_block_product", "--blocks", "8", "--alpha", "0.5"],
            ["concavity", "--family", "two_block_product", "--blocks", "8", "--trials", "20"],
            ["submod-check", "--family", "symgap", "--alpha", "0.7", "--beta", "0.2"],
            ["submod-check", "--family", "polar", "--omega", "0.3", "--mode", "sampled",
             "--trials", "20"],
        ],
        ids=" ".join,
    )
    def test_flags_the_run_reads_are_accepted(self, tmp_path, args):
        assert run_main(args, tmp_path)[0] == 0

    def test_missing_config_file_exits_one(self, capsys):
        assert main(["gap955", "--config", "/nonexistent/cfg.json"]) == 1
        capsys.readouterr()


class TestRunApi:
    def test_all_experiments_registered(self):
        expected = {
            "gap955",
            "concavity",
            "submod-check",
            "product-compose",
            "psi-tilde-check",
            "chernoff",
            "bisect-uniformity",
            "greedy-ratio",
            "poisson-midr",
            "vcg-audit",
            "symgap",
            "menu-separation",
            "amplify",
            "inequalities",
            "basic-count",
            "scaling-probe",
            "suite",
        }
        assert set(EXPERIMENTS) == expected

    def test_run_returns_code_and_report(self):
        code, rep = run(ExperimentConfig("inequalities", {"grid": 1000}))
        assert code == 0
        assert rep["experiment"] == "scalar_inequalities"

    def test_suite_fast_smoke(self):
        code, rep = run(ExperimentConfig("suite", {"fast": True}, seed=0))
        assert code == 0
        assert rep["passed"] is True
        assert rep["byte_identical_reruns"] is True
        assert len(rep["reports"]) >= 20


class TestParserBuild:
    @staticmethod
    def _choices(parser):
        (action,) = parser._subparsers._group_actions
        return set(action.choices)

    def test_main_builds_only_the_chosen_subparser(self, tmp_path, monkeypatch):
        built = []

        def spy(only=None):
            built.append(only)
            return build_parser(only)

        monkeypatch.setattr(cli, "build_parser", spy)
        assert main(["inequalities", "--grid", "1000", "--out", str(tmp_path / "o.json")]) == 0
        assert built == ["inequalities"]

    def test_every_subparser_by_default(self):
        assert self._choices(build_parser()) == set(EXPERIMENTS)
        assert self._choices(build_parser("gap955")) == {"gap955"}

    def test_leftover_argument_shows_the_full_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gap955", "extra"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        build_parser().print_usage()
        assert err == capsys.readouterr().out + "symgap: error: unrecognized arguments: extra\n"


def test_cli_import_loads_no_scipy():
    """scipy is a test dependency only; a fresh interpreter that imports the
    CLI and builds its parser must not load it."""
    src = str(Path(symgap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, symgap.cli as cli; cli.build_parser(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "[]"
