import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nblgc.cli as cli
from nblgc.classify import DISTANCES
from nblgc.cli import main


def run_cli(argv):
    """main() returns exit codes; argparse paths raise SystemExit instead."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0


def extract_args(tree, out, *extra):
    return ["extract", "--data", str(tree), "--resize", "9x9",
            "--out", str(out), "--workers", "1", *extra]


def eval_args(tree, out, *extra):
    return ["evaluate", "--data", str(tree), "--resize", "9x9",
            "--train-per-class", "4", "--out", str(out), "--workers", "1", *extra]


def tree_digest(root):
    return {
        p.relative_to(root): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestHappyPaths:
    def test_extract(self, small_tree, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(extract_args(small_tree, out)) == 0
        lines = (out / "features.csv").read_text().splitlines()
        assert lines[0].startswith("path,class,variant,ref,v0,")
        assert len(lines) == 1 + 24  # header + 4 classes x 6 images
        assert lines[0].count(",") == 4 + 9 - 1  # 9x9 image -> 9 blocks
        echo = json.loads((out / "config.json").read_text())
        assert echo["command"] == "extract"
        assert echo["resize"] == "9x9"
        assert "out" not in echo and "workers" not in echo
        assert "wrote 24 feature rows" in capsys.readouterr().out

    def test_evaluate(self, small_tree, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(eval_args(small_tree, out)) == 0
        lines = (out / "report.csv").read_text().splitlines()
        overall = [l for l in lines if l.startswith("overall,")]
        assert len(overall) == 1
        _, correct, total, accuracy = overall[0].split(",")
        assert int(total) == 8  # 2 held-out images x 4 classes
        assert 0.0 <= float(accuracy) <= 100.0
        assert "accuracy" in capsys.readouterr().out
        assert (out / "config.json").exists()

    def test_kfold(self, small_tree, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["kfold", "--data", str(small_tree), "--resize", "9x9",
                "--folds", "3", "--out", str(out), "--workers", "1"]
        assert run_cli(args) == 0
        lines = (out / "folds.csv").read_text().splitlines()
        folds = [l for l in lines if l[:2] in ("1,", "2,", "3,")]
        assert len(folds) == 3
        assert lines[-1].startswith("# mean_accuracy=")
        assert "3 folds" in capsys.readouterr().out

    def test_reports_echo_k_once(self, small_tree, tmp_path):
        kfold = ["kfold", "--data", str(small_tree), "--resize", "9x9", "--folds", "3",
                 "--k", "2", "--out", str(tmp_path / "kfold"), "--workers", "1"]
        assert run_cli(eval_args(small_tree, tmp_path / "evaluate", "--k", "2")) == 0
        assert run_cli(kfold) == 0
        for report in (tmp_path / "evaluate" / "report.csv", tmp_path / "kfold" / "folds.csv"):
            lines = report.read_text().splitlines()
            assert [l for l in lines if l.startswith("# k=")] == ["# k=2"]
            assert not [l for l in lines if l.startswith("# neighbors_k=")]

    def test_roc(self, small_tree, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["roc", "--data", str(small_tree), "--resize", "9x9",
                "--train-per-class", "4", "--out", str(out), "--workers", "1"]
        assert run_cli(args) == 0
        lines = (out / "roc.csv").read_text().splitlines()
        assert "threshold,far,gar" in lines
        assert lines[-1] == "# gar counts accepted genuine trials directly; it is not 100-far"
        assert "roc points" in capsys.readouterr().out

    def test_svm_classifier_path(self, small_tree, tmp_path):
        out = tmp_path / "out"
        assert run_cli(eval_args(small_tree, out, "--classifier", "svm", "--degree", "1")) == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["classifier"] == "svm"

    def test_echo_holds_only_the_settings_the_run_reads(self, small_tree, tmp_path):
        svm_only, knn_only = {"degree", "C", "offset", "tol"}, {"k", "distance"}
        runs = {"knn": svm_only, "svm": knn_only}
        for classifier, unread in runs.items():
            out = tmp_path / classifier
            assert run_cli(eval_args(small_tree, out, "--classifier", classifier)) == 0
            echo = json.loads((out / "config.json").read_text())
            report = {line[2:].partition("=")[0] for line in (out / "report.csv").read_text().splitlines()
                      if line.startswith("# ")}
            for keys in (set(echo), report):
                assert not keys & (unread | {"folds", "thresholds", "out", "workers"})
                assert {"classifier", "zscore", "train_per_class"} <= keys
            assert echo["classifier"] == classifier
        roc = ["roc", "--data", str(small_tree), "--resize", "9x9", "--train-per-class", "4",
               "--out", str(tmp_path / "roc"), "--workers", "1"]
        assert run_cli(roc) == 0
        echo = json.loads((tmp_path / "roc" / "config.json").read_text())
        assert "distance" in echo and "thresholds" in echo
        assert not set(echo) & (svm_only | {"k", "classifier", "zscore", "folds"})

    @pytest.mark.parametrize("command,extra,output", [("extract", [], "features.csv"),
                                                      ("kfold", ["--folds", "3"], "folds.csv")])
    def test_seed_only_where_a_split_reads_it(self, small_tree, tmp_path, capsys, command, extra, output):
        args = [command, "--data", str(small_tree), "--resize", "9x9", "--workers", "1", *extra]
        assert run_cli(args + ["--out", str(tmp_path / "flag"), "--shuffle-seed", "1"]) == 1
        assert "unrecognized arguments: --shuffle-seed" in capsys.readouterr().err
        out = tmp_path / "out"
        assert run_cli(args + ["--out", str(out)]) == 0
        assert "shuffle_seed" not in json.loads((out / "config.json").read_text())
        assert "# shuffle_seed=" not in (out / output).read_text()

    @pytest.mark.parametrize("command,extra,output", [
        ("evaluate", ["--train-per-class", "4"], "report.csv"),
        ("evaluate", ["--train-per-class", "4", "--classifier", "svm", "--shuffle-seed", "3"], "report.csv"),
        ("kfold", ["--folds", "3", "--zscore"], "folds.csv"),
        ("roc", ["--train-per-class", "4", "--distance", "euclidean"], "roc.csv"),
    ])
    def test_csv_echo_is_config_json(self, small_tree, tmp_path, command, extra, output):
        out = tmp_path / "out"
        args = [command, "--data", str(small_tree), "--resize", "9x9", "--out", str(out), *extra]
        assert run_cli(args) == 0
        header = itertools.takewhile(lambda line: line.startswith("# "), (out / output).read_text().splitlines())
        echo = json.loads((out / "config.json").read_text())
        assert [line[2:].partition("=")[::2] for line in header] == [(k, str(v)) for k, v in sorted(echo.items())]

    def test_dataset_files_untouched(self, small_tree, tmp_path):
        before = tree_digest(small_tree)
        assert run_cli(extract_args(small_tree, tmp_path / "out")) == 0
        assert tree_digest(small_tree) == before


class TestExitCodes:
    def test_no_command_is_usage(self, capsys):
        assert run_cli([]) == 1
        capsys.readouterr()

    def test_unknown_flag_is_usage(self, capsys):
        assert run_cli(["extract", "--bogus"]) == 1
        capsys.readouterr()

    def test_bad_resize_is_usage(self, small_tree, tmp_path, capsys):
        for bad in ("9", "10x10", "ax9", "0x0"):
            code = run_cli(extract_args(small_tree, tmp_path / "out", "--resize", bad))
            assert code == 1, bad
        assert "--resize" in capsys.readouterr().err

    def test_resize_above_the_pixel_bound_is_usage(self, tmp_path, capsys):
        # --data does not exist, which would exit 2: exit 1 shows no file was read
        for big in ("258x258", "999x999", "30000x30000"):
            assert run_cli(extract_args(tmp_path / "absent", tmp_path / "out", "--resize", big)) == 1, big
        assert "--resize" in capsys.readouterr().err

    def test_missing_data_dir_is_data_error(self, tmp_path, capsys):
        code = run_cli(["extract", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_corrupt_pgm_is_data_error(self, small_tree, tmp_path, capsys):
        victim = sorted(small_tree.rglob("*.pgm"))[0]
        victim.write_bytes(b"not a pgm at all")
        assert run_cli(extract_args(small_tree, tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "failed to load" in err

    def test_skip_errors_downgrades(self, small_tree, tmp_path):
        victim = sorted(small_tree.rglob("*.pgm"))[0]
        victim.write_bytes(b"not a pgm at all")
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="skipping"):
            assert run_cli(extract_args(small_tree, out, "--skip-errors")) == 0
        lines = (out / "features.csv").read_text().splitlines()
        assert len(lines) == 1 + 23

    def test_train_per_class_too_large_is_data_error(self, small_tree, tmp_path, capsys):
        args = eval_args(small_tree, tmp_path / "out")
        args[args.index("--train-per-class") + 1] = "6"  # classes hold 6 images
        assert run_cli(args) == 2
        assert "no test data" in capsys.readouterr().err

    def test_internal_error_is_three(self, small_tree, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(cli._COMMANDS, "extract", boom)
        assert run_cli(extract_args(small_tree, tmp_path / "out")) == 3
        assert "internal error" in capsys.readouterr().err


class TestHelp:
    def test_top_level_lists_commands(self, capsys):
        assert run_cli(["--help"]) == 0
        text = capsys.readouterr().out
        for cmd in ("extract", "evaluate", "kfold", "roc"):
            assert cmd in text

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("extract", ["--data", "--config", "--resize", "--variant", "--ref",
                         "--out", "--workers", "--skip-errors"]),
            ("evaluate", ["--classifier", "--k", "--distance", "--degree", "--C",
                          "--offset", "--tol", "--zscore",
                          "--train-per-class", "--shuffle-seed"]),
            ("kfold", ["--folds", "--classifier", "--zscore"]),
            ("roc", ["--distance", "--thresholds", "--train-per-class", "--shuffle-seed"]),
        ],
    )
    def test_subcommand_documents_flags(self, command, flags, capsys):
        assert run_cli([command, "--help"]) == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text, f"{command} help is missing {flag}"


class TestConfigFile:
    def test_config_supplies_values_and_flags_win(self, small_tree, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(small_tree), "resize": "9x9",
                                   "k": 3, "train_per_class": 4}))
        out = tmp_path / "out"
        args = ["evaluate", "--config", str(cfg), "--k", "1",
                "--out", str(out), "--workers", "1"]
        assert run_cli(args) == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["k"] == 1          # flag beat the file
        assert echo["resize"] == "9x9"  # file beat the default
        assert echo["train_per_class"] == 4

    def test_missing_config_file(self, small_tree, tmp_path, capsys):
        code = run_cli(extract_args(small_tree, tmp_path / "out",
                                    "--config", str(tmp_path / "absent.json")))
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_config_file(self, small_tree, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        assert run_cli(extract_args(small_tree, tmp_path / "out", "--config", str(cfg))) == 1
        cfg.write_text("[1, 2]")
        assert run_cli(extract_args(small_tree, tmp_path / "out", "--config", str(cfg))) == 1
        cfg.write_text(json.dumps({"no_such_option": 5}))
        assert run_cli(extract_args(small_tree, tmp_path / "out", "--config", str(cfg))) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_bad_variant_via_config(self, small_tree, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variant": "g9"}))
        assert run_cli(extract_args(small_tree, tmp_path / "out", "--config", str(cfg))) == 1
        capsys.readouterr()

    def test_data_required_somewhere(self, tmp_path, capsys):
        assert run_cli(["extract", "--out", str(tmp_path / "out")]) == 1
        assert "--data is required" in capsys.readouterr().err


class TestOptionValues:
    """Flags and config-file values pass the same parse function per option."""

    @pytest.mark.parametrize(
        "values",
        [{"zscore": "false"}, {"k": "abc"}, {"C": "x"}, {"k": 1.7}, {"shuffle_seed": True},
         {"C": 0}, {"tol": float("nan")}, {"skip_errors": 1}, {"variant": "G1"}, {"thresholds": 100001}],
        ids=repr,
    )
    def test_bad_config_value_is_usage(self, small_tree, tmp_path, capsys, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "out"
        assert run_cli(eval_args(small_tree, out, "--config", str(cfg))) == 1
        (key,) = values
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [("--C", "nan"), ("--C", "0"), ("--C", "-1"), ("--C", "inf"), ("--offset", "nan"),
         ("--tol", "nan"), ("--tol", "-0.1"), ("--degree", "3"),
         ("--k", "1.5"), ("--folds", "1"), ("--thresholds", "1000000000")],
    )
    def test_bad_flag_value_is_usage(self, small_tree, tmp_path, capsys, monkeypatch, flag, value):
        # refused before any data is loaded, so a huge value allocates nothing
        monkeypatch.setattr(cli, "load_dataset", lambda *a, **k: pytest.fail("data was loaded"))
        command = {"--folds": "kfold", "--thresholds": "roc"}.get(flag, "evaluate")
        svm = [] if command == "roc" else ["--classifier", "svm"]
        args = ["--data", str(small_tree), "--resize", "9x9", *svm,
                "--out", str(tmp_path / "out"), "--workers", "1", flag, value]
        assert run_cli([command, *args]) == 1
        assert f"{flag} {value!r}" in capsys.readouterr().err

    def test_distance_choices_are_the_classifier_distances(self):
        (row,) = [o for o in cli.OPTIONS if o.name == "distance"]
        assert [row.parse(name) for name in DISTANCES] == list(DISTANCES)
        with pytest.raises(ValueError, match="wants one of log, euclidean"):
            row.parse("manhattan")

    def test_config_values_match_flag_text(self, small_tree, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"C": 2, "k": "3", "tol": 0, "zscore": True, "resize": "9X9"}))
        flags = ["--C", "2.0", "--k", "3", "--tol", "0", "--zscore"]
        values = {"C": 2.0, "k": 3, "tol": 0.0, "zscore": True}
        echoed = {"knn": ("k", "zscore"), "svm": ("C", "tol", "zscore")}  # each run echoes what it reads
        for classifier, keys in echoed.items():
            out1, out2 = tmp_path / classifier / "o1", tmp_path / classifier / "o2"
            assert run_cli(eval_args(small_tree, out1, "--config", str(cfg), "--classifier", classifier)) == 0
            assert run_cli(eval_args(small_tree, out2, *flags, "--classifier", classifier)) == 0
            echo = json.loads((out1 / "config.json").read_text())
            assert [echo[key] for key in keys] == [values[key] for key in keys]
            assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_null_config_value_means_unset(self, small_tree, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": None, "workers": None}))
        out = tmp_path / "out"
        assert run_cli(eval_args(small_tree, out, "--config", str(cfg))) == 0
        assert json.loads((out / "config.json").read_text())["k"] == 1

    def test_line_break_in_data_path_is_usage(self, small_tree, tmp_path, capsys):
        assert run_cli(extract_args(f"{small_tree}\nx", tmp_path / "out")) == 1
        assert "line breaks" in capsys.readouterr().err

    def test_bad_class_label_is_data_error(self, small_tree, tmp_path, capsys):
        (small_tree / "s01").rename(small_tree / "s\t01")
        assert run_cli(extract_args(small_tree, tmp_path / "out")) == 2
        assert "tab or line break" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["extract", "evaluate", "kfold", "roc"])
    def test_help_lists_every_row_of_its_command(self, command, capsys):
        assert run_cli([command, "--help"]) == 0
        text = capsys.readouterr().out
        for opt in cli.OPTIONS:
            flag = "--" + opt.name.replace("_", "-") + " "
            assert (flag in text) == (command in opt.commands), (command, opt.name)


class TestDeterminism:
    def test_rerun_into_fresh_dir_is_byte_identical(self, small_tree, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli(extract_args(small_tree, out1)) == 0
        assert run_cli(extract_args(small_tree, out2)) == 0
        assert (out1 / "features.csv").read_bytes() == (out2 / "features.csv").read_bytes()
        assert (out1 / "config.json").read_bytes() == (out2 / "config.json").read_bytes()

    def test_worker_count_does_not_change_output(self, small_tree, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli(extract_args(small_tree, out1)) == 0
        args = ["extract", "--data", str(small_tree), "--resize", "9x9",
                "--out", str(out2), "--workers", "2"]
        assert run_cli(args) == 0
        assert (out1 / "features.csv").read_bytes() == (out2 / "features.csv").read_bytes()

    def test_shuffled_split_reruns_agree(self, small_tree, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert run_cli(eval_args(small_tree, out, "--shuffle-seed", "3")) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert json.loads((out1 / "config.json").read_text())["shuffle_seed"] == 3


def test_module_entry_point(small_tree, tmp_path):
    out = tmp_path / "out"
    # pytest's pythonpath setting does not reach a subprocess: put src/ on its path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "nblgc", "extract", "--data", str(small_tree),
         "--resize", "9x9", "--out", str(out), "--workers", "1"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "features.csv").is_file()
