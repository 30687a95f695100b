import gc
import hashlib
import itertools
import json
import threading

import pytest

import nblgc.cli as cli
import nblgc.evaluation as evaluation
import nblgc.options as options
from nblgc.classify import DISTANCES, LabeledSample
from nblgc.cli import main
from nblgc.features import extract_dataset, read_features_csv, write_features_csv
from conftest import make_pgm_tree, run_python


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

    def test_features_csv_read_back_writes_the_same_bytes(self, small_tree, tmp_path):
        # one writer: the library's write_features_csv, given what read_features_csv returns
        out = tmp_path / "out"
        assert run_cli(extract_args(small_tree, out)) == 0
        write_features_csv(tmp_path / "again.csv", read_features_csv(out / "features.csv"))
        assert (tmp_path / "again.csv").read_bytes() == (out / "features.csv").read_bytes()

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

    @pytest.mark.parametrize("command, extra", [
        ("evaluate", ["--train-per-class", "4"]),
        ("evaluate", ["--train-per-class", "4", "--classifier", "svm", "--zscore"]),
        ("kfold", ["--folds", "3"]),
        ("kfold", ["--folds", "3", "--classifier", "svm"]),
        ("roc", ["--train-per-class", "4"]),
    ], ids=["evaluate", "evaluate svm", "kfold", "kfold svm", "roc"])
    def test_commands_build_no_labeled_sample(self, small_tree, tmp_path, monkeypatch, command, extra):
        # the commands run on extract_dataset's matrix and row numbers
        def refuse(sample):
            raise AssertionError("a command built a LabeledSample")

        monkeypatch.setattr(LabeledSample, "__post_init__", refuse)
        args = [command, "--data", str(small_tree), "--resize", "9x9", "--out", str(tmp_path / "out"),
                "--workers", "1", *extra]
        assert run_cli(args) == 0

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

    def test_skip_errors_downgrades(self, small_tree, tmp_path, capsys):
        victim = sorted(small_tree.rglob("*.pgm"))[0]
        victim.write_bytes(b"not a pgm at all")
        out = tmp_path / "out"
        assert run_cli(extract_args(small_tree, out, "--skip-errors")) == 0
        assert f"nblgc: skipping {victim}: " in capsys.readouterr().err
        lines = (out / "features.csv").read_text().splitlines()
        assert len(lines) == 1 + 23

    def test_corrupt_pgm_in_a_worker_is_data_error(self, small_tree, tmp_path, capsys):
        victim = sorted(small_tree.rglob("*.pgm"))[-1]
        victim.write_bytes(b"P5\n9 9\n255\n")  # truncated: the parse error carries an offset
        args = ["extract", "--data", str(small_tree), "--resize", "9x9", "--out", str(tmp_path / "out"),
                "--workers", "2"]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert f"data error: failed to load {victim}: truncated pixel data" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("case", ["empty root", "every file skipped"])
    def test_skip_notices_go_to_stderr_also_under_warnings_as_errors(self, small_tree, tmp_path, case):
        if case == "empty root":
            data = tmp_path / "empty"
            data.mkdir()
            notice = f"nblgc: dataset root {data} contains no class directories\n"
        else:
            data = small_tree
            for victim in small_tree.rglob("*.pgm"):
                victim.write_bytes(b"junk")
            notice = f"nblgc: skipping {sorted(small_tree.rglob('*.pgm'))[0]}: malformed magic number"
        out = tmp_path / "out"
        proc = run_python("-W", "error", "-m", "nblgc", *extract_args(data, out, "--skip-errors"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.startswith(notice)
        assert (out / "features.csv").read_text().count("\n") == 1  # the header alone

    def test_train_per_class_too_large_is_data_error(self, small_tree, tmp_path, capsys):
        args = eval_args(small_tree, tmp_path / "out")
        args[args.index("--train-per-class") + 1] = "6"  # classes hold 6 images
        assert run_cli(args) == 2
        assert "no test data" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")  # the ValueError alone reports it
    @pytest.mark.parametrize("command, extra", [("roc", ["--train-per-class", "4"]), ("kfold", ["--folds", "3"])])
    def test_overflowing_distance_is_data_error(self, small_tree, tmp_path, monkeypatch, capsys,
                                                command, extra):
        def huge(*args):
            paths, labels, matrix, notices = extract_dataset(*args)
            return paths, labels, matrix * 1e200, notices

        monkeypatch.setattr(cli, "extract_dataset", huge)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)  # 2 threads on 1 core too
        for workers in ("1", "2"):  # at 2 the error is raised inside a distance thread
            out = tmp_path / workers
            args = [command, "--data", str(small_tree), "--resize", "9x9", "--out", str(out),
                    "--workers", workers, "--distance", "euclidean", *extra]
            assert run_cli(args) == 2
            assert "euclidean distance overflows" in capsys.readouterr().err
            assert not list(tmp_path.rglob("*.csv"))

    def test_class_named_overall_is_data_error_before_any_output(self, tmp_path, capsys):
        # report.csv names its total row overall, so a class of that name would read as a second total
        data = tmp_path / "data"
        make_pgm_tree(data, n_classes=2, per_class=6, size=(9, 9), seed=3)
        (data / "s02").rename(data / "overall")
        assert run_cli(eval_args(data, tmp_path / "out")) == 2
        assert "class label 'overall'" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_internal_error_is_three(self, small_tree, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(cli._COMMANDS, "extract", boom)
        assert run_cli(extract_args(small_tree, tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "internal error" in err
        assert "Traceback" in err and "RuntimeError: synthetic failure" in err  # traceback loads on this path only


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
        cfg.write_bytes(b'{"variant": "g\xe9"}')  # Latin-1, not UTF-8
        assert run_cli(extract_args(small_tree, tmp_path / "out", "--config", str(cfg))) == 1
        assert f"config file {cfg} is not valid JSON" in capsys.readouterr().err

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
        monkeypatch.setattr(cli, "extract_dataset", lambda *a, **k: pytest.fail("data was loaded"))
        command = {"--folds": "kfold", "--thresholds": "roc"}.get(flag, "evaluate")
        svm = [] if command == "roc" else ["--classifier", "svm"]
        args = ["--data", str(small_tree), "--resize", "9x9", *svm,
                "--out", str(tmp_path / "out"), "--workers", "1", flag, value]
        assert run_cli([command, *args]) == 1
        assert f"{flag} {value!r}" in capsys.readouterr().err

    def test_int_beyond_float_range(self, small_tree, tmp_path, capsys):
        huge = 10**400
        cfg = tmp_path / "cfg.json"
        for key, value in (("C", huge), ("offset", -huge)):  # a real-valued setting must fit a float
            cfg.write_text(json.dumps({key: value}))
            assert run_cli(eval_args(small_tree, tmp_path / "out", "--config", str(cfg))) == 1
            err = capsys.readouterr().err
            assert f"config key {key!r}" in err and err.endswith("wants a finite number\n")
        out = tmp_path / "seeded"
        assert run_cli(eval_args(small_tree, out, "--shuffle-seed", str(huge))) == 0  # an integer seed
        assert json.loads((out / "config.json").read_text())["shuffle_seed"] == huge

    def test_distance_choices_are_the_classifier_distances(self):
        (row,) = [o for o in options.OPTIONS if o.name == "distance"]
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

    @pytest.mark.parametrize("source", ["flag", "config key"])
    def test_data_path_that_is_not_utf8_is_usage_before_any_file_is_read(self, small_tree, tmp_path, capsys,
                                                                         monkeypatch, source):
        # every output echoes the data root, and a lone surrogate (the byte 0xe9 alone) cannot be UTF-8
        root = small_tree.rename(tmp_path / "d\udce9ta")
        monkeypatch.setattr(cli, "extract_dataset", lambda *a: pytest.fail("the dataset was read"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(root)}))
        argv = eval_args(root, tmp_path / "out") if source == "flag" else [
            "evaluate", "--config", str(cfg), "--resize", "9x9", "--out", str(tmp_path / "out")]
        assert run_cli(argv) == 1
        assert "wants a path that is UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_path_that_is_not_utf8_is_accepted(self, small_tree, tmp_path):
        # nothing echoes the output directory
        out = tmp_path / "o\udce9t"
        assert run_cli(extract_args(small_tree, out)) == 0
        assert (out / "features.csv").is_file()

    @pytest.mark.parametrize("name", ["im\rg1.pgm", "im\ng1.pgm"], ids=["CR", "LF"])
    def test_line_break_in_a_file_name_reads_back(self, small_tree, tmp_path, name):
        (small_tree / "s01" / "img00.pgm").rename(small_tree / "s01" / name)
        out = tmp_path / "out"
        assert run_cli(extract_args(small_tree, out)) == 0
        sources = [source for source, *_ in read_features_csv(out / "features.csv")]
        assert len(sources) == 24 and sources[0] == str(small_tree / "s01" / name)

    def test_bad_class_label_is_data_error(self, small_tree, tmp_path, capsys):
        (small_tree / "s01").rename(small_tree / "s\t01")
        assert run_cli(extract_args(small_tree, tmp_path / "out")) == 2
        assert "tab or line break" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [extract_args, eval_args], ids=["extract", "evaluate"])
    @pytest.mark.parametrize("source, target, message", [
        ("s02", "s\udce9", "class label 's\\udce9' is not UTF-8"),
        ("s02/img03.pgm", "s02/img\udce9.pgm", "img\\udce9.pgm': file name is not UTF-8"),
    ], ids=["class directory", "file"])
    def test_name_that_is_not_utf8_is_data_error_before_any_output(self, small_tree, tmp_path, capsys, args,
                                                                   source, target, message):
        # the byte 0xe9 alone is not UTF-8: Python names the path with the lone surrogate U+DCE9
        (small_tree / source).rename(small_tree / target)
        assert run_cli(args(small_tree, tmp_path / "out")) == 2
        assert message in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("command", ["extract", "evaluate", "kfold", "roc"])
    def test_help_lists_every_row_of_its_command(self, command, capsys):
        assert run_cli([command, "--help"]) == 0
        text = capsys.readouterr().out
        for opt in options.OPTIONS:
            flag = "--" + opt.name.replace("_", "-") + " "
            assert (flag in text) == (command in opt.commands), (command, opt.name)


class TestDeterminism:
    def test_rerun_into_fresh_dir_is_byte_identical(self, small_tree, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli(extract_args(small_tree, out1)) == 0
        assert run_cli(extract_args(small_tree, out2)) == 0
        assert (out1 / "features.csv").read_bytes() == (out2 / "features.csv").read_bytes()
        assert (out1 / "config.json").read_bytes() == (out2 / "config.json").read_bytes()

    def test_worker_count_does_not_change_output(self, small_tree, tmp_path, capsys):
        victims = sorted(small_tree.rglob("*.pgm"))[::5]  # extraction runs file by file at any worker count
        for broken in ([], victims):
            for victim in broken:
                victim.write_bytes(b"junk")
            runs = []
            for workers in ("1", "2"):
                out = tmp_path / f"{len(broken)}-{workers}"
                args = ["extract", "--data", str(small_tree), "--resize", "9x9",
                        "--out", str(out), "--workers", workers, "--skip-errors"]
                assert run_cli(args) == 0
                runs.append(((out / "features.csv").read_bytes(), capsys.readouterr().err))
            assert runs[0] == runs[1]
            assert runs[0][1] == "".join(f"nblgc: skipping {v}: malformed magic number b'ju' at byte offset 0\n"
                                         for v in broken)

    @pytest.mark.parametrize("command, extra", [("kfold", ["--folds", "3", "--k", "2"]),
                                                ("roc", ["--train-per-class", "4"])])
    def test_distance_threads_do_not_change_output(self, small_tree, tmp_path, monkeypatch, command, extra):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)  # 2 threads on 1 core too
        real, on_main = evaluation.distance_rows, {"1": [], "2": []}
        digests = []
        for workers in ("1", "2"):
            monkeypatch.setattr(evaluation, "distance_rows", lambda *a, calls=on_main[workers]: calls.append(
                threading.current_thread() is threading.main_thread()) or real(*a))
            out = tmp_path / workers
            args = [command, "--data", str(small_tree), "--resize", "9x9", "--out", str(out),
                    "--workers", workers, *extra]
            assert run_cli(args) == 0
            digests.append(tree_digest(out))
        assert digests[0] == digests[1]
        assert on_main["1"] == [True] * len(on_main["2"]) and not any(on_main["2"])

    def test_shuffled_split_reruns_agree(self, small_tree, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert run_cli(eval_args(small_tree, out, "--shuffle-seed", "3")) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert json.loads((out1 / "config.json").read_text())["shuffle_seed"] == 3


def test_module_entry_point(small_tree, tmp_path):
    out = tmp_path / "out"
    proc = run_python("-m", "nblgc", "extract", "--data", str(small_tree),
                      "--resize", "9x9", "--out", str(out), "--workers", "1")
    assert proc.returncode == 0, proc.stderr
    assert (out / "features.csv").is_file()


# runs `python -m nblgc ARGS` and, at exit, says whether numpy, ctypes (the heap pin's), json and traceback
# were imported and whether the garbage collector was frozen
NUMPY_AT_EXIT = ("import atexit, gc, runpy, sys; "
                 "atexit.register(lambda: print(*(f'{m} loaded: {m in sys.modules}' for m in "
                 "('numpy', 'ctypes', 'json', 'traceback')), 'frozen:', gc.get_freeze_count() > 0)); "
                 "runpy.run_module('nblgc', run_name='__main__', alter_sys=True)")


class TestStartup:
    @pytest.mark.parametrize(
        "argv,code",
        [(["--help"], 0), (["kfold", "-h"], 0), (["extract", "--bogus"], 1),
         (["extract", "--data", "{data}", "--resize", "10x10"], 1),
         (["evaluate", "--data", "{data}", "--C", "0"], 1)],
        ids=["--help", "kfold -h", "bogus flag", "resize 10x10", "C 0"],
    )
    def test_help_and_usage_errors_load_no_numpy(self, small_tree, argv, code):
        proc = run_python("-c", NUMPY_AT_EXIT, *(a.format(data=small_tree) for a in argv))
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.endswith("numpy loaded: False ctypes loaded: False json loaded: False "
                                    "traceback loaded: False frozen: True\n")

    def test_a_run_loads_numpy(self, small_tree, tmp_path):
        # the probe above can see numpy and json: a real command imports them, and it too ends frozen
        proc = run_python("-c", NUMPY_AT_EXIT, *extract_args(small_tree, tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        first, _, probe = proc.stdout.partition("\n")
        assert first == f"wrote 24 feature rows to {tmp_path / 'out' / 'features.csv'}"
        assert probe.startswith("numpy loaded: True ctypes loaded: True json loaded: True ")
        assert probe.endswith(" frozen: True\n")

    def test_main_in_process_leaves_the_collector_alone(self, small_tree, tmp_path):
        # only run, which ends the process, freezes: a program that calls main keeps collecting
        before = gc.get_freeze_count()
        assert run_cli(extract_args(small_tree, tmp_path / "out")) == 0
        assert gc.get_freeze_count() == before
        assert gc.isenabled()

    def test_threaded_kfold_loads_no_process_pool(self, small_tree, tmp_path):
        # a process pool's imports cost about 24 ms a run, and concurrent.futures' own 5-8 ms: the distance
        # threads are plain threading.Threads, which numpy has imported already
        script = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; import nblgc.cli; "
                  "code = nblgc.cli.main(sys.argv[1:]); "
                  "print(code, [m for m in sys.modules if m.partition('.')[0] in ('multiprocessing', 'concurrent')])")
        proc = run_python("-c", script, "kfold", "--data", str(small_tree), "--resize", "9x9",
                          "--folds", "3", "--out", str(tmp_path / "out"), "--workers", "2")
        assert proc.stdout.endswith("0 []\n"), proc.stderr

    def test_cli_import_loads_every_layer(self):
        # the benchmark's tracer finds each layer in sys.modules after `import nblgc.cli`
        layers = [f"nblgc.{m}" for m in ("image_io", "features", "classify", "evaluation")]
        proc = run_python("-c", f"import sys, nblgc.cli; print([m for m in {layers!r} if m not in sys.modules])")
        assert proc.stdout == "[]\n", proc.stderr


class FakeLibc:
    def __init__(self, refuse=()):
        self.calls = []
        self.refuse = refuse

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return int(param not in self.refuse)  # glibc returns 0 for a setting it refuses


# counts the lookups of mallopt in the C library, then extracts a tree through the library and,
# with the same spy, through the command line
MALLOPT_SPY = """
import ctypes, sys
lookups = []
class Spy(ctypes.CDLL):
    def __getattr__(self, name):
        lookups.append(name)
        return super().__getattr__(name)
ctypes.CDLL = Spy
import nblgc
nblgc.extract_dataset(sys.argv[1], (9, 9))
library = lookups.count("mallopt")
from nblgc.options import main
code = main(["extract", "--data", sys.argv[1], "--resize", "9x9", "--out", sys.argv[2]])
print(library, code, lookups.count("mallopt"))
"""


class TestHeapPin:
    # M_MMAP_THRESHOLD (-3), then M_TRIM_THRESHOLD (-1) only if glibc took the first: a 32-bit
    # glibc caps the mmap threshold at 512 KiB, and a trim threshold alone faults more than none
    @pytest.mark.parametrize("refuse,calls", [((), [(-3, 32 << 20), (-1, 64 << 20)]), ({-3}, [(-3, 32 << 20)])],
                             ids=["both set", "mmap refused"])
    def test_sets_mmap_then_trim_threshold(self, monkeypatch, refuse, calls):
        libc = FakeLibc(refuse)
        monkeypatch.setattr("ctypes.CDLL", lambda name: libc)
        options._pin_heap()
        assert libc.calls == calls

    @pytest.mark.parametrize("libc", [OSError("no C library"), TypeError("no name"), object()],
                             ids=["CDLL raises OSError", "CDLL raises TypeError", "no mallopt"])
    def test_no_op_without_mallopt(self, monkeypatch, libc):
        def cdll(name):
            if isinstance(libc, Exception):
                raise libc
            return libc

        monkeypatch.setattr("ctypes.CDLL", cdll)
        assert options._pin_heap() is None

    def test_only_a_merged_config_pins(self, monkeypatch, small_tree, tmp_path):
        pins = []
        monkeypatch.setattr(options, "_pin_heap", lambda: pins.append(1))
        assert run_cli(eval_args(small_tree, tmp_path / "a", "--C", "0")) == 1
        assert run_cli(extract_args(tmp_path / "missing", tmp_path / "b")) == 2
        assert run_cli(["extract", "--bogus"]) == 1
        assert pins == []
        assert run_cli(extract_args(small_tree, tmp_path / "c")) == 0
        assert pins == [1]

    def test_library_extraction_never_pins(self, small_tree, tmp_path):
        proc = run_python("-c", MALLOPT_SPY, str(small_tree), str(tmp_path / "out"))
        assert proc.stdout.splitlines()[-1] == "0 0 1", proc.stderr


# every command on one tree, each reading a --config file, the feature CSV read back, and a
# KNN and an SVM model saved and loaded: a text file opened without an encoding raises here
EVERY_TEXT_FILE = """
import sys
import numpy as np
from nblgc import KnnModel, LabeledSample, load_model, read_features_csv, save_model, svm_train
from nblgc.options import main

data, out = sys.argv[1:]
common = ["--data", data, "--resize", "9x9", "--workers", "1", "--config", out + "/cfg.json"]
for name, *extra in (["extract"], ["evaluate"], ["kfold", "--folds", "2"], ["roc"],
                     ["evaluate", "--classifier", "svm"]):
    assert main([name, *common, "--out", f"{out}/{name}", *extra]) == 0, name
read_features_csv(out + "/extract/features.csv")
train = [LabeledSample(np.array([0.0, 1.0]), "a"), LabeledSample(np.array([1.0, 0.0]), "b")]
for model in (KnnModel([s.vector for s in train], [s.label for s in train]), svm_train(train)):
    save_model(model, out + "/m.model")
    load_model(out + "/m.model")
print("done")
"""


def test_no_text_file_is_opened_in_the_locale_encoding(small_tree, tmp_path):
    (tmp_path / "cfg.json").write_text('{"train_per_class": 4}', encoding="utf-8")
    proc = run_python("-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                      "-c", EVERY_TEXT_FILE, str(small_tree), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("done\n")
