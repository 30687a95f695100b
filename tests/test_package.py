from pathlib import Path

import pytest

import nblgc
from conftest import run_python


def test_every_export_resolves():
    for name in nblgc.__all__:
        assert getattr(nblgc, name) is not None
        assert name in dir(nblgc)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nblgc.no_such_name  # noqa: B018


def test_image_io_loads_no_classifier():
    proc = run_python("-c", "import sys, nblgc.image_io; print('nblgc.classify' in sys.modules)")
    assert proc.stdout == "False\n", proc.stderr


def test_contours_stays_the_function_after_a_submodule_import():
    # a submodule import binds the submodule's name on the package, so no
    # export may be named like a submodule
    proc = run_python("-c", "import nblgc.features; from nblgc import contours; print(callable(contours))")
    assert proc.stdout == "True\n", proc.stderr


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # hypothesis imports libcst to report a failing example, and that import
    # raises a DeprecationWarning, which the project's settings must not
    # turn into an INTERNALERROR that skips every later test
    (tmp_path / "test_throwaway.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_runs_after():\n"
        "    pass\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = run_python("-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config), str(tmp_path), cwd=tmp_path)
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
