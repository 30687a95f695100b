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
