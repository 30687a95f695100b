"""Self-test of the benchmark: every workload path and check on the quick
tree, plus the checks' power to reject bad outputs. Runs in seconds.

    python3 -m pytest perfbench/test_selftest.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_quick_run_passes_every_check(workload, trace):
    done = bench("--workload", workload, "--quick", "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in line["metrics"].items()}


def test_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    done = bench("--workload", "orl-p5-sweep", "--quick", "--seconds", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_generator_is_seeded_and_encodings_agree(tmp_path):
    from nblgc import parse_pgm

    a, b = gen.generate(gen.QUICK, 5), gen.generate(gen.QUICK, 5)
    assert a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)
    assert not np.array_equal(a[("s01", 0)], gen.generate(gen.QUICK, 6)[("s01", 0)])
    for key, pixels in list(a.items())[:3]:
        p2 = parse_pgm(gen.pgm_bytes(pixels, binary=False))
        p5 = parse_pgm(gen.pgm_bytes(pixels, binary=True))
        assert p2 == p5 and np.array_equal(p2.pixels, pixels.reshape(-1))


def test_oracle_resize_matches_the_library_bit_for_bit():
    from nblgc import RawImage, normalize_unit, resize_bilinear

    pixels = gen.generate(gen.ORL, 1)[("s01", 0)]
    raw = RawImage(pixels.shape[1], pixels.shape[0], 255, pixels.reshape(-1))
    want = resize_bilinear(normalize_unit(raw), 63, 63).pixels
    flat = [int(v) / int(pixels.max()) for v in pixels.reshape(-1)]
    grid = [flat[r * pixels.shape[1] : (r + 1) * pixels.shape[1]] for r in range(pixels.shape[0])]
    assert np.array_equal(np.array(checks.oracle_resize(grid, 63, 63)), want)


def write_features(path, sizes, images, oracles, nudge=0.0):
    n = sizes.features
    lines = [",".join(["path", "class", "variant", "ref"] + [f"v{i}" for i in range(n)])]
    for (label, index), pixels in sorted(images.items()):
        values = checks.oracle_features(oracles, pixels, sizes.resize)
        values[0] += nudge
        lines.append(",".join([f"d/{label}/img{index:02d}.pgm", label, "g1", "avg"] + [f"{v:.12g}" for v in values]))
    path.write_text("\n".join(lines) + "\n")


def test_features_check_rejects_a_value_off_the_oracle(tmp_path):
    sizes, oracles = checks.QUICK, checks.load_oracles(ROOT)
    images = gen.generate(sizes.tree, 2)
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    write_features(good, sizes, images, oracles)
    write_features(bad, sizes, images, oracles, nudge=1e-6)
    # every row is nudged, so whichever rows the check samples show it
    assert checks.check_features(good, sizes, images, oracles, 0, {}) == []
    assert checks.check_features(bad, sizes, images, oracles, 0, {})


def test_roc_check_rejects_a_decreasing_curve(tmp_path):
    sizes = checks.QUICK  # 4 genuine, 12 impostor trials
    path = tmp_path / "roc.csv"
    path.write_text("# k=v\nthreshold,far,gar\n0,0,0\n1,25,50\n2,8.33333,75\n3,100,100\n")
    assert any("decreases" in p for p in checks.check_roc(path, sizes, {}))
    path.write_text("threshold,far,gar\n0,0,0\n1,8.33333,50\n3,100,100\n")
    assert checks.check_roc(path, sizes, {}) == []


def test_report_check_rejects_wrong_totals(tmp_path):
    sizes = checks.QUICK  # 4 classes, 1 test image each
    path = tmp_path / "report.csv"
    rows = "".join(f"s0{i},1,1,100\n" for i in range(1, 5))
    path.write_text("class,correct,total,accuracy\n" + rows + "overall,4,4,100\n")
    assert checks.check_report(path, sizes, {}) == []
    path.write_text("class,correct,total,accuracy\n" + rows + "overall,4,5,80\n")
    assert checks.check_report(path, sizes, {})


def test_speed_probe_samples_its_cpus_and_scales_by_them():
    before = os.sched_getaffinity(0)
    cpus = speed.child_cpus(1)
    with speed.SpeedProbe(cpus) as probe:
        assert os.sched_getaffinity(0) == cpus
        start = time.perf_counter()
        time.sleep(6 * speed.INTERVAL_S)
        end = time.perf_counter()
        job = probe.job_s(start, end)
        assert 0 < job < 50 * speed.REF_JOB_S
        assert probe.scaled(2.0, start, end) == pytest.approx(2.0 * speed.REF_JOB_S / job)
        assert probe.job_s(end + 60, end + 61) > 0  # empty window: every sample so far
    assert os.sched_getaffinity(0) == before
