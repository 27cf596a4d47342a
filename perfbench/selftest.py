"""Self-tests of the benchmark, kept out of the repository's test suite.

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

The smoke test runs every workload at tiny scale, traced and untraced, and
checks that every metric ``BENCHMARK.json`` names is emitted with its unit.
The negative test corrupts the outputs a sample wrote and checks that the
sample is counted as failed, not as fast.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_ARGS = ["--seed", "3", "--seconds", "1", "--tiny"]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_every_metric_for_every_workload():
    for workload in SPEC["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload["name"], "--trace", str(trace), *TINY_ARGS],
                capture_output=True, text=True, timeout=170, check=True,
            )
            result = _last_json(proc.stdout)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            expected = {m["name"]: m["unit"] for m in SPEC[group]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == expected, (workload["name"], trace, set(expected) ^ set(emitted))
            for name, unit in expected.items():
                assert f"\n{name} = " in proc.stdout and proc.stdout.split(f"\n{name} = ", 1)[1].split("\n")[0].endswith(unit)
            assert "\nerror_rate = " in proc.stdout


def _weights_off_simplex(out_dir: Path) -> None:
    path = out_dir / "weights.csv"
    rows = list(csv.reader(path.open(newline="")))
    rows[1][1] = repr(float(rows[1][1]) + 1e-3)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _ledger_off_by_one(out_dir: Path) -> None:
    path = out_dir / "comm.csv"
    rows = list(csv.reader(path.open(newline="")))
    rows[1][4] = str(int(rows[1][4]) + 1)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _results_changed(out_dir: Path) -> None:
    # still finite and well-formed, so only the byte-identity check sees it
    path = out_dir / "results.csv"
    rows = list(csv.reader(path.open(newline="")))
    rows[1][4] = repr(float(rows[1][4]) * 1.5)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _run_corrupted(corrupt, only_sample: str | None = None) -> tuple[dict, str]:
    """Run one tiny workload in-process with ``corrupt`` applied after each sample."""
    import run

    common.import_fedkme()
    from fedkme import cli

    real_main = cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        out_dir = Path(argv[argv.index("--out") + 1])
        if out_dir.name.startswith("sample") and only_sample in (None, out_dir.name):
            corrupt(out_dir)
        return code

    cli.main = corrupting_main
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            run.main(["--workload", "covariate_wide", "--trace", "0", *TINY_ARGS])
    finally:
        cli.main = real_main
    return _last_json(buf.getvalue()), buf.getvalue()


def test_corrupted_outputs_count_in_error_rate():
    for corrupt in (_weights_off_simplex, _ledger_off_by_one):
        result, text = _run_corrupted(corrupt)
        assert not result["correct"]
        assert result["failed"] == result["attempted"] >= 1, result
        assert "error_rate = 1.0000" in text

    result, text = _run_corrupted(_results_changed, only_sample="sample1")
    assert not result["correct"]
    reps = int(common.WORKLOADS["covariate_wide"].config["experiment.repetitions"])
    assert result["failed"] == reps, result  # the repetitions of one sample
    assert "output bytes differ from sample 0" in text


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"{name}: ok")
