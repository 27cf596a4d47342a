"""The demos run end to end and print their key lines."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _run(name: str, capsys) -> str:
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


def test_weights_on_clusters(capsys):
    out = _run("weights_on_clusters.py", capsys)
    lines = out.splitlines()
    assert lines[0] == "agent  group  weight"
    own = next(line for line in lines if line.startswith("mass on agent 0's own cluster:"))
    assert float(own.split(":")[1]) > 0.5
    # 30 agents receive D x (d + 1) coefficients; the 29 non-targets upload D scalars
    assert f"scalars sent over the wire:    {30 * 300 * 5 + 29 * 300}" in lines


def test_concept_shift_curve(capsys):
    lines = _run("concept_shift_curve.py", capsys).splitlines()
    assert lines[0] == "sigma_c2   Qagg  Oracle   Local"
    assert [float(line.split()[0]) for line in lines[1:]] == [0.0, 0.3, 0.5, 0.7, 1.0]
    assert all(len(line.split()) == 4 for line in lines[1:])


def test_cli_quickstart(capsys):
    out = _run("cli_quickstart.py", capsys)
    assert "exit code: 0" in out
    for name in ("results.csv", "weights.csv", "comm.csv"):
        assert f"# {name} (" in out
    assert "method,param,repetition,target_agent,mse_or_accuracy" in out
