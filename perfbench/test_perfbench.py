"""Tests of the benchmark itself.

Each workload's check passes on a real tiny round and fails once one
output is corrupted; each workload runs end to end at a tiny size in
both modes and prints exactly the metrics BENCHMARK.json names.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from pdcm import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def in_process(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0
    return buf.getvalue()


def checked_round(kind, tmp_path, seed=3):
    """A tiny workload after one in-process round whose check passed."""
    w = kind(ROOT, tmp_path, seed, tiny=True)
    w.build_inputs()
    _, stdout, codes = run.replay(w, cli)
    assert set(codes.values()) == {0}
    w.check(stdout, in_process)
    return w, stdout


def write_pdgraph(path, n, dirs, unds):
    with open(path, "w") as fh:
        fh.write(f"# pdgraph n={n}\n")
        fh.writelines(f"D {t + 1} {h + 1}\n" for t, h in dirs.tolist())
        fh.writelines(f"U {u + 1} {v + 1}\n" for u, v in unds.tolist())


def test_splitmix64_reference_vector():
    assert checks.splitmix64(0) == 0xE220A8397B1DCDAF


def test_generate_check_rejects_injected_reciprocal_arc(tmp_path):
    w, stdout = checked_round(workloads.GenerateLarge, tmp_path)
    n, dirs, unds = checks.read_pdgraph(w.path("g.pdgraph"))
    dirs = np.concatenate([dirs, dirs[:1, ::-1]])
    dirs = dirs[np.argsort(dirs[:, 0] * n + dirs[:, 1])]
    write_pdgraph(w.path("g.pdgraph"), n, dirs, unds)
    with pytest.raises(checks.CheckFailed, match="reciprocal directed pair"):
        w.check(stdout, in_process)


def test_generate_check_rejects_a_moved_edge(tmp_path):
    w, stdout = checked_round(workloads.GenerateLarge, tmp_path)
    n, dirs, unds = checks.read_pdgraph(w.path("g.pdgraph"))
    unds = unds.copy()
    free = int(np.setdiff1d(np.arange(n), unds)[0])
    unds[0] = sorted((int(unds[0, 0]), free))
    unds = unds[np.argsort(unds[:, 0] * n + unds[:, 1])]
    write_pdgraph(w.path("g.pdgraph"), n, dirs, unds)
    with pytest.raises(checks.CheckFailed, match="gained stubs|modified_vertices"):
        w.check(stdout, in_process)


def test_sweep_check_rejects_a_dropped_cell(tmp_path):
    w, stdout = checked_round(workloads.SweepEmpirical, tmp_path)
    for name in ("serial.csv", "parallel.csv"):
        lines = w.read_text(name).splitlines(keepends=True)
        (tmp_path / name).write_text("".join(lines[:2] + lines[3:]))
    with pytest.raises(checks.CheckFailed, match="the grid has"):
        w.check(stdout, in_process)


def test_sweep_check_rejects_a_wrong_d_tv(tmp_path):
    w, stdout = checked_round(workloads.SweepEmpirical, tmp_path)
    for name in ("serial.csv", "parallel.csv"):
        header, *rows = w.read_text(name).splitlines()
        cells = [row.split(",") for row in rows]
        for cell in cells:
            cell[4] = repr(float(cell[4]) * (1 + 1e-6))
        (tmp_path / name).write_text("\n".join([header] + [",".join(c) for c in cells]) + "\n")
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        w.check(stdout, in_process)


def test_sweep_check_rejects_parallel_csv_that_differs(tmp_path):
    w, stdout = checked_round(workloads.SweepEmpirical, tmp_path)
    with open(tmp_path / "parallel.csv", "a") as fh:
        fh.write("\n")
    with pytest.raises(checks.CheckFailed, match="CSVs differ"):
        w.check(stdout, in_process)


def test_oracle_check_rejects_a_frequency_5_sigma_off(tmp_path):
    w, stdout = checked_round(workloads.OracleBattery, tmp_path)
    result = json.loads(stdout["mixed.txt"])
    freq = result["exact"] + 5 * result["stderr"]
    replicates = result["replicates"]
    result.update(frequency=freq, stderr=math.sqrt(freq * (1 - freq) / replicates))
    stdout["mixed.txt"] = json.dumps(result)
    with pytest.raises(checks.CheckFailed, match="stderr from exact"):
        w.check(stdout, in_process)


def test_oracle_check_rejects_a_miss_at_probability_one(tmp_path):
    w, stdout = checked_round(workloads.OracleBattery, tmp_path)
    result = json.loads(stdout["certain.txt"])
    assert result["exact_fraction"] == "1/1" and result["stderr"] == 0
    freq = 1 - 1 / result["replicates"]
    result.update(frequency=freq, stderr=math.sqrt(freq * (1 - freq) / result["replicates"]))
    stdout["certain.txt"] = json.dumps(result)
    with pytest.raises(checks.CheckFailed, match="a certain outcome"):
        w.check(stdout, in_process)


def test_ingest_check_rejects_a_wrong_duplicate_count(tmp_path):
    w, stdout = checked_round(workloads.IngestSnaplike, tmp_path)
    stats = json.loads(stdout["ingest"])
    assert stats["duplicates_dropped"] > 0 and stats["self_arcs_dropped"] > 0
    stats["duplicates_dropped"] += 1
    stdout["ingest"] = json.dumps(stats)
    with pytest.raises(checks.CheckFailed, match="IngestStats"):
        w.check(stdout, in_process)


def test_ingest_check_rejects_other_vertex_labels(tmp_path):
    w, stdout = checked_round(workloads.IngestSnaplike, tmp_path)
    n, dirs, unds = checks.read_pdgraph(w.path("snap.pdgraph"))
    swap = np.arange(n)
    swap[[0, 1]] = swap[[1, 0]]
    dirs, unds = swap[dirs], np.sort(swap[unds], axis=1)
    dirs = dirs[np.argsort(dirs[:, 0] * n + dirs[:, 1])]
    unds = unds[np.argsort(unds[:, 0] * n + unds[:, 1])]
    write_pdgraph(w.path("snap.pdgraph"), n, dirs, unds)
    with pytest.raises(checks.CheckFailed, match="differ from ground truth"):
        w.check(stdout, in_process)


def test_snaplike_list_has_the_slashdot_direction_mix():
    graph = workloads.snaplike.make_edge_list(2_000, 10_000, 5)
    truth = workloads.snaplike.ground_truth(graph)
    share = truth["directed"] / (truth["directed"] + truth["undirected"])
    assert abs(share - 0.27) < 0.001
    arcs = graph["arcs"]
    assert np.all(np.diff(arcs[:, 0]) >= 0), "lines not in ascending source order"
    assert truth["self_arcs_dropped"] > 0 and truth["duplicates_dropped"] > 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_end_to_end_at_tiny_size(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "generate_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
