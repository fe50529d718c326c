"""The command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import load_inputs, main, save_draws, split_inputs
from repro.errors import ReproError
from repro.eval import models
from repro.runtime.vectors import RaggedArray


@pytest.fixture
def gmm_files(tmp_path):
    model = tmp_path / "gmm.augur"
    model.write_text(models.GMM)
    rng = np.random.default_rng(0)
    true_mu = np.array([[-3.0, 0.0], [3.0, 0.0]])
    z = rng.integers(0, 2, size=50)
    x = true_mu[z] + rng.normal(0, 0.4, size=(50, 2))
    inputs = tmp_path / "inputs.json"
    inputs.write_text(
        json.dumps(
            {
                "K": 2,
                "N": 50,
                "mu_0": [0.0, 0.0],
                "Sigma_0": [[16.0, 0.0], [0.0, 16.0]],
                "pis": [0.5, 0.5],
                "Sigma": [[0.16, 0.0], [0.0, 0.16]],
                "x": x.tolist(),
            }
        )
    )
    return str(model), str(inputs), tmp_path


def test_sample_command(gmm_files, capsys):
    model, inputs, tmp = gmm_files
    out = tmp / "draws.npz"
    code = main(
        [
            "sample", model, inputs,
            "--samples", "20", "--burn-in", "5", "--seed", "1",
            "--collect", "mu", "--out", str(out), "--summary",
            "--trace-plot", "mu",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "schedule:" in text
    assert "samples/s" in text
    assert "trace of mu" in text
    with np.load(out) as draws:
        assert draws["mu"].shape == (20, 2, 2)


def test_sample_trace_writes_chrome_json(gmm_files, capsys):
    model, inputs, tmp = gmm_files
    # Unique hyper value -> a guaranteed compile-cache miss, so every
    # compiler stage actually runs (a hit would skip codegen spans).
    vals = json.loads(open(inputs).read())
    vals["Sigma_0"] = [[17.125, 0.0], [0.0, 17.125]]
    fresh = tmp / "inputs_fresh.json"
    fresh.write_text(json.dumps(vals))
    trace = tmp / "trace.json"
    code = main(
        ["sample", model, str(fresh), "--samples", "8", "--trace", str(trace)]
    )
    assert code == 0
    assert "wrote pipeline trace" in capsys.readouterr().out
    doc = json.loads(trace.read_text())
    names = [e["name"] for e in doc["traceEvents"]]
    for stage in [
        "frontend.parse", "density.extract", "kernel.select",
        "codegen.updates", "backend.plan", "backend.emit", "backend.exec",
    ]:
        assert names.count(stage) == 1, stage
    assert names.count("sweep") == 8
    assert "sample" in names


def test_sample_stats_flag_prints_summary(gmm_files, capsys):
    model, inputs, _ = gmm_files
    code = main(["sample", model, inputs, "--samples", "6", "--stats"])
    assert code == 0
    text = capsys.readouterr().out
    assert "sample stats" in text
    assert "Gibbs z: accept" in text


def test_sample_chains_with_monitor_and_stats(gmm_files, capsys):
    model, inputs, _ = gmm_files
    code = main(
        [
            "sample", model, inputs, "--samples", "30", "--chains", "2",
            "--executor", "sequential", "--collect", "mu",
            "--monitor", "--stats",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "online convergence report" in captured.out
    assert "split R-hat" in captured.out
    assert "cross-chain per-sweep means" in captured.out
    # Each update's acceptance range prints once, not once per flag.
    labels = [
        " ".join(line.split()[:2])  # "<kind> <variable>"
        for line in captured.out.splitlines() if "(range " in line
    ]
    assert labels and len(labels) == len(set(labels))
    # Incremental progress lines stream to stderr as chains finish.
    assert captured.err.count("[monitor]") == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--stream"],
        ["--monitor"],
        ["--early-stop-rhat", "1.1"],
        ["--chunk-size", "5"],
        ["--workers", "2"],
        ["--chains", "2", "--summary"],
        ["--chains", "2", "--trace-plot", "mu"],
    ],
    ids=lambda flags: flags[-1] if flags[-1].startswith("--") else flags[-2],
)
def test_sample_rejects_flags_its_path_ignores(gmm_files, capsys, flags):
    # The one-chain path reads none of the multi-chain flags, and the
    # multi-chain path none of the one-chain ones.
    model, inputs, _ = gmm_files
    code = main(["sample", model, inputs, "--samples", "5", *flags])
    assert code == 2
    flag = [f for f in flags if f.startswith("--") and f != "--chains"][0]
    assert f"error: {flag} needs --chains" in capsys.readouterr().err


def test_sample_rejects_unknown_executor(gmm_files, capsys):
    model, inputs, _ = gmm_files
    with pytest.raises(SystemExit) as exc:
        main(["sample", model, inputs, "--executor", "threads"])
    assert exc.value.code == 2
    assert "invalid choice: 'threads'" in capsys.readouterr().err


def test_inspect_command(gmm_files, capsys):
    model, inputs, _ = gmm_files
    code = main(["inspect", model, inputs, "--source"])
    assert code == 0
    text = capsys.readouterr().out
    assert "allocation plan" in text
    assert "def gibbs_mu" in text


def test_sample_with_user_schedule(gmm_files, capsys):
    model, inputs, _ = gmm_files
    code = main(
        ["sample", model, inputs, "--samples", "5",
         "--schedule", "ESlice mu (*) Gibbs z"]
    )
    assert code == 0
    assert "ESlice" in capsys.readouterr().out


def test_bad_schedule_reports_error(gmm_files, capsys):
    model, inputs, _ = gmm_files
    code = main(["sample", model, inputs, "--schedule", "Gibbs nothere"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_input_value(gmm_files, tmp_path):
    model, _, _ = gmm_files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"K": 2}))
    code = main(["sample", model, str(bad), "--samples", "2"])
    assert code == 2


def test_load_inputs_json_ragged(tmp_path):
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"w": [[1, 2, 3], [4]], "N": [3, 1]}))
    vals = load_inputs(str(p))
    assert isinstance(vals["w"], RaggedArray)
    assert vals["w"].n_elems == 4
    np.testing.assert_array_equal(vals["N"], [3, 1])


def test_load_inputs_npz(tmp_path):
    p = tmp_path / "in.npz"
    np.savez(p, a=np.arange(3), s=np.float64(2.5), n=np.int64(7))
    vals = load_inputs(str(p))
    assert vals["s"] == 2.5
    assert vals["n"] == 7
    np.testing.assert_array_equal(vals["a"], [0, 1, 2])


def test_load_inputs_rejects_unknown_format(tmp_path):
    p = tmp_path / "in.txt"
    p.write_text("x")
    with pytest.raises(ReproError, match="unsupported inputs format"):
        load_inputs(str(p))


def test_split_inputs_missing():
    with pytest.raises(ReproError, match="missing values"):
        split_inputs(models.NORMAL_NORMAL, {"N": 3})


def test_save_draws_ragged(tmp_path):
    draws = [RaggedArray.from_rows([[1, 2], [3]]) for _ in range(4)]
    out = tmp_path / "d.npz"
    save_draws(str(out), {"z": draws})
    with np.load(out) as data:
        assert data["z__flat"].shape == (4, 3)
        np.testing.assert_array_equal(data["z__offsets"], [0, 2, 3])
