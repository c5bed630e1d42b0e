"""Run every workload untraced and traced; write ``BASELINE.md``.

Usage (from the repository root)::

    python3 perfbench/baseline.py

The file records the end-to-end metrics and the per-layer table of each
workload for seed 1, each run as long as ``run_seconds`` in
``BENCHMARK.json``, and tests the layer predictions written in
``README.md`` against the traced shares, reporting each as met or not.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
WORKLOADS = (
    "receding-mlp-adaptive",
    "receding-deepar-fixed",
    "service-drift-mlp",
    "offline-tft-backtest",
)

#: (claim, workload, test on the traced metrics).  The thresholds were
#: fixed before the baseline was measured.
PREDICTIONS = (
    ("the solve owns a large share (> 40 %) of the blocking time",
     "receding-mlp-adaptive", lambda m: m["share.solve_pct"] > 40),
    ("the solve owns a small share (< 5 %) of the blocking time",
     "receding-deepar-fixed", lambda m: m["share.solve_pct"] < 5),
    ("forecast.predict dominates (> 50 %) the blocking time",
     "receding-deepar-fixed", lambda m: m["share.forecast_pct"] > 50),
    ("checkpoints + refits are a visible share (> 10 %) of wall time",
     "service-drift-mlp",
     lambda m: m["share.checkpoint_pct"] + m["share.refit_pct"] > 10),
)


def run(workload: str, seed: int, seconds: float, trace: int):
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise SystemExit(f"{workload} --trace {trace} failed:\n{result.stderr}")
    report = json.loads(lines[-1])
    values = {name: m["value"] for name, m in report["metrics"].items()}
    return "\n".join(lines[:-1]), values


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    end_to_end, layers, texts = {}, {}, {}
    for workload in WORKLOADS:
        text0, end_to_end[workload] = run(workload, SEED, seconds, 0)
        text1, layers[workload] = run(workload, SEED, seconds, 1)
        texts[workload] = (text0, text1)
        print(f"{workload}: done", file=sys.stderr)

    import numpy

    names = list(next(iter(end_to_end.values())))
    out = [
        "# perfbench baseline",
        "",
        f"Seed {SEED}, `--seconds {seconds}`, "
        f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}.  Regenerate with "
        f"`python3 perfbench/baseline.py`.",
        "",
        "## End-to-end (`--trace 0`)",
        "",
        "| workload | " + " | ".join(names) + " |",
        "|---|" + "---|" * len(names),
    ]
    for workload, values in end_to_end.items():
        out.append(f"| {workload} | "
                   + " | ".join(f"{values[n]:.4g}" for n in names) + " |")
    out += ["", "## Layer predictions", ""]
    for claim, workload, test in PREDICTIONS:
        verdict = "met" if test(layers[workload]) else "NOT MET"
        out.append(f"* {workload}: {claim} — **{verdict}**")
    out += ["", "## Per workload", ""]
    for workload, (text0, text1) in texts.items():
        out += [f"### {workload}", "", "```", text0, "", text1, "```", ""]
    (HERE / "BASELINE.md").write_text("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
