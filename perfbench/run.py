"""Kimbap reproduction wall-clock benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pr-powerlaw --seed 1 --seconds 20 --trace 0

Runs the workload in a fresh child process (``bench.py``), one closed-loop
client at ``jobs=1``, and prints its provenance, per-instance fingerprints,
every metric by name with its unit, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced pass
(spans are written to ``.perfbench-out/``). Exits non-zero, after printing
everything, when any job fails its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402

CHILD_TIMEOUT_S = 170


def report(result: dict, peak_rss_mb: float, trace: bool) -> tuple[list[str], dict]:
    """Human-readable lines plus the final JSON object for one result."""
    metrics = dict(result["metrics"], peak_rss_mb=peak_rss_mb)
    prov = result["provenance"]
    lines = [
        f"workload {result['workload']}: seed={prov['seed']} commit={prov['commit']} "
        f"cpu_count={prov['cpu_count']} python={prov['python']} numpy={prov['numpy']}",
    ]
    for index, instance in enumerate(result["instances"]):
        fields = " ".join(f"{key}={value}" for key, value in instance.items())
        lines.append(f"instance {index}: {fields}")
    lines.append(
        f"jobs: timed={result['jobs']} attempted={result['attempted']} "
        f"rounds_min={result['rounds_min']} rounds_max={result['rounds_max']}"
    )
    lines.extend(f"failure: {failure}" for failure in result["failures"])
    lines.append(f"jobs_failed = {result['failed']} count (of {result['attempted']} attempted)")
    shown = dict(END_TO_END)
    if trace:
        shown.update(PER_LAYER)
    for name, unit in shown.items():
        suffix = f" (jobs={result['jobs']})" if name == "job_p50_s" else ""
        lines.append(f"{name} = {metrics[name]!r} {unit}{suffix}")
    reported = PER_LAYER if trace else END_TO_END
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in reported.items()
        },
    }
    return lines, final


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spans = ROOT / ".perfbench-out" / f"spans-{args.workload}-{args.seed}.json"
    command = [
        sys.executable,
        str(HERE / "bench.py"),
        args.workload,
        str(args.seed),
        str(args.seconds),
        str(args.trace),
        str(spans),
    ]
    # A fresh process per workload: its ru_maxrss is this workload's alone.
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        print(f"perfbench: {args.workload} exceeded {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return 3
    if child.returncode != 0:
        print(f"perfbench: {args.workload} exited {child.returncode}", file=sys.stderr)
        return 4
    result = json.loads(stdout.decode().strip().splitlines()[-1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    lines, final = report(result, peak_rss_mb, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
