"""Compare two sets of saved benchmark runs, workload by workload.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds the last two stdout lines of any number of runs of
run.py (the detail line, then the result line).  For every workload and
metric both files measured, it prints each side's median, quartiles and
run count, and the change of the medians as a share of BEFORE.  Runs made
on a different kernel backend, core count or Python are flagged, because
their numbers do not compare.
"""

from __future__ import annotations

import json
import statistics
import sys

ENV_KEYS = ("kernels_backend", "nproc", "python", "numpy")


def load(path: str) -> tuple[dict, dict]:
    """{(workload, metric): [values]} and {workload: {env key: {values}}}."""
    values: dict = {}
    envs: dict = {}
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    for detail, result in zip(lines[::2], lines[1::2]):
        name = detail["workload"]
        for key in ENV_KEYS:
            envs.setdefault(name, {}).setdefault(key, set()).add(detail["env"][key])
        for metric, m in result["metrics"].items():
            values.setdefault((name, metric), []).append(m["value"])
    return values, envs


def _summary(vals: list[float]) -> str:
    med = statistics.median(vals)
    if len(vals) < 2:
        return f"{med:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] (n={len(vals)})"


def main(argv: list[str]) -> int:
    before, env_b = load(argv[0])
    after, env_a = load(argv[1])
    status = 0
    for name in sorted(set(env_b) & set(env_a)):
        for key in ENV_KEYS:
            if env_b[name][key] | env_a[name][key] != env_b[name][key] & env_a[name][key]:
                print(f"WARNING {name}: {key} differs ({sorted(env_b[name][key], key=str)} vs "
                      f"{sorted(env_a[name][key], key=str)}); these runs do not compare")
                status = 1
    for key in sorted(set(before) & set(after)):
        b, a = statistics.median(before[key]), statistics.median(after[key])
        change = f"{(a - b) / b:+.1%}" if b else "n/a"
        print(f"{key[0]:26} {key[1]:46} {_summary(before[key]):40} -> "
              f"{_summary(after[key]):40} {change}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
