"""Every per-layer count repeats exactly across two traced runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

# Runs the traced round of every workload at a small size and prints the
# counts, the metrics whose unit is "count".
PROGRAM = f"""
import json, sys
sys.path.insert(0, {str(HERE)!r})
import run
out = {{}}
for name in ("verify", "grid-complex"):
    metrics, work, rounds, _ = run.traced(name, 3, small=True)
    assert not run.check_rounds(work, rounds), name
    out[name] = {{k: v for k, (v, unit) in metrics.items() if unit == "count"}}
print(json.dumps(out))
"""


def traced_counts(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_counts_repeat_across_traced_runs():
    first = traced_counts("1")
    second = traced_counts("2")
    assert first == second
    for name, counts in first.items():
        assert counts["planar.builds"] > 0, name
        assert counts["complexes.faces"] > 0, name
    assert first["verify"]["verify.euler_cases"] > 0
    assert first["verify"]["topology.links"] > 0
    assert first["verify"]["geometry.predicate_calls"] > 0
