import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_check_passes_without_failed_operations():
    # the bench times the model through a proxy of zero_grad, task_losses,
    # backward_weighted and predict.  Its self-check exits 0 even when every
    # operation raises (it then reports null metrics), so the per-workload
    # records are read as well
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-check"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    tail = run.stdout[-3000:] + run.stderr[-3000:]
    assert run.returncode == 0, tail
    records = [json.loads(line) for line in run.stdout.splitlines() if line.startswith('{"attempted"')]
    assert sorted({r["workload"] for r in records}) == ["decide", "explore", "train"], tail
    for r in records:
        assert r["failed"] == 0 and not r["errors"] and r["attempted"] > 0, (r["workload"], r["trace"], r["errors"])
