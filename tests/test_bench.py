import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# The digest of every self-check operation, per workload, untraced and traced:
# byte drift in what the benchmark feeds the code or reads back shows here
# without a benchmark run.  Like the golden traces, these were taken with
# numpy's OpenBLAS on x86-64; a BLAS that orders float32 sums differently may
# move the decide and train digests.
SELF_CHECK_DIGESTS = {"explore": "1317ce76f65265b2", "decide": "c6c87ff7968caa58", "train": "d68ad186bedca02e"}


@pytest.mark.one_blas_thread
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
    assert sorted((r["workload"], r["trace"]) for r in records) == [(w, t) for w in sorted(SELF_CHECK_DIGESTS)
                                                                    for t in (0, 1)], tail
    for r in records:
        assert r["failed"] == 0 and not r["errors"] and r["attempted"] > 0, (r["workload"], r["trace"], r["errors"])
        digests = {d for ops in r["digests"]["ops"] for d in ops}
        assert digests == {SELF_CHECK_DIGESTS[r["workload"]]}, (r["workload"], r["trace"], digests)
