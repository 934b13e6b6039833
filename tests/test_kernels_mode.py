"""The benchmark's kernels mode against this tree: it times single layer
calls by their names in qweyl (perfbench/kernels.py), so a renamed or
removed name shows here and not only in a traced benchmark run."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

KERNEL_METRICS = {
    "scalars.cyclo_mul_us.l23",
    "scalars.cyclo_mul_us.l31",
    "scalars.cyclo_mul_us.l31_wide",
    "scalars.laurent_mul_us.deg50",
    "scalars.laurent_mul_us.deg100",
    "scalars.embed_us.l31",
    "weylcore.pair_expansion_ms.jet_l23",
    "morphisms.apply_endo_ms.l23",
    "poisson.context_ms.l31",
}


def test_transport_kernels_run_and_name_every_metric():
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "job.py"), "--workload", "transport",
         "--seed", "1", "--mode", "kernels"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    assert set(metrics) == KERNEL_METRICS
    assert all(value > 0 for value in metrics.values())
