"""Self-test of the benchmark's reference checks.

    python3 perfbench/selftest.py

Makes one real output of each kind (a rounded d = 2 see-saw call, one
certified truncation point, one round of the CLI workload), confirms the
checks accept it, then corrupts it in one way at a time and confirms the
checks reject every corruption.  Exits 0 when all of that holds.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from qcorrkit import seesaw, separating  # noqa: E402


def _perturbed_rho(out):
    d2 = out["rho"].shape[0]
    out["rho"] = (1 - 1e-6) * out["rho"] + 1e-6 * np.eye(d2) / d2


def _scaled_povm(out):
    out["alice"][0][0] = 1.01 * out["alice"][0][0]


def _rising_objective(out):
    objs = out["objectives"][0]
    objs[1] = objs[0] * 1.001


def _dropped_schmidt(out):
    out["schmidt"] = out["schmidt"][:3] + out["schmidt"][4:]


def _edited_induced(out):
    out["induced"] = out["induced"].copy()
    out["induced"][2, 3, 1, 0] += 1e-6


def main() -> int:
    results = []

    target = separating.exact_pstar(workloads.SEESAW_ALPHA)
    cfg = seesaw.SeesawConfig(local_dim=2, restarts=2, max_outer_iters=2, polish_iters=1,
                              seed=5, convergence_tol=0.0, rounding="projective")
    res = seesaw.optimize(target, cfg)
    table = np.array(target.table)
    results.append(("see-saw output accepted", not checks.check_seesaw(table, workloads.seesaw_output(res))))
    for label, corrupt in (("perturbed rho", _perturbed_rho), ("POVM element * 1.01", _scaled_povm),
                           ("rising objective trace", _rising_objective)):
        out = workloads.seesaw_output(res)
        corrupt(out)
        results.append((f"see-saw {label} rejected", bool(checks.check_seesaw(table, out))))

    alpha, m = 0.95, 4
    raw = workloads.certify(alpha, m)
    results.append(("certificate accepted",
                    not checks.check_certificate(alpha, m, workloads.certificate_output(raw))))
    for label, corrupt in (("dropped Schmidt coefficient", _dropped_schmidt),
                           ("edited induced table entry", _edited_induced)):
        out = workloads.certificate_output(raw)
        corrupt(out)
        results.append((f"certificate {label} rejected", bool(checks.check_certificate(alpha, m, out))))

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    try:
        wl = workloads.cli_workload("cli-files", 1, workdir)
        problems = []
        for op in wl.ops:
            problems += op.check(op.run())
        results.append(("CLI round accepted", not problems))
        tables = next(op for op in wl.ops if op.name == "tables")
        path = workdir / "pstar.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        idx = 1 + ((2 * 5 + 4) * 3 + 0) * 3 + 2  # header, then p(0,2|2,4), a zero of p*
        row = lines[idx].split(",")
        lines[idx] = ",".join(row[:4] + [repr(float(row[4]) + 1e-6)])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        results.append(("CLI edited table entry rejected", bool(tables.check(0))))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for label, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
