"""Record the outputs that checks without a closed form compare against.

Usage, from the root of a checkout: python3 perfbench/record_reference.py

Writes perfbench/reference.json from the fixed-input jobs: the two CLI fits,
the bit3 amplitude-damping sweep, the default dqd grid, and the small_sweeps
pairs that have no closed form, on the fixed grid.  The file in the
repository was recorded at the commit that defined the benchmark; record
again only on purpose, and say why where the change is described.
"""
import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from run import Runner


def main() -> int:
    root = Path.cwd()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        runner = Runner(root, workdir)
        runner.probe()
        reference = {}
        for job in (workloads.shor9_fit_job({}),
                    workloads.shor5_amp_fit_job({}),
                    workloads.amp_sweep_job("bit3", workloads.LO,
                                            workloads.HI, {}),
                    workloads.dqd_job({})):
            reference[job.key] = run_ok(runner, job.args, "-m", "decoq.cli")
        spec = [{"code": code, "channel": kind,
                 "grid": workloads.fixed_grid()}
                for code, kind in workloads.SMALL_PAIRS
                if (code, kind) not in workloads.CLOSED_FORM]
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = run_ok(runner, (str(spec_path),),
                     str(workloads.HERE / "sweeps_job.py"))
        reference["small_sweeps"] = {
            f"{r['code']}/{r['channel']}": [d for _, d in r["samples"]]
            for r in map(json.loads, out.splitlines())}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


def run_ok(runner, args, *prefix) -> str:
    code, _, _, out, err = runner.spawn([sys.executable, *prefix, *args])
    if code != 0:
        raise SystemExit(f"{' '.join(args)} failed:\n{err}")
    return out.decode()


if __name__ == "__main__":
    sys.exit(main())
