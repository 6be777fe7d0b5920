#!/usr/bin/env python3
"""Pin the default-seed result of each workload as its correctness reference.

    python3 perfbench/pin_reference.py [WORKLOAD ...]

Runs each named workload (all by default) once on the default seed, requires
the run to pass every output check except the reference comparison, and
copies its result file to perfbench/reference/<workload>.csv. Re-pin only
when a change is meant to alter the answer, and say so where it is reviewed.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(argv) -> int:
    run.bootstrap()
    from fracphase import cli
    from workloads import DEFAULT_SEED, WORKLOADS, make_config

    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in argv or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        run.WORK_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
            config_path = Path(tmp) / "config.json"
            config_path.write_text(json.dumps(make_config(workload, DEFAULT_SEED)))
            out_dir = Path(tmp) / "out"
            code = cli.main([workload.command, "--config", str(config_path),
                             "--out", str(out_dir), "--quiet"])
            problems = run.check_outputs(workload, out_dir, compare=False)
            if code != 0 or problems:
                print(f"{name}: exit {code}, {problems}; reference not written",
                      file=sys.stderr)
                return 1
            shutil.copyfile(out_dir / workload.result_file,
                            run.REFERENCE_DIR / f"{name}.csv")
        print(f"{name}: pinned {workload.result_file}")
    run.WORK_ROOT.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
