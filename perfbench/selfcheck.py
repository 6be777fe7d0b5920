#!/usr/bin/env python3
"""Self-check of the benchmark's failure accounting.

    python3 perfbench/selfcheck.py

A rect config whose `cos` term carries a single wavenumber makes cli.main
raise ExpressionError, yet the manifest it leaves says "status": "ok" with no
checks. The benchmark must count such a call as failed, in a fresh output
directory and in one that still holds an earlier run's outputs. Exits 0 when
every case is classified as expected.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import run


def small_rect(workloads):
    """rect-mixed shrunk to a few modes and steps, so each call takes milliseconds."""
    base = workloads.WORKLOADS["rect-mixed"]
    config = copy.deepcopy(base.config)
    for side in ("a", "b"):
        config["geometry"][side].update(n_modes=4, m_grid=16)
    config["scheme"].update(t_final=0.002, snapshot_stride=1)
    config["output"] = {}
    return dataclasses.replace(base, config=config, files=("timeseries.csv", "manifest.json"),
                               result_rows=3)


def main() -> int:
    run.bootstrap()
    import workloads
    from fracphase import cli

    good = small_rect(workloads)
    bad_config = copy.deepcopy(good.config)
    bad_config["data"]["theta0"][1]["k"] = 1
    bad = dataclasses.replace(good, config=bad_config)

    run.WORK_ROOT.mkdir(exist_ok=True)
    results = []
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        tmp = Path(tmp)
        paths = {"good": tmp / "good.json", "bad": tmp / "bad.json"}
        paths["good"].write_text(json.dumps(good.config))
        paths["bad"].write_text(json.dumps(bad.config))

        def problems(w, label, out_dir):
            return run.run_call(w, paths[label], out_dir, compare=False)[1]

        results.append(("good config, fresh directory",
                        problems(good, "good", tmp / "fresh-good"), False))
        results.append(("bad config, fresh directory",
                        problems(bad, "bad", tmp / "fresh-bad"), True))
        reused = tmp / "reused"
        cli.main([good.command, "--config", str(paths["good"]), "--out", str(reused), "--quiet"])
        results.append(("bad config, reused directory", problems(bad, "bad", reused), True))
    run.WORK_ROOT.rmdir()

    ok = True
    for label, found, should_fail in results:
        expected = bool(found) == should_fail
        ok &= expected
        print(f"{'ok  ' if expected else 'FAIL'} {label}: "
              f"{'failed' if found else 'passed'} {found}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
