#!/usr/bin/env python3
"""Regenerate ``perfbench/expected.json``, the benchmark's expected answers.

    python3 perfbench/make_expected.py

* ``explore-apps``: the number of SER histories of every Fig. 14 suite
  program, from ``explore_ce_star(CC, SER)`` and confirmed equal to
  ``explore_ce_star(RA, SER)``, which explores a different (weaker) level.
* ``monitor-si-engine``: the SHA-256 of the recorded engine log and the
  batch SI checker's verdict on the whole recorded history.
* ``monitor-rc-fresh``: the verdict every seed's stream must get.  The
  streams name only the latest committed writer, so they are RC-clean by
  construction; the batch RC checker confirms it on a few seeds.

The reduced-shape cross-check against the brute-force ``dfs_baseline`` and
``satisfies_reference`` lives in ``checks.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.apps.workloads import APPLICATIONS, client_program  # noqa: E402
from repro.dpor.algorithms import explore_ce_star  # noqa: E402

import suite  # noqa: E402

RC_CHECKED_SEEDS = (0, 1, 2, 7)


def explore_counts() -> dict:
    counts = {}
    shape = suite.SUITE
    for app in APPLICATIONS:
        for index in range(shape["programs_per_app"]):
            program = client_program(app, shape["sessions"], shape["txns_per_session"], index)
            cc = explore_ce_star(program, "CC", "SER").stats.outputs
            ra = explore_ce_star(program, "RA", "SER").stats.outputs
            if cc != ra:
                raise SystemExit(f"{program.name}: CC+SER gives {cc}, RA+SER gives {ra}")
            counts[program.name] = cc
            print(f"{program.name}: {cc}", flush=True)
    return counts


def main() -> None:
    si = suite.EngineLogWorkload("monitor-si-engine", 0, {})
    si.setup()
    rc_checked = {}
    for seed in RC_CHECKED_SEEDS:
        rc = suite.FuzzStreamWorkload("monitor-rc-fresh", seed, {})
        rc.setup()
        rc_checked[str(seed)] = {"sha256": rc.input_fingerprint(), "verdict": rc.batch_verdict()}
    expected = {
        "explore-apps": {"suite": suite.SUITE, "levels": ["CC", "SER"],
                         "outputs": explore_counts()},
        "monitor-si-engine": {"log": suite.SI_LOG, "events": len(si.lines) - 1,
                              "sha256": si.input_fingerprint(), "verdict": si.batch_verdict()},
        "monitor-rc-fresh": {"stream": suite.RC_STREAM, "verdict": True,
                             "checked_seeds": rc_checked},
    }
    if not all(entry["verdict"] for entry in rc_checked.values()):
        raise SystemExit(f"an RC stream is not clean: {rc_checked}")
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
