"""Pin the answers every benchmark operation must reproduce.

    PYTHONPATH=src python3 perfbench/pin.py

writes perfbench/expected.json from the program in ./src. The answers in
the committed file come from the commit that defined the benchmark; a
later change must reproduce them, so they are never regenerated from a
changed program. For every offset in workload.OFFSETS the script also
checks that the translation-invariant fields (dimensions, ranks,
margins, statuses, verdicts and report counts) equal those at offset 0.
"""

from __future__ import annotations

import json
import os
import sys

import workload as wl
from run import read_commit


def cli_entry(outputs: dict) -> dict:
    base = outputs[0]
    for t, out in outputs.items():
        if (out["exit"], out["fields"]) != (base["exit"], base["fields"]):
            raise SystemExit(f"offset {t} changes a translation-invariant field: {out}")
    return {
        "exit": base["exit"],
        "fields": base["fields"],
        "digests": {str(t): out["digest"] for t, out in sorted(outputs.items())},
    }


def main() -> int:
    gk = wl.load_package()
    expected = {
        "backend": wl.environment(gk)["backend"],
        "commit": read_commit(os.getcwd()),
    }

    _, [(name, _, run)] = wl.build_ops("diagonal", 0)
    expected["diagonal"] = {name: cli_entry({0: run(gk)})}

    lattice: dict = {}
    for t in wl.OFFSETS:
        for name, _, run in wl.build_ops("lattice", 0, offset=t)[1]:
            lattice.setdefault(name, {})[t] = run(gk)
    expected["lattice"] = {name: cli_entry(outs) for name, outs in sorted(lattice.items())}

    residue: dict = {}
    for t in wl.OFFSETS:
        for name, _, run in wl.build_ops("residue", 0, offset=t)[1]:
            answer = run(gk)
            if name in residue and residue[name] != answer:
                raise SystemExit(f"offset {t} changes the answer of {name}: {answer}")
            residue.setdefault(name, answer)
    expected["residue"] = {name: {"answer": a} for name, a in sorted(residue.items())}

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
