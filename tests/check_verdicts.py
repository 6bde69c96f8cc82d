"""Compare ``kundunls check`` on every bundled preset, and on the config
files in ``configs/`` next to this script, with the pinned table.

The table, ``verdicts.json`` next to this script, holds each config's exit
code, the gates its report names in ``failed_gates`` (``residual``,
``boundary``, ``theta``, ``evolution``) and its ``residual_max``, or, for a
config that is rejected, the code of its first diagnostic.  ``residual_max``
must match to the last bit, so a change to the sweep's arithmetic that moves
any config's residual shows up here.  A verdict can then change only in a
diff of that table.

    python tests/check_verdicts.py

runs ``python -m kundunls.cli check`` on each config in turn (about three
minutes on two CPUs), prints the observed table and exits 1 on any
difference from the pinned one.  It is a CI job of its own, not part of
the Tier-1 tests.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

TABLE = Path(__file__).with_name("verdicts.json")
CONFIGS = Path(__file__).with_name("configs")


def verdict(name: str) -> dict:
    run = subprocess.run([sys.executable, "-m", "kundunls.cli", "check", name],
                         capture_output=True, text=True)
    if run.stdout.strip():
        report = json.loads(run.stdout)
        return {"exit": run.returncode, "failing": report["failed_gates"],
                "residual_max": report["residual_max"]}
    code = re.search(r"^\s+(\w+): ", run.stderr, re.MULTILINE)
    return {"exit": run.returncode, "error": code.group(1) if code else run.stderr}


def main() -> int:
    specs = subprocess.run([sys.executable, "-m", "kundunls.cli", "presets"],
                           capture_output=True, text=True, check=True).stdout.split()
    specs += sorted(map(str, CONFIGS.glob("*.json")))
    observed = {}
    for spec in specs:
        name = Path(spec).stem
        observed[name] = verdict(spec)
        print(name, json.dumps(observed[name]), flush=True)
    pinned = json.loads(TABLE.read_text(encoding="utf-8"))
    if observed == pinned:
        return 0
    for name in sorted(set(observed) | set(pinned)):
        if observed.get(name) != pinned.get(name):
            print(f"{name}: pinned {pinned.get(name)}, observed {observed.get(name)}",
                  file=sys.stderr)
    print(json.dumps(observed, indent=2), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
