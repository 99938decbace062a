"""Compare the pipeline artifacts of two output trees.

    python3 tools/compare_artifacts.py A B

Every ``embedding.json``, ``symmetry.json``, ``model.json`` and ``fit.json``
found under A or B is matched by its path relative to the tree root and
compared byte for byte.  ``report.json`` is compared as parsed JSON after
dropping ``timings``, ``config.input.path`` and ``config.output.dir``, the
fields that depend on when and where the run happened.  A file found in
only one tree counts as a difference.  Each differing file is printed, and
the exit code is 1 on any difference, else 0.
"""

from __future__ import annotations

import json
import os
import sys

BYTE_EXACT = ("embedding.json", "symmetry.json", "model.json", "fit.json")
REPORT = "report.json"


def artifacts(root):
    """Relative paths of the compared artifacts under ``root``."""
    found = set()
    for folder, _, files in os.walk(root):
        for name in files:
            if name in BYTE_EXACT or name == REPORT:
                found.add(os.path.relpath(os.path.join(folder, name), root))
    return found


def _report_without_run_fields(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("timings", None)
    config = doc.get("config", {})
    config.pop("input.path", None)
    config.pop("output.dir", None)
    return doc


def same(path_a, path_b):
    if os.path.basename(path_a) == REPORT:
        return _report_without_run_fields(path_a) == _report_without_run_fields(path_b)
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        return fa.read() == fb.read()


def compare(root_a, root_b):
    """The relative paths that differ between the trees, and the count compared."""
    in_a, in_b = artifacts(root_a), artifacts(root_b)
    differing = sorted(in_a ^ in_b)
    common = sorted(in_a & in_b)
    differing += [rel for rel in common
                  if not same(os.path.join(root_a, rel), os.path.join(root_b, rel))]
    return sorted(differing), len(common)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(os.path.isdir(a) for a in args):
        print("usage: compare_artifacts.py A B  (two directories)", file=sys.stderr)
        return 2
    differing, compared = compare(*args)
    for rel in differing:
        print(rel)
    print(f"{compared} artifacts in both trees, {len(differing)} differ", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
