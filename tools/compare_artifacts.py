"""Compare the pipeline artifacts of two output trees.

    python3 tools/compare_artifacts.py A B

Every ``embedding.json``, ``symmetry.json``, ``model.json``, ``fit.json``,
``comparison.json``, ``*_model.json`` (``fixtures --dump`` output) and
``*.csv`` (input series, diagnostics tables, trajectories) found under A or
B is matched by its path relative to the tree root and compared byte
for byte.  ``report.json`` is compared as parsed JSON after
dropping ``timings``, ``config.input.path`` and ``config.output.dir``, the
fields that depend on when and where the run happened, and its text must
also be ``canonical_json`` of what it parses to, plus a newline, so a
report rendered with a wrong indent differs too.  A file found in only one
tree counts as a difference.  ``chaosid`` is imported from ``src/`` of the
checkout that holds this script.  Each differing file is printed, and
the exit code is 1 on any difference, 2 when no artifact is found in both
trees (a mistyped path compares nothing), else 0.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from chaosid.io import canonical_json

BYTE_EXACT = ("embedding.json", "symmetry.json", "model.json", "fit.json", "comparison.json")
REPORT = "report.json"


def artifacts(root):
    """Relative paths of the compared artifacts under ``root``."""
    found = set()
    for folder, _, files in os.walk(root):
        for name in files:
            if name in BYTE_EXACT or name == REPORT or name.endswith((".csv", "_model.json")):
                found.add(os.path.relpath(os.path.join(folder, name), root))
    return found


def _report_without_run_fields(path):
    """The parsed report without its run fields, or None when its text is
    not the canonical rendering of what it parses to."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    if text != canonical_json(doc) + "\n":
        return None
    doc.pop("timings", None)
    config = doc.get("config", {})
    config.pop("input.path", None)
    config.pop("output.dir", None)
    return doc


def same(path_a, path_b):
    if os.path.basename(path_a) == REPORT:
        doc_a = _report_without_run_fields(path_a)
        return doc_a is not None and doc_a == _report_without_run_fields(path_b)
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
    if not compared:
        return 2
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
