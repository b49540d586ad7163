"""Output check of one ``highline analyze`` run.

A run passes when it exited with code 0, its artifacts satisfy the
invariants below, and, where reference digests exist for its input, every
artifact is byte-identical to the reference.
"""

from __future__ import annotations

import csv
import hashlib
import os

ARTIFACTS = ("hlel.csv", "links.csv", "summary.csv", "dfg.dot", "config.json")

# line prefixes of the analyze report on stdout -> count names
PRINTED = {"events": "events", "windows": "windows", "high-level events": "hles",
           "cascades": "cascades"}


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def artifact_digests(out_dir: str) -> dict[str, str]:
    """sha256 of each artifact present in ``out_dir``."""
    return {name: sha256(os.path.join(out_dir, name)) for name in ARTIFACTS
            if os.path.isfile(os.path.join(out_dir, name))}


def printed_counts(stdout: str) -> dict[str, int]:
    """The counts ``highline analyze`` prints, keyed as in ``PRINTED``."""
    counts = {}
    for line in stdout.splitlines():
        label, sep, value = line.partition(": ")
        if sep and label in PRINTED and value.strip().isdigit():
            counts[PRINTED[label]] = int(value)
    return counts


def _rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, list(reader)


def invariant_errors(out_dir: str, printed: dict[str, int]) -> list[str]:
    """Violations of the invariants every analyze output must satisfy."""
    missing = [name for name in PRINTED.values() if name not in printed]
    if missing:
        return [f"stdout lacks the counts {missing}"]
    header, hlel = _rows(os.path.join(out_dir, "hlel.csv"))
    case, value, threshold = (header.index(c) for c in ("case", "value", "threshold"))
    errors = []
    if len(hlel) != printed["hles"]:
        errors.append(f"hlel.csv has {len(hlel)} rows, stdout says {printed['hles']} HLEs")
    cases = {int(row[case]) for row in hlel}
    if cases != set(range(1, printed["cascades"] + 1)):
        errors.append(f"cascade ids are not dense 1..{printed['cascades']}")
    below = sum(1 for row in hlel if not float(row[value]) >= float(row[threshold]))
    if below:
        errors.append(f"{below} HLEL rows have value < threshold")

    header, links = _rows(os.path.join(out_dir, "links.csv"))
    link = header.index("link")
    outside = sum(1 for row in links if not 0 < float(row[link]) <= 1)
    if outside:
        errors.append(f"{outside} links lie outside (0, 1]")

    header, summary = _rows(os.path.join(out_dir, "summary.csv"))
    hles = header.index("hles")
    total = sum(int(row[hles]) for row in summary)
    if total != len(hlel):
        errors.append(f"summary.csv counts {total} HLEs, hlel.csv has {len(hlel)}")
    return errors


def check_run(returncode: int, stdout: str, out_dir: str,
              reference: dict[str, str] | None) -> tuple[list[str], dict[str, str]]:
    """Errors of one run (empty when it passed) and its artifact digests.

    ``reference`` maps artifact names to digests recorded for this input;
    ``None`` checks the invariants only.
    """
    if returncode != 0:
        return [f"exit code {returncode}"], {}
    digests = artifact_digests(out_dir)
    absent = [name for name in ARTIFACTS if name not in digests]
    if absent:
        return [f"missing artifacts {absent}"], digests
    try:
        errors = invariant_errors(out_dir, printed_counts(stdout))
    except (ValueError, IndexError) as exc:
        errors = [f"malformed artifact ({exc})"]
    if reference is not None:
        errors += [f"{name}: sha256 differs from the reference" for name in ARTIFACTS
                   if digests[name] != reference.get(name)]
    return errors, digests
