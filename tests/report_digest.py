"""Digest of every report over a fixed corpus, so two trees compare with diff.

Run it as

    PYTHONPATH=<tree>/src python tests/report_digest.py > <tree>.digest

and `diff` the files of two trees.  Each run is one line

    doc-index command flags exit sha256(stdout + stderr) value-digest

where flags are written as one word (`-` for none).  On exit 0 the value
digest is the sha256 of the report re-encoded with sorted keys and compact
separators, so a change of layout alone shows as a changed fifth field with an
equal sixth; on any other exit it is `-`.  Every run goes through
`cli.main(... --no-timestamp)` in-process, after the package memos are emptied,
so a run does not depend on the ones before it.  The corpus is every command
under four flag sets on 50 documents, 1600 runs: the README's five, a reducible
`sft` and a reducible `nonnegative` matrix, eleven beta bases, ten seeded
reducible and eight seeded irreducible 0/1 matrices, six seeded forbidden-word
documents, four seeded weighted matrices, the 2-cycle `sft`, whose entropy
is 0 and whose period is 2, two `nonnegative` matrices with lambda < 1,
whose KMS levels lambda^(-r) u grow past mass 1, and the base string "1_5",
refused on every Python although Fraction reads it as 15 from 3.11 on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

import numpy as np

import oracles
from conftest import clear_package_memos
from shiftkms import cli

FLAG_SETS = ((), ("--depth", "1"), ("--seed", "-3"), ("--max-n", "12", "--depth", "14", "--samples", "50"))


def _documents():
    docs = [
        {"type": "full", "alphabet": 3},
        {"type": "sft", "matrix": [[1, 1], [1, 0]]},
        {"type": "forbidden", "alphabet": 2, "words": [[1, 1]]},
        {"type": "beta", "beta": 1.8392867552, "digit_depth": 64},
        {"type": "nonnegative", "matrix": [[0, 2], [3, 0]]},
        {"type": "sft", "matrix": [[1, 1, 1], [1, 1, 0], [0, 0, 1]]},
        {"type": "nonnegative", "matrix": [[1, 1], [0, 2]]},
    ]
    bases = ("1.6180339887", "1.8392867552", "1.3247179572", "2", "3", "1.7", "1.5", "2.5", 1.9, 1.01, "1.01")
    docs += [{"type": "beta", "beta": b, "digit_depth": 230} for b in bases]
    rng = np.random.default_rng(0)
    docs += [{"type": "sft", "matrix": oracles.random_reducible_zero_one(rng).tolist()} for _ in range(10)]
    for d in (4, 8, 16, 32):
        for s in (0, 1):
            M = oracles.random_irreducible_zero_one(np.random.default_rng(100 * d + s), d, 0.5)
            docs.append({"type": "sft", "matrix": M.tolist()})
    for s in range(6):
        r = np.random.default_rng(s)
        words = [[int(x) for x in r.integers(1, 4, int(r.integers(2, 5)))] for _ in range(int(r.integers(1, 4)))]
        docs.append({"type": "forbidden", "alphabet": 3, "words": words})
    for s in range(4):
        r = np.random.default_rng(50 + s)
        M = np.round((r.random((6, 6)) < 0.6) * (0.5 + 1.5 * r.random((6, 6))), 4)
        docs.append({"type": "nonnegative", "matrix": M.tolist()})
    docs.append({"type": "sft", "matrix": [[0, 1], [1, 0]]})
    docs += [{"type": "nonnegative", "matrix": M} for M in ([[0, 0.3], [0.5, 0]], [[0.001]])]
    docs.append({"type": "beta", "beta": "1_5"})
    return docs


DOCUMENTS = _documents()


def _value_digest(stdout):
    canonical = json.dumps(json.loads(stdout), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def digest_lines(documents):
    """One line per (document, command, flag set) run, in corpus order."""
    for index, doc in enumerate(documents):
        text = json.dumps(doc)
        for command in cli.COMMANDS:
            for flags in FLAG_SETS:
                clear_package_memos()
                out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
                sys.stdin = io.StringIO(text)
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main([command, "-", "--no-timestamp", *flags])
                finally:
                    sys.stdin = stdin
                digest = hashlib.sha256((out.getvalue() + err.getvalue()).encode()).hexdigest()
                values = _value_digest(out.getvalue()) if code == 0 else "-"
                yield f"{index} {command} {','.join(flags) or '-'} {code} {digest} {values}"


if __name__ == "__main__":
    for line in digest_lines(DOCUMENTS):
        print(line)
