"""Mutation check for the recovery protocol and the shuffle's derived state.

Run from anywhere:

    python3 scripts/mutants.py                # every mutant
    python3 scripts/mutants.py guards lost    # mutants whose name has a word

Each mutant is a ``(file, old, new)`` text replacement in the package.
``old`` must occur exactly once in its file, so the list fails loudly
when the code drifts (``tests/test_mutants.py`` checks that, and runs no
mutant).  The repository is copied once to a temporary directory; each
mutant is applied to the copy, never to the repository, the Tier-1 suite
runs on the copy, and the file is restored before the next mutant.  A
mutant is killed when a test fails, and the failing tests are listed.
A mutant whose only failing test is the unread-locals lint
(:data:`LINT`) is reported as "killed by lint only" and counted as
survived: the lint fires whenever a mutant leaves a local unread, so it
says nothing about the behaviour the mutant breaks.
``tests/test_mutants.py`` is left out of those runs: on a mutated copy
its ``old`` is gone by design.

The exit code is 1 if a mutant survived (lint-only kills included) or
its ``old`` is not found exactly once.  Only the standard library is
used.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str


CORE = "src/ftmr/core.py"
ENGINE = "src/ftmr/engine.py"
METRICS = "src/ftmr/metrics.py"
RECOVERY = "src/ftmr/recovery.py"

MUTANTS = [
    # -- the refusal state on the step records --------------------------
    Mutant(
        "guards scanned over every step record", RECOVERY,
        "(s, h, d) for s in range(max(r, 1), t + 1)",
        "(s, h, d) for s in cluster.step_history",
    ),
    Mutant(
        "lost read from any step record", RECOVERY,
        "lost = cluster.step_history[r].lost if r else ()",
        "lost = set().union(*(h.lost for h in cluster.step_history.values()))",
    ),
    Mutant(
        "lost also recorded when r == t", RECOVERY,
        "    if r == t or r == 0:\n",
        "    if r == t:\n        cluster.step_history[r].lost.update(failed)\n"
        "    if r == t or r == 0:\n",
    ),
    # -- derived shuffle state kept too long -------------------------------
    Mutant(
        "no drop_derived() after recover", ENGINE,
        "            recover(self, event)\n"
        "            # a new memo, and inboxes no route lays out any more\n"
        "            self.drop_derived()\n",
        "            recover(self, event)\n",
    ),
    Mutant(
        "handed kept by drop_derived", ENGINE,
        "self.handed: dict[PeId, list[Route]] = {}",
        'self.handed: dict[PeId, list[Route]] = getattr(self, "handed", {})',
    ),
    Mutant(
        "routes kept by drop_derived", ENGINE,
        "self.routes: dict[PeId, Route] = {}",
        'self.routes: dict[PeId, Route] = getattr(self, "routes", {})',
    ),
    Mutant(
        "layouts kept by drop_derived", ENGINE,
        "self.layouts: dict[PeId, tuple[list[Route], list]] = {}",
        'self.layouts: dict[PeId, tuple[list[Route], list]] = getattr(self, "layouts", {})',
    ),
    Mutant(
        "splits kept by drop_derived", ENGINE,
        "self.splits: dict[object, tuple] = {}",
        'self.splits: dict[object, tuple] = getattr(self, "splits", {})',
    ),
    Mutant(
        "no drop after an all-distinct shuffle", ENGINE,
        "        owners.clear()\n        cluster.drop_derived()\n",
        "        owners.clear()\n",
    ),
    # -- backup shares cut from the columns --------------------------------
    Mutant(
        "share slice start ignores the destination offset", ENGINE,
        "        s = (k - o) % n\n",
        "        s = k % n\n",
    ),
    Mutant(
        "share sizes rotated by one holder", ENGINE,
        "got = share_keys[k] + nbytes(share_values)",
        "got = share_keys[(k + 1) % n] + nbytes(unit_values[(k + 1) % n :: n])",
    ),
    Mutant(
        "share key bytes summed over the whole unit", ENGINE,
        "route.share_keys.extend(nbytes(keys[k::n]) for k in range(n))",
        "route.share_keys.extend(nbytes(keys) for k in range(n))",
    ),
    Mutant(
        "wrong repair slice: share idx + 1 re-cut", RECOVERY,
        "share = backup_share(origin, unit, idx, n, values[idx::n])",
        "share = backup_share(origin, unit, idx + 1, n, values[(idx + 1) % n :: n])",
    ),
    Mutant(
        # each destination takes its run from the share's start; only a
        # multi-destination unit (group size 2) shows it
        "a precut share run whose offset never advances", ENGINE,
        "            at += count\n",
        "",
    ),
    # -- recovery batches and shares ---------------------------------------
    Mutant(
        "shares rebuilt without the failed-destination filter", RECOVERY,
        "batch for _, d, _, batch in share if d in failed",
        "batch for _, d, _, batch in share",
    ),
    Mutant(
        "_inject walks holders in reverse", RECOVERY,
        "    bytes_resent = 0\n    for holder, rebuilt in held.items():\n",
        "    bytes_resent = 0\n    for holder, rebuilt in reversed(held.items()):\n",
    ),
    Mutant(
        "_relog_mapped logs to dead PEs", RECOVERY,
        "if dst in failed or dst not in cluster.live:",
        "if dst in failed:",
    ),
    Mutant(
        "_inject delivers each batch twice", RECOVERY,
        "inbox[sender] = inbox[sender] + batch if sender in inbox else batch",
        "inbox[sender] = (inbox[sender] + batch if sender in inbox else batch) + batch",
    ),
    # -- a delivered batch is shared, so it never changes in place ---------
    Mutant(
        "_inject extends the receiver's batch in place", RECOVERY,
        "inbox[sender] = inbox[sender] + batch if sender in inbox else batch",
        "old = inbox.setdefault(sender, batch)\n"
        "            if old is not batch:\n"
        "                old.keys, old.values = [*old.keys, *batch.keys], [*old.values, *batch.values]",
    ),
    Mutant(
        "_log_copy extends the logged batch in place", RECOVERY,
        "log[dst] = log[dst] + batch if dst in log else batch",
        "old = log.setdefault(dst, batch)\n"
        "    if old is not batch:\n"
        "        old.keys, old.values = [*old.keys, *batch.keys], [*old.values, *batch.values]",
    ),
    Mutant(
        # a list column may be a route's, shared by its batches across steps
        "_log_copy extends the logged key column in place", RECOVERY,
        "log[dst] = log[dst] + batch if dst in log else batch",
        "old = log.setdefault(dst, batch)\n"
        "    if old is not batch:\n"
        "        keys = old.keys\n"
        "        keys += tuple(batch.keys)\n"
        "        log[dst] = Batch(keys, [*old.values, *batch.values])",
    ),
    # -- records built where columns do ------------------------------------
    Mutant(
        "inbox batches chained in descending sender order in the layout branch", ENGINE,
        "values = list(chain.from_iterable(inbox[src].values for src in sorted(inbox)))",
        "values = list(chain.from_iterable(inbox[src].values for src in sorted(inbox, reverse=True)))",
    ),
    Mutant(
        "replay layout reused without its key-list check", RECOVERY,
        "if kept is None or keys != kept[0]:",
        "if kept is None:",
    ),
    Mutant(
        "group_entries iterating records again", ENGINE,
        "        for key, value in zip(batch.keys, batch.values):\n",
        "        for key, value in batch:\n",
    ),
    Mutant(
        "check_against counting records again", METRICS,
        "if not _same(self._count(step, dst, ORIGINAL), reference._count(step, dst, ORIGINAL)):",
        "if not _same(self.bucket(step, dst, ORIGINAL), reference.bucket(step, dst, ORIGINAL)):",
    ),
    Mutant(
        "Batch.__iter__ yielding plain tuples", CORE,
        "return records_from_pairs(zip(self.keys, self.values))",
        "return zip(self.keys, self.values)",
    ),
    # -- a map's key and value columns -------------------------------------
    Mutant(
        "map column-length check removed", ENGINE,
        "    if len(keys) != len(values):\n",
        "    if False:\n",
    ),
    Mutant(
        "identity path swapping the key and value columns", ENGINE,
        "        return Batch.of(records)\n",
        "        batch = Batch.of(records)\n        return Batch(batch.values, batch.keys)\n",
    ),
    Mutant(
        # the columns are extended one call late, so a column that fails
        # part-way does so while the next record is handed out
        "lazy-column map-error index off by one", ENGINE,
        "        for rec in calls:\n"
        "            k, v = map_fn(rec)\n"
        "            keys += k\n"
        "            values += v\n",
        "        k = v = ()\n"
        "        for rec in calls:\n"
        "            keys += k\n"
        "            values += v\n"
        "            k, v = map_fn(rec)\n"
        "        keys += k\n"
        "        values += v\n",
    ),
    Mutant(
        "map-error index without - 1", ENGINE,
        "idx = len(records) - length_hint(calls) - 1",
        "idx = len(records) - length_hint(calls)",
    ),
]

# Mutants of code that no longer exists, with the reason.
GONE = {
    "dropped reset of the refusal state": (
        "Cluster.step resets nothing: the refusal state lives on the step "
        "records, and gc_logs retires it with them"
    ),
}


def drifted(root: Path = ROOT) -> list[str]:
    """One line per mutant whose ``old`` does not occur exactly once."""
    problems = []
    for m in MUTANTS:
        n = (root / m.file).read_text().count(m.old)
        if n != 1:
            problems.append(f"{m.name}: old text occurs {n} times in {m.file}")
    return problems


def failing_tests(output: str) -> list[str]:
    """The test ids of pytest's ``FAILED``/``ERROR`` summary lines."""
    return [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in output.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]


LINT = "tests/test_imports.py::test_no_unread_locals"


def verdict(code: int, failed: list[str]) -> str:
    """``survived``, ``lint only`` or ``killed``, from a run's exit code
    and its failing tests; the lint runs once per module, as ``LINT[name]``."""
    if code == 0:
        return "survived"
    lint_only = failed and all(test.split("[", 1)[0] == LINT for test in failed)
    return "lint only" if lint_only else "killed"


def run_tier1(tree: Path) -> tuple[int, list[str]]:
    """Run the Tier-1 suite in ``tree``; (exit code, failing test ids)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return proc.returncode, failing_tests(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("words", nargs="*", help="run only mutants whose name has one")
    args = ap.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.words or any(w in m.name for w in args.words)]
    problems = drifted()
    for problem in problems:
        print(f"DRIFT {problem}")
    if problems:
        return 1
    survived = 0
    with tempfile.TemporaryDirectory(prefix="ftmr-mutants-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.pyc"))
        code, failed = run_tier1(tree)
        if code != 0:
            print(f"the unmutated copy fails {len(failed)} tests: {failed}")
            return 1
        for m in chosen:
            path = tree / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                code, failed = run_tier1(tree)
            finally:
                path.write_text(original)
            took = time.perf_counter() - start
            result = verdict(code, failed)
            if result == "survived":
                survived += 1
                print(f"SURVIVED  {m.name}  ({took:.1f} s)")
            elif result == "lint only":
                survived += 1
                print(f"LINT ONLY {m.name}  killed by lint only ({took:.1f} s)")
            else:
                print(f"killed    {m.name}  by {len(failed)} tests ({took:.1f} s)")
                for test in failed:
                    print(f"            {test}")
    for name, reason in GONE.items():
        print(f"gone      {name}: {reason}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
