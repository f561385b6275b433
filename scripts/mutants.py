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


BENCHMARKS = "src/ftmr/benchmarks.py"
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
    # -- the shuffle's routes -----------------------------------------------
    Mutant(
        "route hit on an equal key-list length", ENGINE,
        "if route is None or route.keys != keys:",
        "if route is None or len(route.keys) != len(keys):",
    ),
    Mutant(
        # a one-position gather returns the bare value, not a one-item column
        "bare itemgetter(*at) for one-record destinations", ENGINE,
        "itemgetter(*at) if len(at) > 1\n                       else itemgetter(slice(at[0], at[0] + 1))",
        "itemgetter(*at)",
    ),
    Mutant(
        "payload size without its key bytes", ENGINE,
        "size = key_bytes + nbytes(sent)",
        "size = nbytes(sent)",
    ),
    # -- derived shuffle state kept too long -------------------------------
    Mutant(
        "no drop_derived() after recover", ENGINE,
        "            recover(self, event)\n"
        "            # a new memo, and the recovery's own cuts\n"
        "            self.drop_derived()\n",
        "            recover(self, event)\n",
    ),
    Mutant(
        "routes kept by drop_derived", ENGINE,
        "self.routes: dict[PeId, Route] = {}",
        'self.routes: dict[PeId, Route] = getattr(self, "routes", {})',
    ),
    Mutant(
        # the receivers' and the replay's layouts and recovery's cuts
        "layouts kept by drop_derived", ENGINE,
        "self.layouts: dict[object, tuple] = {}",
        'self.layouts: dict[object, tuple] = getattr(self, "layouts", {})',
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
        # the total stays right; each holder is charged its neighbour's share
        "share sizes rotated by one holder", ENGINE,
        "got = share_bytes(share, share_values)",
        "rotated = unit_values[(k + 1) % n :: n]\n"
        "            got = share_bytes(backup_share(src, unit, (k + 1) % n, n, rotated), rotated)",
    ),
    Mutant(
        # the shuffle and share repair both charge through it
        "a share charged without its key bytes", ENGINE,
        "return nbytes(share_values) + sum(nbytes(entry[3].keys) for entry in share)",
        "return nbytes(share_values)",
    ),
    Mutant(
        "wrong repair slice: share idx + 1 re-cut", RECOVERY,
        "share_values = values[idx::n]\n"
        "            share = backup_share(origin, unit, idx, n, share_values)",
        "share_values = values[(idx + 1) % n :: n]\n"
        "            share = backup_share(origin, unit, idx + 1, n, share_values)",
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
        # only a group failure has two failed owners to join
        "the replay's self part takes only the first failed owner's part", RECOVERY,
        "self_part[holder] = reduce(add, parts)",
        "self_part[holder] = parts[0]",
    ),
    Mutant(
        "_inject walks holders in reverse", RECOVERY,
        "    bytes_resent = 0\n    for holder, rebuilt in held.items():\n",
        "    bytes_resent = 0\n    for holder, rebuilt in reversed(held.items()):\n",
    ),
    Mutant(
        "_relog_pending copying only the first failed PE's sends", RECOVERY,
        "        for src in sorted(failed):\n",
        "        for src in sorted(failed)[:1]:\n",
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
        # the receivers' and the replay's slots share the check
        "replay layout reused without its key-list check", ENGINE,
        "    if kept is None or kept[0] != columns:\n",
        "    if kept is None:\n",
    ),
    Mutant(
        "inbox layout built on first sight", ENGINE,
        "        cluster.layouts[slot] = (columns, None)\n        return None\n",
        "        kept = (columns, None)\n",
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
        "return map(tuple.__new__, repeat(Record), zip(self.keys, self.values))",
        "return zip(self.keys, self.values)",
    ),
    # -- PageRank's reduce: each share decoded once per step ---------------
    Mutant(
        "bulk share decode accepting an adjacency-tagged value", BENCHMARKS,
        "joined[::9].translate(None, _TAG_SCORE + _TAG_DANGLING)",
        "joined[::9].translate(None, _TAG_SCORE + _TAG_DANGLING + _TAG_ADJ)",
    ),
    Mutant(
        # an 8-byte and a 10-byte value join to two 9-byte slices
        "bulk share decode checks only the joined length", BENCHMARKS,
        "len(joined) != 9 * k or struct.unpack(\"9s\" * k, joined) != tuple(shares)",
        "len(joined) != 9 * k",
    ),
    Mutant(
        # performance only: the adjacency makes the decode refuse, so every
        # group falls back to the per-value reduce with the same records
        "share fast path summing over all values", BENCHMARKS,
        "                del shares[values.index(hit[1])]\n",
        "                values.index(hit[1])\n",
    ),
    Mutant(
        "map seeds the unscaled score", BENCHMARKS,
        "scores[generation][share] = x",
        "scores[generation][share] = score",
    ),
    Mutant(
        # memory only: every entry stays exact, so only the check that a
        # generation holds what was stored into it in its own step, or a
        # bound on its size, sees it; the generation a step read is refilled
        "driver never empties the score table", BENCHMARKS,
        "self.scores[:] = self.scores[1], {}",
        "self.scores[:] = self.scores[1], self.scores[0]",
    ),
    Mutant(
        # performance only: the next step's reduces find no share stored
        # and decode each group
        "the new reduce seeds the generation its own step reads", BENCHMARKS,
        "return emit(step + 1, hit or entry(key, adj_bytes), score)",
        "return emit(step, hit or entry(key, adj_bytes), score)",
    ),
    Mutant(
        "the last step's reduce sends messages", BENCHMARKS,
        "            if step == iterations:\n",
        "            if step > iterations:\n",
    ),
    Mutant(
        # a vertex whose adjacency differs from the one its entry was built
        # for sends to the old targets
        "the share emission reuses a cache entry of another adjacency", BENCHMARKS,
        "if hit is None or hit[0] != adj_bytes:",
        "if hit is None:",
    ),
    # -- a user function's key and value columns ----------------------------
    Mutant(
        "map column-length check removed", ENGINE,
        "    if len(keys) != len(values):\n",
        "    if False:\n",
    ),
    Mutant(
        "identity path swapping the key and value columns", ENGINE,
        "    if map_fn is identity_map:\n        return batch\n",
        "    if map_fn is identity_map:\n        return Batch(batch.values, batch.keys)\n",
    ),
    Mutant(
        # the columns are extended one call late, so a column that fails
        # part-way does so while the next record is handed out
        "lazy-column map-error index off by one", ENGINE,
        "        for k, v in starmap(fn, it):\n"
        "            keys += k\n"
        "            values += v\n",
        "        k = v = ()\n"
        "        for result in starmap(fn, it):\n"
        "            keys += k\n"
        "            values += v\n"
        "            k, v = result\n"
        "        keys += k\n"
        "        values += v\n",
    ),
    Mutant(
        "map-error index without - 1", ENGINE,
        "idx = len(calls) - length_hint(it) - 1",
        "idx = len(calls) - length_hint(it)",
    ),
    Mutant(
        # each owner's groups run as one call list; only a key whose owner
        # is not the first replayed key's shows it
        "_replay_reduce charges every group to the first key's owner", RECOVERY,
        "owner: chain_calls(spec.reduce_fn, groups, owner, step,",
        "owner: chain_calls(spec.reduce_fn, groups, next(iter(by_owner)), step,",
    ),
    Mutant(
        "the source's shape check dropped", ENGINE,
        "    batch = source.fn(pe)\n",
        "    return source.fn(pe)\n",
    ),
]

# Mutants of code that no longer exists, with the reason.
GONE = {
    "dropped reset of the refusal state": (
        "Cluster.step resets nothing: the refusal state lives on the step "
        "records, and gc_logs retires it with them"
    ),
    "handed kept by drop_derived": (
        "Cluster.handed is gone: a receiver's layout is kept while its "
        "inboxes bring equal key columns, whichever routes delivered them"
    ),
    "splits kept by drop_derived": (
        "Cluster.splits is gone: recovery's cuts sit in Cluster.layouts, "
        "so 'layouts kept by drop_derived' covers them"
    ),
    "share memo never emptied": (
        "_ShareMemo is gone: a reader that misses decodes its group and "
        "stores nothing, so only senders fill a generation; 'driver never "
        "empties the score table' covers a generation that outlives its step"
    ),
    "share key bytes summed over the whole unit": (
        "routes keep no share sizes: a share is charged the key columns "
        "of its own entries, which 'a share charged without its key "
        "bytes' covers"
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
