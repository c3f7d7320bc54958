"""List the commands whose output differs between this tree's program and
the one in another ``src/`` directory.

    PYTHONPATH=src python3 tests/diff_outputs.py OTHER_SRC [FAMILY ...]

The documents of the output-digest families (``test_output_digests``:
every family, or the ones named) are made once, here.  Every command on
them runs in this process, against the ``pklt_lab`` on the path, and in
one child process with ``PYTHONPATH=OTHER_SRC``.  Each command whose
exit code or stdout differs is printed, grouped by its exit code there
and here: ``0 -> 3`` lists the commands that exit 0 against OTHER_SRC
and 3 against this tree.  Exits 1 when a command differs, else 0.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from pklt_lab import cli


def run(argv) -> bytes:
    """The exit code and stdout of ``cli.main(argv)``, as bytes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}".encode()


def run_child(src: str) -> int:
    """The child's side: the outputs of the argument lists read from
    stdin as JSON, written to stdout as a JSON list of texts."""
    where = Path(cli.__file__).resolve()
    if not where.is_relative_to(Path(src).resolve()):
        sys.exit(f"pklt_lab is imported from {where}, not from {src}")
    argvs = json.load(sys.stdin)
    json.dump([run(argv).decode() for argv in argvs], sys.stdout)
    return 0


def run_other(src: str, argvs: list) -> list[bytes]:
    """The outputs of ``argvs`` against the program in ``src``."""
    done = subprocess.run(
        [sys.executable, __file__, "--child", src], input=json.dumps(argvs),
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    if done.returncode != 0:
        sys.exit(f"the child run against {src} failed:\n{done.stderr}")
    return [out.encode() for out in json.loads(done.stdout)]


def transitions(labels, here, there) -> dict:
    """(exit code there, exit code here) -> the labels of the commands
    whose outputs ``here`` and ``there`` differ, in command order."""
    changed = collections.defaultdict(list)
    for label, a, b in zip(labels, here, there, strict=True):
        if a != b:
            changed[b.split(b"\n", 1)[0].decode(),
                    a.split(b"\n", 1)[0].decode()].append(label)
    return dict(changed)


def main(argv) -> int:
    import test_output_digests as digests  # the child does not need it

    src, names = argv[0], argv[1:]
    families = digests.families(names or None)
    if names and sorted(families) != sorted(set(names)):
        sys.exit(f"no such family: {', '.join(set(names) - set(families))}")
    labels, argvs = [], []
    for name, texts in families.items():
        for i, text in enumerate(texts):
            for args in digests.commands(text):
                labels.append(f"{name}[{i}] {' '.join(args)}")
                argvs.append([args[0], text, *args[1:]])
    changed = transitions(labels, [run(a) for a in argvs], run_other(src, argvs))
    total = sum(map(len, changed.values()))
    print(f"{total} of {len(argvs)} commands differ from {src}")
    for (there, here), group in sorted(changed.items()):
        print(f"{there} -> {here} ({len(group)}):")
        print("".join(f"  {label}\n" for label in group), end="")
    return 1 if total else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(run_child(sys.argv[2]))
    sys.exit(main(sys.argv[1:]))
