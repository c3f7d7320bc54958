"""Every model subcommand on seeded random towers: nothing escapes
``cli.main``, every exit code is a documented one, and ``python -O``
prints the same."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from conftest import COEFF_POOL, random_tower, serialize_model
from pklt_lab import cli
from pklt_lab.modelio import LoadedModel

EXIT_CODES = {0, 1, 2, 3}


def fuzz_commands(seed: int, count: int):
    """Yields (argv, reduced over a free center) for `count` random towers:
    a boundary Δ at a random level that gives coefficient 1 to a curve over
    a free center half of the time it can, a top-level divisor D, and each
    subcommand, with --level inside or outside the tower."""
    rng = random.Random(seed)
    for _ in range(count):
        model = random_tower(rng)
        level = rng.randrange(0, model.top + 1)
        free = {c.exceptional_id for c in model.centers if not c.on_curves}
        delta = {}
        for cid in model.level(level).classes:
            coeff = rng.choice(COEFF_POOL)
            if cid in free and rng.random() < 0.5:
                coeff = Fraction(1)
            if coeff:
                delta[cid] = coeff
        divisors = {
            "Delta": tuple(delta.items()),
            "D": tuple((cid, rng.choice(COEFF_POOL)) for cid in model.curves),
        }
        pair = (level, "Delta" if delta else None)
        doc = json.dumps(serialize_model(LoadedModel(model, divisors, pair)))
        level_args = [
            "--level",
            rng.choice([str(rng.randrange(0, model.top + 1)), "-1",
                        str(model.top + 1)]),
        ]
        eps = ["--eps", rng.choice(["0", "1/3", "1/2", "2"])]
        reduced = any(delta.get(cid) == 1 for cid in free)
        for argv in (
            ["check", doc],
            ["zariski", doc, "--divisor", rng.choice(["antiK", "K", "D"]),
             *level_args],
            ["potential", doc, *eps],
            ["pnklt", doc, *eps],
            ["classify", doc, "--format", rng.choice(["json", "text"])],
            ["fano", doc, *level_args],
            ["rcc", doc],
        ):
            yield argv, reduced


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_no_exception_escapes_the_cli():
    codes = set()
    reduced = 0
    for argv, over_free in fuzz_commands(seed=4, count=200):
        try:
            code, _ = run(argv)
        except Exception as exc:  # the failure this test looks for
            raise AssertionError(f"{argv[0]} {argv[2:]} on {argv[1]}") from exc
        assert code in EXIT_CODES, (argv, code)
        codes.add(code)
        reduced += over_free
    assert codes == EXIT_CODES
    assert reduced >= 100  # commands on a reduced boundary over a free center


# Runs the JSON argv lists on stdin through cli.main; prints each exit code
# and a digest of its stdout.
BATCH = """
import contextlib, hashlib, io, json, sys
from pklt_lab import cli
for line in sys.stdin:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(json.loads(line))
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16])
"""


def test_optimized_interpreter_prints_the_same_batch():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    batch = "".join(
        json.dumps(argv) + "\n" for argv, _ in fuzz_commands(seed=9, count=12)
    )
    procs = [
        subprocess.Popen([sys.executable, *flags, "-c", BATCH], env=env,
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         text=True)
        for flags in ([], ["-O"])
    ]
    (plain, _), (optimized, _) = (p.communicate(batch, timeout=60) for p in procs)
    assert [p.returncode for p in procs] == [0, 0]
    assert len(plain.splitlines()) == 12 * 7
    assert plain == optimized
