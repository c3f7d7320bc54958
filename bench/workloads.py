"""Seeded inputs for the benchmark workloads.

Every generator takes the seed and yields what the program receives:
``pklt-lab/1`` model documents, or CLI argument lists.  Nothing here
imports the program, so the inputs do not depend on the code under test.
"""

from __future__ import annotations

import random

VERSION = "pklt-lab/1"

# tower size n of the cubic and chain workloads
SIZES = {"cubic": 48, "chain": 24}
FUZZ_MAX_BLOWUPS = 5

# The boundary-coefficient pool of the test suite's fuzz generators.  It
# includes 1, so pNklt is often non-empty and the rcc path runs.
COEFF_POOL = ("0", "0", "1/2", "1/3", "1/4", "2/3", "1")
PROPER_POOL = tuple(c for c in COEFF_POOL if c != "1")
# The timed fuzz stream gives coefficient 1 to no curve over a free center.
# A reduced boundary curve there is the input class on which the program's
# connectedness assert fails (ROADMAP, open item 4): pNklt comes out
# disconnected because the catalog lacks the curve through the free center
# that joins its components.  defect_stream yields that class; the
# benchmark runs some of it untimed after every fuzz run and prints how
# many fail.
DEFECT_SEED = 0

CLI_MODEL = "models/ruled_blowup.json"
# Every subcommand at least once, and each of the exit codes 0 to 3.
CLI_VARIANTS = (
    ("check", CLI_MODEL),
    ("zariski", CLI_MODEL, "--divisor", "antiK"),
    ("zariski", CLI_MODEL, "--divisor", "K"),
    ("potential", CLI_MODEL),
    ("zariski", CLI_MODEL, "--divisor", "D"),
    ("pnklt", CLI_MODEL, "--eps", "1/2"),
    ("pnklt", CLI_MODEL, "--eps", "-1"),
    ("classify", CLI_MODEL),
    ("classify", CLI_MODEL, "--format", "text"),
    ("fano", CLI_MODEL),
    ("rcc", CLI_MODEL),
    ("examples",),
)


def _point_labels(rng: random.Random, n: int) -> list[str]:
    labels: list[str] = []
    while len(labels) < n:
        label = "p%08x" % rng.getrandbits(32)
        if label not in labels:
            labels.append(label)
    return labels


def cubic_doc(labels: list[str]) -> dict:
    """A lattice base with a genus-1 cubic C = 3L, blown up at len(labels)
    distinct points of C."""
    return {
        "version": VERSION,
        "base": {
            "kind": "lattice",
            "basis": ["L"],
            "gram": [["1"]],
            "K": ["-3"],
            "curves": [
                {"id": "L", "class": ["1"], "genus": 0},
                {"id": "C", "class": ["3"], "genus": 1},
            ],
        },
        "blowups": [
            {"id": f"E{i}", "on": [{"curve": "C"}], "point": label}
            for i, label in enumerate(labels, 1)
        ],
        "pair": {"level": len(labels)},
    }


def chain_doc(labels: list[str]) -> dict:
    """The ruled surface (2, 3) blown up at a point of C0, then at
    len(labels) - 1 successive infinitely-near points."""
    blowups = [{"id": "E1", "on": [{"curve": "C0"}], "point": labels[0]}]
    for i, label in enumerate(labels[1:], 2):
        blowups.append({"id": f"E{i}", "near": f"E{i - 1}", "point": label})
    return {
        "version": VERSION,
        "base": {"kind": "ruled", "genus": 2, "e": 3},
        "blowups": blowups,
        "pair": {"level": len(labels)},
    }


def family_stream(build, n: int, seed: int):
    """One fixed tower of size n per input, under fresh seeded point labels.

    Each input is a distinct model (the program's caches key on the whole
    tower) of identical cost.  Yields (document, seeded label -> p<i>).
    """
    rng = random.Random(seed)
    canonical = [f"p{i}" for i in range(1, n + 1)]
    while True:
        labels = _point_labels(rng, n)
        yield build(labels), dict(zip(labels, canonical))


def over_free(blowups: list) -> set:
    """Ids of the exceptional curves over a free center: blown up at a
    point on no catalog curve, or on such an exceptional curve."""
    ids: set = set()
    for blowup in blowups:
        on = [a["curve"] for a in blowup.get("on", [])]
        if not on or any(a in ids for a in on):
            ids.add(blowup["id"])
    return ids


def reduced_over_free(doc: dict) -> bool:
    """Whether a boundary curve over a free center has coefficient 1."""
    free = over_free(doc.get("blowups", []))
    return any(term["coeff"] == "1" and term["curve"] in free
               for term in doc.get("divisors", {}).get("Delta", []))


def fuzz_doc(rng: random.Random, plane: bool, n_blowups: int,
             restrict: bool = True) -> dict:
    """A small random tower and boundary, drawn like the test suite's
    ``random_tower``: P² or a random ruled base, then free, on-curve or
    node centers.  Intersection numbers are tracked here, so node centers
    respect the program's intersection budgets.  Curves over a free center
    draw coefficient 1 only without `restrict`."""
    if plane:
        base = {"kind": "P2"}
        curves = ["L"]
        inter = {("L", "L"): 1}
    else:
        g, e = rng.choice([0, 0, 1, 2]), rng.choice([1, 2, 3])
        base = {"kind": "ruled", "genus": g, "e": e}
        curves = ["C0", "f"]
        inter = {("C0", "C0"): -e, ("C0", "f"): 1, ("f", "f"): 0}

    def number(a: str, b: str) -> int:
        return inter.get((a, b), inter.get((b, a), 0))

    blowups = []
    for k in range(1, n_blowups + 1):
        roll = rng.random()
        if roll < 0.25:
            on = []
        elif roll < 0.70:
            on = [rng.choice(curves)]
        else:
            pairs = [
                (a, b)
                for i, a in enumerate(curves)
                for b in curves[i + 1:]
                if number(a, b) >= 1
            ]
            on = list(rng.choice(pairs)) if pairs else [rng.choice(curves)]
        for a in on:
            inter[(a, a)] = number(a, a) - 1
        if len(on) == 2:
            inter[tuple(on)] = number(*on) - 1
            inter.pop((on[1], on[0]), None)
        exc = f"E{k}"
        inter[(exc, exc)] = -1
        for a in on:
            inter[(exc, a)] = 1
        curves.append(exc)
        blowup = {"id": exc, "point": f"p{k}"}
        if on:
            blowup["on"] = [{"curve": a} for a in on]
        blowups.append(blowup)

    level = rng.randrange(0, len(blowups) + 1)
    level_curves = curves[: len(curves) - len(blowups) + level]
    free = over_free(blowups) if restrict else set()
    terms = []
    for cid in level_curves:
        coeff = rng.choice(PROPER_POOL if cid in free else COEFF_POOL)
        if coeff != "0":
            terms.append({"curve": cid, "coeff": coeff})
    doc = {"version": VERSION, "base": base}
    if blowups:
        doc["blowups"] = blowups
    doc["pair"] = {"level": level}
    if terms:
        doc["divisors"] = {"Delta": terms}
        doc["pair"]["delta"] = "Delta"
    return doc


def fuzz_stream(seed: int, max_blowups: int = FUZZ_MAX_BLOWUPS,
                restrict: bool = True):
    """Yields (document, None).  Base kind and blow-up count are uniform, as
    in the test suite, but drawn without replacement: every block of
    2 * (max_blowups + 1) inputs has each pairing of them once, in seeded
    order, so runs on different seeds see the same mix of tower sizes."""
    rng = random.Random(seed)
    shapes = [(plane, k) for plane in (True, False)
              for k in range(max_blowups + 1)]
    while True:
        rng.shuffle(shapes)
        for plane, n_blowups in shapes:
            yield fuzz_doc(rng, plane, n_blowups, restrict), None


def defect_stream():
    """The fuzz inputs the timed stream leaves out: towers drawn the same
    way with a coefficient-1 boundary curve over a free center."""
    for doc, _ in fuzz_stream(DEFECT_SEED, restrict=False):
        if reduced_over_free(doc):
            yield doc, None


def cli_stream(seed: int, variants=CLI_VARIANTS):
    """Every variant once per round, in a seeded order per round."""
    rng = random.Random(seed)
    while True:
        order = list(variants)
        rng.shuffle(order)
        for argv in order:
            yield argv, None
