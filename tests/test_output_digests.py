"""Every model subcommand's exit code and stdout on seeded documents,
against digests recorded at a commit whose outputs are known good
(``output_digests.json``, written by ``record_output_digests.py``).

A change that keeps the program's answers keeps every byte it prints.
Per family of documents the file holds the number of commands, one
digest over all their outputs, and a short digest per command, so that a
mismatch names the first commands that differ.  Each document goes to
``cli.main`` as JSON text, which ``load_model`` reads when the text names
no file.  Argument errors are left out: argparse's usage text differs
between Python versions.
"""

import hashlib
import importlib.util
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import diff_outputs
from conftest import (
    COEFF_POOL,
    arithmetic_genus,
    dense_product,
    first_bad_genus,
    first_negative_pair,
    random_lattice_tower,
    random_rational_lattice_tower,
    serialize_model,
)
from pklt_lab import corpus
from pklt_lab.modelio import LoadedModel

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "output_digests.json"
SMALL_N = range(1, 7)  # tower sizes of the cubic and chain documents
LATTICE_MODELS = 12  # accepted draws per lattice family


def bench_workloads():
    """``bench/workloads.py`` as a module of its own; it imports nothing
    of the program."""
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lattice_doc(model, rng, delta: str | None) -> dict:
    """``model`` with a divisor D on its base curves, and a pair at a
    random level with Δ named ``delta`` (None: Δ = 0).  A D that is Δ
    has no zero coefficient, so that Δ ≠ 0."""
    base = [cid for cid, c in model.curves.items() if c.born == 0]
    pool = COEFF_POOL[2:] if delta else COEFF_POOL[1:]
    terms = tuple((cid, rng.choice(pool)) for cid in base)
    pair = (rng.randrange(0, model.top + 1), delta)
    return serialize_model(LoadedModel(model, {"D": terms}, pair))


def lattice_docs(draw, seed: int, delta: str | None = None):
    """LATTICE_MODELS draws of ``draw`` whose base catalog passes the
    reference genus and pair checks, as documents."""
    rng = random.Random(seed)
    found = 0
    while found < LATTICE_MODELS:
        model = draw(rng)
        if (model is None or first_bad_genus(model.base)
                or first_negative_pair(model.base)):
            continue
        found += 1
        yield lattice_doc(model, rng, delta)


# the kinds of catalog fault make_base rejects: a fault of one curve
# each, but the last, which makes two curves meet negatively
FAULTS = ("tilde-id", "class-length", "duplicate-id", "genus-above-pa",
          "pa-not-integral", "negative-pair")


def with_fault(spec, i, kind, rng, untouched):
    """Curve ``i`` of the lattice spec with a fault of ``kind``: its id
    ends in '~', its class is one too long, its id is the previous
    curve's, its genus is its arithmetic genus plus one, its first
    coordinate gains 1/2 (K·C + C² is then not an integer on the form
    diag(1, −1, −1) with K = (−3, 1, 1)), or its class is a small one of
    arithmetic genus at least its genus that meets one of the
    ``untouched`` classes negatively."""
    cs = spec.curves[i]
    if kind == "tilde-id":
        return cs._replace(id=cs.id + "~")
    if kind == "class-length":
        return cs._replace(coeffs=(*cs.coeffs, Fraction(0)))
    if kind == "duplicate-id":
        return cs._replace(id=spec.curves[i - 1].id)
    if kind == "genus-above-pa":
        return cs._replace(genus=int(arithmetic_genus(spec, cs.coeffs)) + 1)
    if kind == "pa-not-integral":
        return cs._replace(coeffs=(cs.coeffs[0] + Fraction(1, 2), *cs.coeffs[1:]))
    while True:
        cls = tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
        if (arithmetic_genus(spec, cls) >= cs.genus
                and any(dense_product(cls, c, spec.gram) < 0 for c in untouched)):
            return cs._replace(coeffs=cls)


def catalog_fault_docs(seed: int):
    """Lattice documents from random_lattice_tower draws with three base
    curves or more that make_base accepts.  The first half get one fault
    each, two of every kind; the second half faults of two kinds on two
    curves.  Faults are made in catalog order, so that a duplicate id
    copies the previous curve's id as it ends up."""
    rng = random.Random(seed)
    plans = [(kind,) for kind in FAULTS for _ in range(2)]
    plans += rng.sample(list(itertools.combinations(FAULTS, 2)), len(plans))
    for kinds in plans:
        model = None
        while (model is None or len(model.base.curves) < 3
               or first_bad_genus(model.base) or first_negative_pair(model.base)):
            model = random_lattice_tower(rng)
        spec = model.base
        # a duplicate id needs a curve before it
        first = 1 if "duplicate-id" in kinds else 0
        faults = sorted(zip(rng.sample(range(first, len(spec.curves)), len(kinds)),
                            kinds))
        spots = {i for i, _ in faults}
        untouched = [c.coeffs for j, c in enumerate(spec.curves) if j not in spots]
        for i, kind in faults:
            spec = spec._replace(curves=(
                *spec.curves[:i], with_fault(spec, i, kind, rng, untouched),
                *spec.curves[i + 1:]))
        doc = lattice_doc(model, rng, None)
        doc["base"]["curves"] = [
            {"id": c.id, "class": [str(x) for x in c.coeffs], "genus": c.genus}
            for c in spec.curves]
        yield doc


def families(names=None) -> dict:
    """Family name -> its documents, as JSON texts: every family, or the
    ones in ``names``."""
    wl = bench_workloads()
    labels = [f"p{i}" for i in range(1, max(SMALL_N) + 1)]
    builders = {
        "corpus": lambda: [
            *(corpus.entry_file(name, "model") for name in corpus.NAMES),
            "models/ruled_blowup.json"],
        "fuzz": lambda: [d for d, _ in itertools.islice(wl.fuzz_stream(11), 100)],
        "fuzz_unrestricted": lambda: [d for d, _ in itertools.islice(
            wl.fuzz_stream(12, restrict=False), 50)],
        "cubic_chain": lambda: [build(labels[:n])
                                for build in (wl.cubic_doc, wl.chain_doc)
                                for n in SMALL_N],
        "lattice": lambda: list(lattice_docs(random_lattice_tower, 21)),
        "rational_lattice": lambda: list(
            lattice_docs(random_rational_lattice_tower, 22)),
        # the one family with a rational form and a pair with Δ = D, where
        # integral_class has a Fraction left to clear
        "rational_lattice_delta": lambda: list(
            lattice_docs(random_rational_lattice_tower, 23, "D")),
        "catalog_faults": lambda: list(catalog_fault_docs(24)),
    }
    return {name: [(ROOT / d).read_text(encoding="utf-8") if isinstance(d, str)
                   else json.dumps(d) for d in build()]
            for name, build in builders.items() if names is None or name in names}


def commands(text: str):
    """The arguments after the document of each command run on it: each
    subcommand's first run is followed by the same run in text format."""
    doc = json.loads(text)
    levels = sorted({"0", str(len(doc.get("blowups", [])))})
    runs = [["check"]]
    for name in ("antiK", "K", *doc.get("divisors", {})):
        for level in levels:
            runs.append(["zariski", "--divisor", name, "--level", level])
    for command in ("potential", "pnklt", "classify"):
        runs += [[command], [command, "--eps", "1/3"]]
    runs.append(["rcc"])
    runs += [["fano", "--level", level] for level in levels]
    seen = set()
    for args in runs:
        yield args
        if args[0] not in seen:
            seen.add(args[0])
            yield [*args, "--format", "text"]


def outputs(texts):
    """(label, output) for each command on each document."""
    for i, text in enumerate(texts):
        for args in commands(text):
            yield (f"[{i}] {' '.join(args)}",
                   diff_outputs.run([args[0], text, *args[1:]]))


def digest(labelled) -> dict:
    """The command count, the digest over every output and a short digest
    per command."""
    whole, short = hashlib.sha256(), []
    for _, out in labelled:
        one = hashlib.sha256(out)
        whole.update(one.digest())
        short.append(one.hexdigest()[:8])
    return {"count": len(short), "digest": whole.hexdigest()[:16],
            "commands": short}


def record() -> dict:
    return {name: digest(outputs(texts)) for name, texts in families().items()}


def test_outputs_match_the_recorded_digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    texts = families()
    assert list(texts) == list(recorded)
    for name, want in recorded.items():
        labelled = list(outputs(texts[name]))
        got = digest(labelled)
        differ = [f"{name}{label}" for (label, _), g, w
                  in zip(labelled, got["commands"], want["commands"]) if g != w]
        assert differ == [], differ[:5]
        assert got == want, name


def test_the_differential_finds_no_change_against_this_tree(capsys):
    """diff_outputs run on the corpus family, with this tree's own src/
    in its child process, lists no command."""
    src = str(ROOT / "src")
    assert diff_outputs.main([src, "corpus"]) == 0
    count = json.loads(DIGESTS.read_text(encoding="utf-8"))["corpus"]["count"]
    assert capsys.readouterr().out == f"0 of {count} commands differ from {src}\n"


def test_the_differential_groups_changes_by_exit_codes():
    """A command is listed under (exit code there, exit code here) when
    its exit code or its stdout differs."""
    here = [b"0\nx", b"3\ny", b"0\nz", b"3\nw"]
    there = [b"0\nx", b"0\ny", b"0\nZ", b"0\nw"]
    assert diff_outputs.transitions("abcd", here, there) == {
        ("0", "3"): ["b", "d"], ("0", "0"): ["c"]}
