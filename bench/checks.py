"""Output checks, run outside the timed interval.

An op's outcome is ("report", pair, text), ("reject", error type name)
or ("exit", code, stdout bytes, peak RSS KiB) for a CLI run.  Each check
returns None when the outcome is right, else a one-line problem.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from pklt_lab import potential, surface, zariski


def _relabel(value, canon: dict):
    if isinstance(value, dict):
        return {canon.get(k, k): _relabel(v, canon) for k, v in value.items()}
    if isinstance(value, list):
        return [_relabel(v, canon) for v in value]
    if isinstance(value, str):
        return canon.get(value, value)
    return value


def outcome_digest(outcome, canon: dict | None = None) -> str:
    """Digest of a report's canonical JSON, with seeded point labels mapped
    back to their canonical names, or of a rejection's error type."""
    if outcome[0] == "reject":
        text = "reject:" + outcome[1]
    else:
        report = _relabel(json.loads(outcome[2]), canon or {})
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cli_digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()[:16]


def report_invariants(pair, report: dict) -> str | None:
    """Facts that hold for every pair the program accepts."""
    pa = [Fraction(e["pa"]) for e in report["ledger"].values()]
    least = min([Fraction(0)] + pa)
    frak = str(least) if least >= -1 else "-inf"
    if report["frakA"] != frak:
        return f"frakA {report['frakA']} is not min(0, min pa) -> {frak}"
    loci = report["loci"]
    if report["flags"]["potentially_klt"] != (not loci["pnklt"]):
        return "potentially_klt does not match an empty pNklt"
    pnklt = {json.dumps(c, sort_keys=True) for c in loci["pnklt"]}
    if any(json.dumps(c, sort_keys=True) not in pnklt for c in loci["nklt"]):
        return "Nklt is not inside pNklt"
    model = pair.model
    if pair.level == model.top:  # the pair-level decomposition is N itself
        return None
    low = zariski.zariski_decompose(
        model, pair.level, potential.anti_log_canonical(pair)
    )
    pulled = surface.total_transform(model, low.N)
    top = model.levels[-1]
    expected_n = {top.curve(cid).display: v for cid, v in pulled.terms}
    got_n = {k: Fraction(v) for k, v in report["zariski"]["N"].items()}
    if got_n != expected_n:
        return "N is not the total transform of the pair-level decomposition"
    return None


def check_analysis(outcome, canon, expected: str | None) -> str | None:
    """A document op: the stored digest when there is one, then the
    invariants of every report."""
    if expected is not None:
        got = outcome_digest(outcome, canon)
        if got != expected:
            return f"digest {got} differs from the stored {expected}"
    if outcome[0] == "report":
        return report_invariants(outcome[1], json.loads(outcome[2]))
    return None


def check_cli(outcome, expected) -> str | None:
    """A CLI run: the stored exit code and byte-identical stdout."""
    _, code, stdout, _ = outcome
    if [code, cli_digest(stdout)] != list(expected):
        return f"exit {code}, stdout {cli_digest(stdout)}; stored {expected}"
    return None
