"""Check each job's output against its method's guarantee.

The guarantees are the ones the estimators' docstrings state.  Every
estimate is compared with an exact value from ``corpus`` (scipy, not
diamecc).  ``check`` returns ``(problem, ratios)``: ``problem`` is None
when the output is correct, and ``ratios`` lists estimate / truth for
every estimate that is a lower bound of its truth.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from corpus import TAU

INF = math.inf


def _num(x):
    return INF if x is None else x


def _scalar(method, est, truth):
    """Guarantee of a scalar lower-bound estimate of truth D; None if it holds."""
    D = truth
    if est > D:
        return f"estimate {est} exceeds truth {D}"
    if D == INF:
        return None if est == INF else f"finite estimate {est} for unreachable truth"
    if method in ("diam-folk", "diam-lin"):
        ok = 2 * est >= D and (method == "diam-folk" or D % 2 or D == 0 or est >= D // 2 + 1)
    elif method == "diam-dense":
        h, z = divmod(D, 3)
        ok = est >= (2 * h if z == 2 else 2 * h - 1)
    elif method == "spanner-compose":  # diam-lin on an additive-2 spanner
        ok = 2 * (est + 2) >= D
    elif method == "st3":
        ok = 3 * est >= D
    elif method == "st2":
        ok = est >= 2 * (D // 4)
    elif method == "st2-weighted":
        ok = True  # only est <= D is promised
    elif method == "st2true":
        ok = 2 * est >= D
    elif method == "st-equiv":
        ok = est == D
    else:
        raise ValueError(f"no guarantee known for {method}")
    return None if ok else f"estimate {est} below {method}'s bound for truth {D}"


def _vector(method, ests, eccs):
    if len(ests) != len(eccs):
        return f"{len(ests)} estimates for {len(eccs)} vertices"
    tau = Fraction(TAU)
    for v, (est, ecc) in enumerate(zip(ests, eccs)):
        est, ecc = _num(est), _num(ecc)
        if est > ecc:
            return f"vertex {v}: estimate {est} exceeds eccentricity {ecc}"
        if method == "ecc2":
            ok = 2 * est >= ecc
        elif method == "ecc2d":
            ok = est >= math.floor((1 - tau) * ecc / 2)
        elif method == "ecc-dense":
            ok = 5 * (est + 1) >= 3 * ecc
        else:
            raise ValueError(f"no guarantee known for {method}")
        if not ok:
            return f"vertex {v}: estimate {est} below {method}'s bound for {ecc}"
    return None


def check_run(job, text, truth):
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return f"unparsable output {text[:80]!r}", []
    method = job["method"]
    if method in ("ecc2", "ecc2d", "ecc-dense"):
        ests, eccs = report.get("estimates"), truth["ecc"]
        if not isinstance(ests, list):
            return "no estimates", []
        problem = _vector(method, ests, eccs)
        ratios = [_num(e) / _num(x) for e, x in zip(ests, eccs)
                  if x not in (None, 0) and e is not None]
        return problem, ratios
    est = _num(report.get("estimate", "missing"))
    if not isinstance(est, (int, float)):
        return "no estimate", []
    if method == "radius":
        R, ecc = truth["radius"], truth["ecc"]
        vertex = report.get("vertex")
        if not isinstance(vertex, int) or not 0 <= vertex < len(ecc):
            return f"bad radius vertex {vertex!r}", []
        if est != ecc[vertex]:
            return f"radius value {est} is not ecc({vertex}) = {ecc[vertex]}", []
        # R <= value <= alpha * R with alpha = 2 / (1 - tau).
        if not R <= est <= 2 * R / (1 - Fraction(TAU)):
            return f"radius value {est} outside [R, 2R/(1-tau)] for R = {R}", []
        return None, []
    if method in ("st2", "st2true") and truth.get("weighted"):
        kind = "st2-weighted" if method == "st2" else "st2true"
    else:
        kind = method
    D = _num(truth["st"] if method.startswith("st") else truth["diameter"])
    problem = _scalar(kind, est, D)
    ratios = [est / D] if 0 < D < INF and est < INF else []
    return problem, ratios


def check_gen(job, text, truth, hashes):
    m = re.fullmatch(r"wrote \S+ \((\d+) vertices, \d+ edges\) and \S+\n", text)
    if m is None:
        return f"unexpected gen output {text[:80]!r}"
    if int(m.group(1)) != truth["n"]:
        return f"gen reports {m.group(1)} vertices, file has {truth['n']}"
    if hashes != job["sha256"]:
        return "gen wrote different bytes than in set-up"
    return None


def check_verify(text, truth):
    lines = text.splitlines()
    if not lines or any(not line.startswith("PASS: ") for line in lines):
        return f"verify did not print only PASS: {text[:80]!r}"
    if not truth["promise"]:
        return "verify passed a construction whose promise fails"
    return None


def check(job, rc, text, truth, hashes):
    """(problem or None, ratios) for one job execution."""
    if rc != 0:
        return f"exit code {rc}", []
    if job["method"] == "gen":
        return check_gen(job, text, truth, hashes), []
    if job["method"] == "verify":
        return check_verify(text, truth), []
    return check_run(job, text, truth)
