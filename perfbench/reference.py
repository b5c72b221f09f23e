"""Derive the stored reference answers from the package's naive oracles.

|End| comes from ``enumerate_homs`` (every candidate matrix tested for
multiplicativity); grading-point counts from ``enumerate_gradings_oracle``
(every direct-sum decomposition tested), using the bijection between points
and gradings; class counts from the orbits of those gradings under the
invertible maps of ``enumerate_homs``, computed here without the package's
``classify`` or union-find.  All are computed on the natural basis order
without rescaling.

Run from the root of a checkout to print the values, or with ``--write`` to
store them in perfbench/reference.json:

    python3 perfbench/reference.py [--write]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads


def _algebra(usym, alg: workloads.Algebra):
    return usym.io.algebra_from_dict(alg.document(usym), alg.key)


def _group(usym, spec: str):
    if spec.startswith("cyclic:"):
        return usym.cyclic_group(int(spec.split(":", 1)[1]))
    doc = json.loads(usym.fixture_path(spec).read_text(encoding="utf-8"))
    return usym.io.group_from_dict(doc, spec)


def end_count(usym, alg: workloads.Algebra) -> int:
    a = _algebra(usym, alg)
    return len(usym.enumerate_homs(a, a))


def grading_counts(usym, alg: workloads.Algebra, group: str) -> dict:
    a = _algebra(usym, alg)
    gradings = usym.enumerate_gradings_oracle(a, _group(usym, group))
    autos = [m for m in usym.enumerate_homs(a, a) if m.is_invertible()]
    keys = {g.sort_key(): g for g in gradings}
    seen: set = set()
    classes = 0
    for key, grading in keys.items():
        if key in seen:
            continue
        classes += 1
        for m in autos:
            moved = usym.gradings.apply_automorphism(grading, m).sort_key()
            if moved not in keys:
                raise RuntimeError(f"{alg.key} {group}: moved grading is not a grading")
            seen.add(moved)
    return {"points": len(gradings), "classes": classes}


def targets() -> dict:
    """Every stored value the workloads need: name -> thunk(usym)."""
    out = {}
    for job in (job for jobs in workloads.JOBS.values() for job in jobs):
        alg = job.algebra
        if job.command == "endo" and alg.family == "T":
            out[("end", alg.key)] = lambda usym, alg=alg: end_count(usym, alg)
        elif job.command == "gradings":
            key = f"{alg.key} {job.group.removesuffix('.json')}"
            out[("gradings", key)] = (
                lambda usym, alg=alg, g=job.group: grading_counts(usym, alg, g)
            )
    return out


def derive(usym) -> dict:
    stored: dict = {"end": {}, "gradings": {}}
    for (kind, key), thunk in targets().items():
        t0 = time.perf_counter()
        stored[kind][key] = thunk(usym)
        print(f"{kind} {key}: {stored[kind][key]} ({time.perf_counter() - t0:.2f} s)",
              file=sys.stderr)
    return stored


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import usym
    import usym.io

    stored = derive(usym)
    text = json.dumps(stored, indent=1, sort_keys=True) + "\n"
    if "--write" in argv:
        workloads.REFERENCE_FILE.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
