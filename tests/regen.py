"""Rewrite the stores of tests/pins/ from the current tree:

    python tests/regen.py [store ...]

No argument rewrites every store, in this order.  Each is the ``pins()`` of
its test module in ``STORES``:
- golden: stdout and exit code of fixed CLI command lines;
- plan: the plan's steps and the result of auto and each forced method, g
  and g', across the beta regions around the band;
- split: the series' value, term counts and tail and noise bounds;
- special: the rational split at the points of ``RATIONAL_VALUES``;
- outcomes: per alpha, auto dispatch's results by method and failures by type;
- tracing: the benchmark tracer's work counters on fixed sweeps;
- oracle: the 30-digit integral at each point of a module's
  ``ORACLE_POINTS``, integrated only where missing: it does not depend on
  the tree.
Per store it prints how many pins moved and the largest |new - old| /
(old bound + new bound); name the moved pins in CHANGES.md.
"""

import importlib
import re
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS.parent / "src"))

import store  # noqa: E402  (after the package's path)
from oracles import g_mpmath, gprime_mpmath  # noqa: E402

STORES = {"golden": "test_golden", "plan": "test_plan_pins", "split": "test_split_pins",
          "special": "test_special", "outcomes": "test_tolerance_contract",
          "tracing": "test_tracing_contract"}
_NUMBER = r"(-?[\d.]+(?:e[-+]?\d+)?)"
# a golden line's (value, bound) as eval, compare and JSON print them, or a CSV row's
_PAIR = re.compile(rf'value"?[=:] ?{_NUMBER}[^=:]*?bound"?[=:] ?{_NUMBER}'
                   rf"|,[a-z]+,{_NUMBER},{_NUMBER},")
MEASURED = {
    "golden": lambda line: [(float(a or c), float(b or d)) for a, b, c, d in _PAIR.findall(line)],
    "plan": lambda pin: [] if isinstance(pin[1], str) else [pin[1][:2]],
    "split": lambda pin: [(pin[0], pin[3] + pin[4])],
    "special": lambda pin: [pin[:2]],
}


def oracle_points() -> set:
    modules = map(importlib.import_module, (path.stem for path in sorted(TESTS.glob("test_*.py"))))
    return set().union(*(getattr(module, "ORACLE_POINTS", ()) for module in modules))


def _pins(name: str, old: dict) -> dict:
    if name != "oracle":
        return importlib.import_module(STORES[name]).pins()
    return {key: old.get(key) or tuple(map(float, (gprime_mpmath if key[3] else g_mpmath)(
        *key[:3]))) for key in sorted(oracle_points())}


def main(names: list[str]) -> None:
    print("store      pins  moved  largest |new - old|/(old + new bound)")
    for name in names or [*STORES, "oracle"]:
        old = store.load(name)
        new = _pins(name, old)
        if name != "golden":
            (store.PINS / f"{name}.txt").write_text(store.dumps(new))
        else:  # a file per command, and its lines are its pins
            for key, text in new.items():
                (store.PINS / name / f"{key}.txt").write_text(text)
            old, new = ({(key, i): line for key, text in table.items()
                         for i, line in enumerate(text.splitlines())} for table in (old, new))
        moved = [key for key in old.keys() | new.keys() if repr(old.get(key)) != repr(new.get(key))]
        measure = MEASURED.get(name, lambda pin: [])
        ratios = [abs(b - a) / (bound_a + bound_b) for key in moved if key in old and key in new
                  for (a, bound_a), (b, bound_b) in zip(measure(old[key]), measure(new[key]))
                  if a != b]
        print(f"{name:<10}{len(new):>5}{len(moved):>7}  {max(ratios, default=0.0):.3g}",
              flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
