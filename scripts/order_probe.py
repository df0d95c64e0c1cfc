#!/usr/bin/env python3
"""Order probe: does any task's answer depend on which tasks ran before it?

Usage:
    PYTHONPATH=src python3 scripts/order_probe.py SESSION

For each pair cap (0-390 in steps of 10 and 400-1950 in steps
of 50, the range where the session fixture's tasks start to fit), the
session's tasks run three ways, each on freshly loaded sessions: in order
on one session, in reverse order on one session, and each task alone on
its own session.  A task's answer is its status and result; the task
name, which defaults to its position, is left out.  Every (cap, task)
whose three answers are not all equal is printed with the three answers,
then a count.  Hitting a cap must never give a wrong answer, so every
finished answer (status other than cap_exceeded) is also compared with the
task's answer without a pair cap; each (cap, task) where one differs is
printed, then a count.  The exit status is 1 when any answer differs.
"""

import argparse
import json
import sys

from reflextor.caps import CapExceeded, ComputationCancelled
from reflextor.reports import run_session
from reflextor.session import load_session

CAPS = tuple(range(0, 400, 10)) + tuple(range(400, 2000, 50))


def task_label(task):
    parts = [task["task"], task.get("pipeline"), task.get("module"),
             task.get("left"), task.get("right")]
    return " ".join(p for p in parts if p)


def answers(document, cap, tasks):
    """Each task's answer when `tasks` run in this order on one session."""
    try:
        session = load_session(document, {"pairs": cap})
    except (CapExceeded, ComputationCancelled) as e:
        return [f"load: cap_exceeded: {e}"] * len(tasks)
    session.tasks = list(tasks)
    return [json.dumps({"status": r["status"], "result": r["result"]}, sort_keys=True)
            for r in run_session(session)["tasks"]]


def finished(answer):
    """Whether the task ran to an answer, with no cap hit."""
    return not answer.startswith("load:") and json.loads(answer)["status"] != "cap_exceeded"


def short(answer):
    """The status, with the error message when the task did not finish."""
    if answer.startswith("load:"):
        return answer
    parsed = json.loads(answer)
    error = parsed["result"].get("error")
    return parsed["status"] + (f" ({error})" if error else "")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("session")
    args = ap.parse_args(argv)
    with open(args.session, encoding="utf-8") as fh:
        document = json.load(fh)
    tasks = document["tasks"]
    uncapped = answers(document, None, tasks)
    differ = wrong = 0
    for cap in CAPS:
        in_order = answers(document, cap, tasks)
        reverse = answers(document, cap, tasks[::-1])[::-1]
        alone = [answers(document, cap, [t])[0] for t in tasks]
        for i, task in enumerate(tasks):
            trio = (in_order[i], reverse[i], alone[i])
            if len(set(trio)) > 1:
                differ += 1
                print(f"cap {cap} task {i} ({task_label(task)}): "
                      f"in order {short(trio[0])}; reversed {short(trio[1])}; "
                      f"alone {short(trio[2])}")
                if len({short(a) for a in trio}) == 1:
                    print("  (same status and message; the results differ)")
            if any(finished(a) and a != uncapped[i] for a in trio):
                wrong += 1
                print(f"cap {cap} task {i} ({task_label(task)}): a finished "
                      f"answer differs from the uncapped {short(uncapped[i])}")
    total = len(CAPS) * len(tasks)
    print(f"{differ} of {total} (cap, task) answers differ")
    print(f"{wrong} of {total} (cap, task) finished answers differ from the uncapped answer")
    return 1 if differ or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
