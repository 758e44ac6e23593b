from npnas import decider

import worker
import workloads


def test_a_solve_that_raises_makes_the_run_incorrect(monkeypatch):
    def decide(sig, p):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(decider, "decide", decide)
    items = workloads.build("np-deep", 1)
    result, report = worker.measure("np-deep", 1, 0, items, None)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == len(items)
    assert report["raised"] == {"RecursionError": len(items)}


def test_a_run_of_correct_solves_is_correct():
    items = sorted(workloads.build("np-deep", 1), key=lambda it: len(it.text))
    items = items[:3]
    result, _ = worker.measure("np-deep", 1, 0, items, None)
    assert result["correct"] is True and result["failed"] == 0
