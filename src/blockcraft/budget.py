"""The one admission rule: a cell runs only if its predicted work fits the budget of its unit.

Each check predicts the units of its hot loop's work a cell needs before anything is
walked or listed (the costs in cli); past a budget, that may be a lower bound.
"""

# A unit's budget is its work in TARGET_S seconds at the rate measured beside it, whole
# commands on a 2-vCPU machine under Python 3.11.7.  The CLI fuzz tests allow 5 s an
# example: room for a prediction 2x too low.  The census-step rate predates the capped core
# walk, so it over-predicts it.
TARGET_S = 2
BUDGETS = {
    "census step": TARGET_S * 25_000_000,  # sym mckay --n 1000: 42 122 432 steps, 1.1 s
    "table product": TARGET_S * 14_000_000,  # sym table --n 17: p(17)^3 = 26 198 073, 1.9 s
    "label": TARGET_S * 150_000,  # gl degrees --n 27 --q 2: 238 116 labels, 1.7 s
}


def over_budget(unit: str, work: int) -> str | None:
    """Why a cell predicted to need work units of this kind is refused, or None if it fits."""
    if work > BUDGETS[unit]:
        return f"predicted work of at least {work} {unit}s exceeds the budget of {BUDGETS[unit]}"
    return None
