"""The README's library quick tour runs, and each line gives the value its comment shows."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_lines() -> list[str]:
    tour = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return tour.split("```python", 1)[1].split("```", 1)[0].splitlines()


def test_readme_tour_values_match_their_comments():
    lines = _tour_lines()
    split = next(i for i, line in enumerate(lines) if "#" in line)
    namespace: dict = {}
    exec("\n".join(lines[:split]), namespace)
    checked = []
    for line in lines[split:]:
        if not line.strip():
            continue
        code, comment = line.split("#", 1)
        # The shown value runs up to a double space; "..." elides the rest of a repr.
        shown = comment.strip().split("  ", 1)[0]
        value = repr(eval(code, namespace))
        if "..." in shown:
            assert value.startswith(shown.split("...", 1)[0]), line
        else:
            assert value == shown, line
        checked.append(shown)
    assert len(checked) == 6
