"""Lint: clock-dependent unit conversions must name their clock.

The DVFS subsystem gives clock domains real, differing frequencies, so a
conversion that silently falls back to ``DEFAULT_CLOCK_HZ`` is a latent bug:
it prices or times events at the anchor clock regardless of the domain that
produced them.  This test walks every module under ``src/repro`` and rejects
calls to the clock-parameterized converters in :mod:`repro.units` that rely
on the default — the clock must be an explicit argument at every call site
(``units.py`` itself, where the defaults live, is exempt).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: repro.units functions whose trailing clock_hz parameter defaults to
#: DEFAULT_CLOCK_HZ.  Maps name -> position of the clock argument.
CLOCKED_FUNCTIONS = {
    "cycles_to_seconds": 1,
    "gbps_to_bytes_per_cycle": 1,
}


def _called_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _argless_clock_calls(path: Path) -> list[str]:
    """Calls in one module that leave the clock argument to its default."""
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node)
        clock_position = CLOCKED_FUNCTIONS.get(name)
        if clock_position is None:
            continue
        explicit = len(node.args) > clock_position or any(
            keyword.arg == "clock_hz" for keyword in node.keywords
        )
        if not explicit:
            offenders.append(f"{path.relative_to(SRC.parent)}:{node.lineno}")
    return offenders


def test_no_argless_clock_conversions_in_src():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "units.py":
            continue
        offenders.extend(_argless_clock_calls(path))
    assert not offenders, (
        "clock-dependent conversions relying on DEFAULT_CLOCK_HZ (pass the"
        f" domain's clock explicitly): {offenders}"
    )


def test_audit_catches_an_argless_call():
    """The auditor itself must flag the pattern it exists to forbid."""
    import textwrap

    snippet = textwrap.dedent(
        """
        from repro.units import cycles_to_seconds
        seconds = cycles_to_seconds(1000.0)
        explicit = cycles_to_seconds(1000.0, 745e6)
        keyword = cycles_to_seconds(1000.0, clock_hz=745e6)
        """
    )
    tree = ast.parse(snippet)
    offenders = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and CLOCKED_FUNCTIONS.get(_called_name(node)) is not None
        and not (
            len(node.args) > 1
            or any(k.arg == "clock_hz" for k in node.keywords)
        )
    ]
    assert offenders == [3]
