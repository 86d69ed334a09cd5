"""Line-oriented text format for circuits, with a canonical printer.

Grammar (UTF-8, ``#`` starts a comment anywhere on a line)::

    input <channel>                      -- exactly one, before any element
    <kind> <in...> -> <out...> [k=v...]  -- one element per line
    output <channel...>                  -- exactly one, last

Kinds and their keys:

    pbs   <1-2 ins> -> <1-2 outs>
    bs    <1-2 ins> -> <1-2 outs>   conv=symmetric|surface
    hwp   <in> -> <out>
    phase <in> -> <out>             phi=<radians>
    delay <in> -> <out>             ticks=<int >= 0>
    split <in> -> <out>             ticks=<int >= 1>
    noise <in> -> <out>             d1= g1= d2= g2=<complex>

Beam splitters may list a single input (second port dark) or a single
output (a polarizing merge). All diagnostics carry the 1-based line
number of the offending text.
"""

from __future__ import annotations

from importlib import resources

from .circuits import Circuit, CircuitError
from .elements import ELEMENT_KINDS, BsConvention, Element
from .noise import NoiseParams


class CircuitTextError(ValueError):
    """Malformed circuit text; ``line`` is the 1-based source line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _parse_keys(lineno: int, kind: str, tokens: list[str]) -> dict:
    values: dict = {}
    for token in tokens:
        key, _, raw = token.partition("=")
        if not _:
            raise CircuitTextError(lineno, f"expected key=value, got {token!r}")
        if key not in ELEMENT_KINDS[kind]:
            raise CircuitTextError(lineno, f"{kind} takes no key {key!r}")
        if key in values:
            raise CircuitTextError(lineno, f"repeated key {key!r}")
        try:
            if key == "conv":
                values[key] = BsConvention(raw)
            elif key == "phi":
                values[key] = float(raw)
            elif key == "ticks":
                values[key] = int(raw)
            else:
                values[key] = complex(raw)
        except ValueError:
            raise CircuitTextError(lineno, f"bad value for {key!r}: {raw!r}") from None
    return values


def _parse_element(lineno: int, tokens: list[str]) -> Element:
    kind = tokens[0]
    if kind not in ELEMENT_KINDS:
        raise CircuitTextError(lineno, f"unknown element kind {kind!r}")
    if "->" not in tokens:
        raise CircuitTextError(lineno, f"{kind}: missing '->' between inputs and outputs")
    arrow = tokens.index("->")
    if "->" in tokens[arrow + 1:]:
        raise CircuitTextError(lineno, f"{kind}: more than one '->'")
    ins = tuple(tokens[1:arrow])
    rest = tokens[arrow + 1:]
    outs = []
    key_tokens = []
    for token in rest:
        if "=" in token:
            key_tokens = rest[len(outs):]
            break
        outs.append(token)
    outs = tuple(outs)
    for token in ins + outs:
        if "=" in token:
            raise CircuitTextError(lineno, f"channel name {token!r} may not contain '='")
    values = _parse_keys(lineno, kind, key_tokens)
    if "conv" in values:
        values["convention"] = values.pop("conv")
    if kind == "noise":
        identity = NoiseParams.identity()
        try:
            params = NoiseParams(
                values.get("d1", identity.d1), values.get("g1", identity.g1),
                values.get("d2", identity.d2), values.get("g2", identity.g2),
            )
        except ValueError as err:
            raise CircuitTextError(lineno, str(err)) from None
        values = {"noise": params}
    try:
        return Element(kind, ins, outs, **values)
    except ValueError as err:
        raise CircuitTextError(lineno, str(err)) from None


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text; raises CircuitTextError with a line number."""
    input_channel: str | None = None
    input_line = 0
    elements: list[Element] = []
    element_lines: list[int] = []
    outputs: tuple[str, ...] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if outputs is not None:
            raise CircuitTextError(lineno, "content after the output line")
        if head in ("input", "output") and "->" in tokens:
            raise CircuitTextError(lineno, f"{head}: '->' is not a channel name")
        if head == "input":
            if input_channel is not None:
                raise CircuitTextError(lineno, f"duplicate input line (first on line {input_line})")
            if len(tokens) != 2:
                raise CircuitTextError(lineno, "input takes exactly one channel")
            input_channel, input_line = tokens[1], lineno
        elif head == "output":
            if input_channel is None:
                raise CircuitTextError(lineno, "output before input")
            if len(tokens) < 2:
                raise CircuitTextError(lineno, "output needs at least one channel")
            outputs = tuple(tokens[1:])
        else:
            if input_channel is None:
                raise CircuitTextError(lineno, f"expected 'input <channel>' before {head!r}")
            elements.append(_parse_element(lineno, tokens))
            element_lines.append(lineno)

    if input_channel is None:
        raise CircuitTextError(max(1, text.count("\n") + 1), "no input line")
    if outputs is None:
        raise CircuitTextError(max(1, text.count("\n") + 1), "no output line")
    try:
        return Circuit(input_channel, tuple(elements), outputs)
    except CircuitError as err:
        lineno = element_lines[err.element_index] if err.element_index is not None else input_line
        raise CircuitTextError(lineno, str(err)) from None


def _format_element(el: Element) -> str:
    p = el.noise or NoiseParams.identity()
    values = {"conv": el.convention.value, "phi": repr(el.phi), "ticks": el.ticks,
              "d1": repr(p.d1), "g1": repr(p.g1), "d2": repr(p.d2), "g2": repr(p.g2)}
    keys = [f"{key}={values[key]}" for key in ELEMENT_KINDS[el.kind]]
    return " ".join([el.kind, *el.ins, "->", *el.outs, *keys])


def print_circuit(circuit: Circuit) -> str:
    """Canonical text for a circuit; parsing it back reproduces the circuit."""
    lines = [f"input {circuit.input}"]
    lines += [_format_element(el) for el in circuit.elements]
    lines.append("output " + " ".join(circuit.outputs))
    return "\n".join(lines) + "\n"


def load_circuit(path) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        return parse_circuit(fh.read())


def shipped_circuit(name: str) -> Circuit:
    """Load one of the circuit files distributed with the package."""
    text = resources.files("timebinsim.data").joinpath(f"{name}.circ").read_text("utf-8")
    return parse_circuit(text)
