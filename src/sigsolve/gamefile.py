"""Game files: parse, write and load the line-oriented game format.

'#' starts a comment, rationals are 'p/q' or integers:

    types: S:9/10 W:1/10
    messages: B Q
    actions: F N
    payoffs:
    S B F 1 0
    ...

Files are UTF-8, with or without a byte-order mark. Every problem with a
file is a `GameFileError`; a syntax error's message starts 'line N: '.
"""

from __future__ import annotations

from fractions import Fraction

from .game import SignalingGame, validate_game
from .rational import parse_rational


class GameFileError(ValueError):
    pass


def parse_game_file(text: str) -> SignalingGame:
    """Parse the line-oriented game format, preserving declaration order."""
    types: list[str] = []
    prior: dict[str, Fraction] = {}
    messages: list[str] = []
    actions: list[str] = []
    payoff: dict[tuple[str, str, str], tuple[Fraction, Fraction]] = {}
    in_payoffs = False
    seen: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not in_payoffs:
            if ":" not in line:
                raise GameFileError(f"line {line_no}: expected a 'section:' header, got {line!r}")
            head, _, rest = line.partition(":")
            head = head.strip()
            if head in seen:
                raise GameFileError(f"line {line_no}: duplicate section {head!r}")
            seen.add(head)
            if head == "types":
                for entry in rest.split():
                    label, sep, value = entry.partition(":")
                    if not sep:
                        raise GameFileError(f"line {line_no}: type entry {entry!r} needs label:probability")
                    try:
                        prob = parse_rational(value)
                    except ValueError as exc:
                        raise GameFileError(f"line {line_no}: {exc}") from exc
                    types.append(label)
                    prior[label] = prob
            elif head == "messages":
                messages.extend(rest.split())
            elif head == "actions":
                actions.extend(rest.split())
            elif head == "payoffs":
                if rest.strip():
                    raise GameFileError(f"line {line_no}: payoffs section header takes no values")
                in_payoffs = True
            else:
                raise GameFileError(f"line {line_no}: unknown section {head!r}")
        else:
            parts = line.split()
            if len(parts) != 5:
                raise GameFileError(f"line {line_no}: payoff line needs 'type message action u1 u2', got {line!r}")
            t, m, a, raw1, raw2 = parts
            try:
                u1, u2 = parse_rational(raw1), parse_rational(raw2)
            except ValueError as exc:
                raise GameFileError(f"line {line_no}: {exc}") from exc
            if (t, m, a) in payoff:
                raise GameFileError(f"payoff for {(t, m, a)} given twice")
            payoff[(t, m, a)] = (u1, u2)
    for name, values in (("types", types), ("messages", messages), ("actions", actions)):
        if not values:
            raise GameFileError(f"{name} section missing or empty")
    game = SignalingGame(
        types=tuple(types),
        messages=tuple(messages),
        actions=tuple(actions),
        prior=prior,
        payoff=payoff,
    )
    problems = validate_game(game)
    if problems:
        raise GameFileError("; ".join(problems))
    return game


def serialize_game(game: SignalingGame) -> str:
    """Canonical text form; parse(serialize(g)) reproduces g exactly."""
    lines = [
        "types: " + " ".join(f"{t}:{game.prior[t]}" for t in game.types),
        "messages: " + " ".join(game.messages),
        "actions: " + " ".join(game.actions),
        "payoffs:",
    ]
    for t in game.types:
        for m in game.messages:
            for a in game.actions:
                u1, u2 = game.payoff[(t, m, a)]
                lines.append(f"{t} {m} {a} {u1} {u2}")
    return "\n".join(lines) + "\n"


def load_game(path: str) -> SignalingGame:
    """Read and parse a game file; bytes that are not UTF-8 are a game file error."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise GameFileError(f"not UTF-8 text: {exc}") from exc
    return parse_game_file(text)
