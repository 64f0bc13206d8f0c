"""Tokenizer for the shell subset.

Produces WORD, operator, and NEWLINE tokens.  Quoting follows POSIX basics:
single quotes are literal, double quotes allow spaces, backslash escapes the
next character outside single quotes.  Comments run to end of line.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.util.errors import ScriptError


class TokenType(enum.Enum):
    WORD = "word"
    AND_IF = "&&"
    OR_IF = "||"
    SEMI = ";"
    PIPE = "|"
    REDIRECT_OUT = ">"
    REDIRECT_APPEND = ">>"
    NEWLINE = "newline"


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    line: int


_OPERATORS = {
    "&&": TokenType.AND_IF,
    "||": TokenType.OR_IF,
    ";": TokenType.SEMI,
    "|": TokenType.PIPE,
    ">>": TokenType.REDIRECT_APPEND,
    ">": TokenType.REDIRECT_OUT,
}


def tokenize(text: str) -> list[Token]:
    """Tokenize shell source; raises :class:`ScriptError` on bad quoting."""
    tokens: list[Token] = []
    line = 1
    i = 0
    current: list[str] = []
    current_started = False

    def flush():
        nonlocal current_started
        if current_started:
            tokens.append(Token(TokenType.WORD, "".join(current), line))
            current.clear()
            current_started = False

    while i < len(text):
        char = text[i]
        if char == "\n":
            flush()
            tokens.append(Token(TokenType.NEWLINE, "\n", line))
            line += 1
            i += 1
        elif char in " \t":
            flush()
            i += 1
        elif char == "#" and not current_started:
            newline = text.find("\n", i)
            i = len(text) if newline < 0 else newline
        elif char == "\\":
            if i + 1 >= len(text):
                raise ScriptError(f"dangling backslash at line {line}")
            if text[i + 1] == "\n":  # line continuation
                flush()
                line += 1
                i += 2
            else:
                current.append(text[i + 1])
                current_started = True
                i += 2
        elif char == "'":
            end = text.find("'", i + 1)
            if end == -1:
                raise ScriptError(f"unterminated single quote at line {line}")
            current.append(text[i + 1:end])
            current_started = True
            i = end + 1
        elif char == '"':
            i += 1
            buf: list[str] = []
            while i < len(text):
                if text[i] == '"':
                    break
                if text[i] == "\\" and i + 1 < len(text) and text[i + 1] in '"\\$':
                    buf.append(text[i + 1])
                    i += 2
                    continue
                if text[i] == "\n":
                    line += 1
                buf.append(text[i])
                i += 1
            else:
                raise ScriptError(f"unterminated double quote at line {line}")
            current.append("".join(buf))
            current_started = True
            i += 1
        elif text.startswith((">>", "&&", "||"), i):
            flush()
            op = text[i:i + 2]
            tokens.append(Token(_OPERATORS[op], op, line))
            i += 2
        elif char in ";|>":
            flush()
            tokens.append(Token(_OPERATORS[char], char, line))
            i += 1
        else:
            current.append(char)
            current_started = True
            i += 1
    flush()
    return tokens
