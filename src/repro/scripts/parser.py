"""Recursive-descent parser for the shell subset."""

from __future__ import annotations

from repro.scripts.lexer import Token, TokenType, tokenize
from repro.scripts.shell_ast import (
    Command,
    ConditionalList,
    IfStatement,
    Pipeline,
    Redirect,
    Script,
    Statement,
)
from repro.util.errors import ScriptError

_RESERVED = {"if", "then", "else", "fi"}


class _TokenStream:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Token | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise ScriptError("unexpected end of script")
        self._pos += 1
        return token

    def skip_newlines_and_semis(self):
        while (token := self.peek()) is not None and token.type in (
            TokenType.NEWLINE,
            TokenType.SEMI,
        ):
            self._pos += 1

    def at_word(self, value: str | None = None) -> bool:
        token = self.peek()
        if token is None or token.type is not TokenType.WORD:
            return False
        return value is None or token.value == value


def parse_script(source: str) -> Script:
    """Parse shell source into a :class:`Script` AST."""
    shebang = None
    if source.startswith("#!"):
        # The tokenizer skips the line as a comment, so the lines after
        # it keep their numbers.
        shebang = source.partition("\n")[0]
    stream = _TokenStream(tokenize(source))
    statements = _parse_statements(stream, terminators=frozenset())
    if stream.peek() is not None:
        token = stream.peek()
        raise ScriptError(f"unexpected token {token.value!r} at line {token.line}")
    return Script(statements=statements, shebang=shebang)


def _parse_statements(stream: _TokenStream, terminators: frozenset[str]) -> list[Statement]:
    statements: list[Statement] = []
    while True:
        stream.skip_newlines_and_semis()
        token = stream.peek()
        if token is None:
            break
        if token.type is TokenType.WORD and token.value in terminators:
            break
        statements.append(_parse_statement(stream, terminators))
    return statements


def _parse_statement(stream: _TokenStream, terminators: frozenset[str]) -> Statement:
    if stream.at_word("if"):
        return _parse_if(stream)
    return _parse_conditional_list(stream, terminators)


def _parse_if(stream: _TokenStream) -> IfStatement:
    start = stream.next()  # consume 'if'
    condition = _parse_conditional_list(stream, terminators=frozenset({"then"}))
    stream.skip_newlines_and_semis()
    if not stream.at_word("then"):
        raise ScriptError(f"'if' at line {start.line} missing 'then'")
    stream.next()
    then_body = _parse_statements(stream, terminators=frozenset({"else", "fi"}))
    else_body: list[Statement] = []
    if stream.at_word("else"):
        stream.next()
        else_body = _parse_statements(stream, terminators=frozenset({"fi"}))
    if not stream.at_word("fi"):
        raise ScriptError(f"'if' at line {start.line} missing 'fi'")
    stream.next()
    return IfStatement(condition=condition, then_body=then_body, else_body=else_body)


def _parse_conditional_list(stream: _TokenStream,
                            terminators: frozenset[str]) -> ConditionalList:
    pipelines = [_parse_pipeline(stream, terminators)]
    connectors: list[str] = []
    while True:
        token = stream.peek()
        if token is None:
            break
        if token.type in (TokenType.AND_IF, TokenType.OR_IF):
            stream.next()
            # Allow the next pipeline on a following line.
            while (nxt := stream.peek()) is not None and nxt.type is TokenType.NEWLINE:
                stream.next()
            connectors.append(token.value)
            pipelines.append(_parse_pipeline(stream, terminators))
        elif token.type is TokenType.SEMI:
            # Lookahead: `; then` terminates the condition of an if-statement.
            stream.next()
            nxt = stream.peek()
            if nxt is None or nxt.type is TokenType.NEWLINE:
                break
            if nxt.type is TokenType.WORD and nxt.value in terminators:
                break
            if nxt.type is TokenType.WORD and nxt.value in _RESERVED:
                break
            connectors.append(";")
            pipelines.append(_parse_pipeline(stream, terminators))
        else:
            break
    return ConditionalList(pipelines=pipelines, connectors=connectors)


def _parse_pipeline(stream: _TokenStream, terminators: frozenset[str]) -> Pipeline:
    commands = [_parse_command(stream, terminators)]
    while (token := stream.peek()) is not None and token.type is TokenType.PIPE:
        stream.next()
        commands.append(_parse_command(stream, terminators))
    return Pipeline(commands=commands)


def _parse_command(stream: _TokenStream, terminators: frozenset[str]) -> Command:
    token = stream.peek()
    if token is None or token.type is not TokenType.WORD:
        got = "end of script" if token is None else repr(token.value)
        raise ScriptError(f"expected a command, got {got}")
    if token.value in _RESERVED and token.value in terminators:
        raise ScriptError(f"unexpected keyword {token.value!r} at line {token.line}")
    name_token = stream.next()
    command = Command(name=name_token.value, line=name_token.line)
    while (token := stream.peek()) is not None:
        if token.type is TokenType.WORD:
            if token.value in terminators:
                break
            command.args.append(stream.next().value)
        elif token.type in (TokenType.REDIRECT_OUT, TokenType.REDIRECT_APPEND):
            stream.next()
            target = stream.peek()
            if target is None or target.type is not TokenType.WORD:
                raise ScriptError(
                    f"redirection at line {token.line} missing target path"
                )
            command.redirect = Redirect(
                path=stream.next().value,
                append=token.type is TokenType.REDIRECT_APPEND,
            )
        else:
            break
    return command
