"""Tests for the shell lexer and parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scripts.lexer import TokenType, tokenize
from repro.scripts.parser import parse_script
from repro.scripts.shell_ast import Command, ConditionalList, IfStatement
from repro.util.errors import ScriptError


class TestLexer:
    def test_simple_words(self):
        tokens = tokenize("mkdir -p /var/lib")
        assert [t.value for t in tokens] == ["mkdir", "-p", "/var/lib"]
        assert all(t.type is TokenType.WORD for t in tokens)

    def test_operators(self):
        tokens = tokenize("a && b || c; d | e")
        types = [t.type for t in tokens]
        assert TokenType.AND_IF in types
        assert TokenType.OR_IF in types
        assert TokenType.SEMI in types
        assert TokenType.PIPE in types

    def test_redirects(self):
        tokens = tokenize("echo hi > /f ; echo ho >> /f")
        types = [t.type for t in tokens]
        assert TokenType.REDIRECT_OUT in types
        assert TokenType.REDIRECT_APPEND in types

    def test_single_quotes_literal(self):
        tokens = tokenize("echo 'a && b > c'")
        assert tokens[1].value == "a && b > c"

    def test_double_quotes_and_escape(self):
        tokens = tokenize('echo "with space" a\\ b')
        assert tokens[1].value == "with space"
        assert tokens[2].value == "a b"

    def test_comments_stripped(self):
        tokens = tokenize("# full line comment\necho hi # not a comment marker mid-word\n")
        values = [t.value for t in tokens if t.type is TokenType.WORD]
        assert values[:2] == ["echo", "hi"]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        lines = [t.line for t in tokens if t.type is TokenType.WORD]
        assert lines == [1, 2, 3]

    def test_line_continuation(self):
        tokens = tokenize("echo a \\\n b")
        words = [t.value for t in tokens if t.type is TokenType.WORD]
        assert words == ["echo", "a", "b"]

    def test_unterminated_quote_rejected(self):
        with pytest.raises(ScriptError):
            tokenize("echo 'oops")
        with pytest.raises(ScriptError):
            tokenize('echo "oops')

    def test_adjacent_quoted_parts_merge(self):
        tokens = tokenize("echo 'a'\"b\"c")
        assert tokens[1].value == "abc"


class TestParser:
    def test_simple_command(self):
        script = parse_script("mkdir -p /var/lib\n")
        stmt = script.statements[0]
        assert isinstance(stmt, ConditionalList)
        cmd = stmt.pipelines[0].commands[0]
        assert cmd.name == "mkdir"
        assert cmd.args == ["-p", "/var/lib"]

    def test_shebang_captured(self):
        script = parse_script("#!/bin/sh\ntrue\n")
        assert script.shebang == "#!/bin/sh"

    def test_lines_after_shebang_keep_their_numbers(self):
        script = parse_script("#!/bin/sh\ntrue\nmkdir /x\n")
        assert [cmd.line for cmd in script.iter_commands()] == [2, 3]

    def test_and_or_chain(self):
        script = parse_script("test -f /f && echo yes || echo no\n")
        stmt = script.statements[0]
        assert stmt.connectors == ["&&", "||"]
        assert len(stmt.pipelines) == 3

    def test_semicolon_sequence(self):
        script = parse_script("mkdir /a; mkdir /b; mkdir /c\n")
        stmt = script.statements[0]
        assert stmt.connectors == [";", ";"]

    def test_pipeline(self):
        script = parse_script("cat /etc/passwd | grep root | wc -l\n")
        pipeline = script.statements[0].pipelines[0]
        assert [c.name for c in pipeline.commands] == ["cat", "grep", "wc"]

    def test_redirect_parsed(self):
        script = parse_script("echo data >> /etc/conf\n")
        cmd = script.statements[0].pipelines[0].commands[0]
        assert cmd.redirect is not None
        assert cmd.redirect.append
        assert cmd.redirect.path == "/etc/conf"

    def test_if_then_fi(self):
        script = parse_script("if test -f /f; then\n  echo found\nfi\n")
        stmt = script.statements[0]
        assert isinstance(stmt, IfStatement)
        assert stmt.condition.pipelines[0].commands[0].name == "test"
        assert len(stmt.then_body) == 1
        assert stmt.else_body == []

    def test_if_else(self):
        script = parse_script(
            "if grep -q root /etc/passwd; then\n"
            "  echo has-root\nelse\n  adduser -S root\nfi\n"
        )
        stmt = script.statements[0]
        assert stmt.then_body[0].pipelines[0].commands[0].name == "echo"
        assert stmt.else_body[0].pipelines[0].commands[0].name == "adduser"

    def test_nested_if(self):
        script = parse_script(
            "if true; then\n  if false; then\n    echo inner\n  fi\nfi\n"
        )
        outer = script.statements[0]
        inner = outer.then_body[0]
        assert isinstance(inner, IfStatement)

    def test_missing_fi_rejected(self):
        with pytest.raises(ScriptError):
            parse_script("if true; then\n  echo x\n")

    def test_missing_then_rejected(self):
        with pytest.raises(ScriptError):
            parse_script("if true\n echo x\nfi\n")

    def test_redirect_without_target_rejected(self):
        with pytest.raises(ScriptError):
            parse_script("echo x >\n")

    def test_empty_script(self):
        script = parse_script("#!/bin/sh\n# nothing here\n")
        assert script.statements == []

    def test_multiple_statements(self):
        script = parse_script("mkdir /a\nmkdir /b\n\nmkdir /c\n")
        assert len(script.statements) == 3

    def test_iter_commands_recurses(self):
        script = parse_script(
            "mkdir /a\nif test -d /a; then\n  rm -r /a\nelse\n  touch /a\nfi\n"
        )
        names = [c.name for c in script.iter_commands()]
        assert names == ["mkdir", "test", "rm", "touch"]


class TestRender:
    def test_render_roundtrip_simple(self):
        source = "mkdir -p /var/lib\nchmod 755 /var/lib\n"
        script = parse_script(source)
        reparsed = parse_script(script.render())
        assert [c.argv() for c in reparsed.iter_commands()] == [
            c.argv() for c in script.iter_commands()
        ]

    def test_render_quotes_special_words(self):
        script = parse_script("echo 'hello world'\n")
        rendered = script.render()
        assert "'hello world'" in rendered
        reparsed = parse_script(rendered)
        assert next(reparsed.iter_commands()).args == ["hello world"]

    def test_render_if_statement(self):
        source = "if test -f /f; then\n  echo y\nelse\n  echo n\nfi\n"
        script = parse_script(source)
        reparsed = parse_script(script.render())
        assert isinstance(reparsed.statements[0], IfStatement)

    def test_render_redirect(self):
        script = parse_script("echo x >> /f\n")
        reparsed = parse_script(script.render())
        cmd = next(reparsed.iter_commands())
        assert cmd.redirect.append and cmd.redirect.path == "/f"

    @given(st.lists(st.sampled_from(
        ["mkdir /a", "touch /b", "true", "echo hi", "rm -f /c && true",
         "grep -q x /f || echo miss"]), min_size=1, max_size=6))
    @settings(max_examples=25)
    def test_render_reparse_stable(self, lines):
        source = "\n".join(lines) + "\n"
        once = parse_script(source).render()
        twice = parse_script(once).render()
        assert once == twice
