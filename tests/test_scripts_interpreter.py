"""Tests for script execution against the simulated filesystem."""

import pytest

from repro.osim.fs import SimFileSystem
from repro.scripts.accounts import insecure_accounts, parse_group, parse_passwd, parse_shadow
from repro.scripts.interpreter import Interpreter
from repro.util.errors import ScriptError

BASE_PASSWD = "root:x:0:0:root:/root:/bin/ash\n"
BASE_SHADOW = "root:!:0:0:99999:7:::\n"
BASE_GROUP = "root:x:0:\n"


@pytest.fixture()
def host():
    fs = SimFileSystem()
    fs.write_file("/etc/passwd", BASE_PASSWD.encode())
    fs.write_file("/etc/shadow", BASE_SHADOW.encode())
    fs.write_file("/etc/group", BASE_GROUP.encode())
    return fs


@pytest.fixture()
def sh(host):
    return Interpreter(host)


class TestBasics:
    def test_true_false(self, sh):
        assert sh.run("true\n").exit_code == 0
        assert sh.run("false\n").exit_code == 1

    def test_echo_stdout(self, sh):
        assert sh.run("echo hello world\n").stdout == "hello world\n"

    def test_exit_stops_script(self, sh, host):
        result = sh.run("exit 3\nmkdir /never\n")
        assert result.exit_code == 3
        assert not host.exists("/never")

    def test_commands_counted(self, sh):
        assert sh.run("true\ntrue\ntrue\n").commands_run == 3

    def test_unsupported_command_rejected(self, sh):
        with pytest.raises(ScriptError):
            sh.run("curl http://evil\n")

    def test_error_line_counts_the_shebang(self, sh):
        with pytest.raises(ScriptError, match="'foo' at line 3"):
            sh.run("#!/bin/sh\necho hi\nfoo bar\n")


class TestConditionals:
    def test_and_short_circuit(self, sh, host):
        sh.run("false && mkdir /no\n")
        assert not host.exists("/no")
        sh.run("true && mkdir /yes\n")
        assert host.isdir("/yes")

    def test_or_short_circuit(self, sh, host):
        sh.run("true || mkdir /no\n")
        assert not host.exists("/no")
        sh.run("false || mkdir /yes\n")
        assert host.isdir("/yes")

    def test_if_branches(self, sh, host):
        sh.run("if test -f /etc/passwd; then\n  touch /has\nelse\n  touch /hasnot\nfi\n")
        assert host.exists("/has")
        assert not host.exists("/hasnot")

    def test_if_else_taken(self, sh, host):
        sh.run("if test -f /missing; then\n  touch /a\nelse\n  touch /b\nfi\n")
        assert host.exists("/b")

    def test_test_string_comparison(self, sh):
        assert sh.run("[ abc = abc ]\n").exit_code == 0
        assert sh.run("[ abc != abc ]\n").exit_code == 1


class TestFilesystemCommands:
    def test_mkdir_chmod(self, sh, host):
        sh.run("mkdir -p /var/lib/pkg\nchmod 700 /var/lib/pkg\n")
        assert host.file_mode("/var/lib/pkg") == 0o700

    def test_cp_mv_rm(self, sh, host):
        host.write_file("/src", b"content")
        sh.run("cp /src /copy\nmv /copy /moved\nrm /src\n")
        assert host.read_file("/moved") == b"content"
        assert not host.exists("/src")

    def test_ln_sf_replaces(self, sh, host):
        host.write_file("/lib/real.so.1", b"elf1")
        host.write_file("/lib/real.so.2", b"elf2")
        sh.run("ln -s /lib/real.so.1 /lib/cur.so\nln -sf /lib/real.so.2 /lib/cur.so\n")
        assert host.read_file("/lib/cur.so") == b"elf2"

    def test_rm_f_tolerates_missing(self, sh):
        assert sh.run("rm -f /does/not/exist\n").exit_code == 0

    def test_touch_and_redirect(self, sh, host):
        sh.run("touch /var/empty\necho line > /var/new\necho more >> /var/new\n")
        assert host.read_file("/var/empty") == b""
        assert host.read_file("/var/new") == b"line\nmore\n"

    def test_install_with_mode(self, sh, host):
        host.write_file("/pkg/tool", b"#!bin")
        sh.run("install -m 755 /pkg/tool /usr/bin/tool\n")
        assert host.file_mode("/usr/bin/tool") == 0o755

    def test_setfattr_hex(self, sh, host):
        host.write_file("/bin/app", b"x")
        sh.run("setfattr -n security.ima -v 0x0301ff /bin/app\n")
        assert host.get_xattr("/bin/app", "security.ima") == b"\x03\x01\xff"


class TestTextProcessing:
    def test_pipeline_grep_wc(self, sh, host):
        host.write_file("/etc/test.conf", b"alpha\nbeta\nalpha again\n")
        result = sh.run("cat /etc/test.conf | grep alpha | wc -l\n")
        assert result.stdout == "2\n"

    def test_grep_exit_codes(self, sh):
        assert sh.run("grep -q root /etc/passwd\n").exit_code == 0
        assert sh.run("grep -q marsian /etc/passwd\n").exit_code == 1

    def test_sed_stream(self, sh, host):
        host.write_file("/f", b"hello world\n")
        assert sh.run("sed s/world/alpine/ /f\n").stdout == "hello alpine\n"

    def test_sed_in_place_changes_file(self, sh, host):
        host.write_file("/etc/app.conf", b"port=80\n")
        sh.run("sed -i s/80/8080/ /etc/app.conf\n")
        assert host.read_file("/etc/app.conf") == b"port=8080\n"

    def test_cut_fields(self, sh):
        result = sh.run("cat /etc/passwd | cut -d : -f 1\n")
        assert result.stdout == "root\n"

    def test_head(self, sh, host):
        host.write_file("/f", b"1\n2\n3\n4\n")
        assert sh.run("head -n 2 /f\n").stdout == "1\n2\n"


class TestAccountCommands:
    def test_adduser_updates_three_files(self, sh, host):
        sh.run("adduser -S -D -H -s /sbin/nologin postgres\n")
        passwd = parse_passwd(host.read_file("/etc/passwd").decode())
        shadow = parse_shadow(host.read_file("/etc/shadow").decode())
        group = parse_group(host.read_file("/etc/group").decode())
        assert "postgres" in passwd
        assert shadow["postgres"][1] == "!"  # locked password
        assert "postgres" in group

    def test_adduser_idempotent(self, sh, host):
        sh.run("adduser -S redis\nadduser -S redis\n")
        text = host.read_file("/etc/passwd").decode()
        assert text.count("redis") == 1

    def test_adduser_with_existing_group(self, sh, host):
        sh.run("addgroup -S www-data\nadduser -S -G www-data nginx\n")
        passwd = parse_passwd(host.read_file("/etc/passwd").decode())
        group = parse_group(host.read_file("/etc/group").decode())
        assert passwd["nginx"][3] == group["www-data"][2]

    def test_addgroup_member_append(self, sh, host):
        sh.run("adduser -S git\naddgroup git root\n")
        group = parse_group(host.read_file("/etc/group").decode())
        assert "git" in group["root"][3].split(",")

    def test_deterministic_ids(self, host):
        # Same script, fresh OS => byte-identical account files.
        def run_once():
            fs = SimFileSystem()
            fs.write_file("/etc/passwd", BASE_PASSWD.encode())
            fs.write_file("/etc/shadow", BASE_SHADOW.encode())
            fs.write_file("/etc/group", BASE_GROUP.encode())
            Interpreter(fs).run("adduser -S a\nadduser -S b\naddgroup -S c\n")
            return fs.read_file("/etc/passwd"), fs.read_file("/etc/group")

        assert run_once() == run_once()

    def test_order_changes_file_contents(self):
        # The paper's core observation: installation order changes uid
        # assignment, so the files differ (section 4.2).
        def run_script(script):
            fs = SimFileSystem()
            fs.write_file("/etc/passwd", BASE_PASSWD.encode())
            fs.write_file("/etc/shadow", BASE_SHADOW.encode())
            fs.write_file("/etc/group", BASE_GROUP.encode())
            Interpreter(fs).run(script)
            return fs.read_file("/etc/passwd")

        ab = run_script("adduser -S aaa\nadduser -S bbb\n")
        ba = run_script("adduser -S bbb\nadduser -S aaa\n")
        assert ab != ba

    def test_passwd_d_creates_cve_pattern(self, sh, host):
        sh.run("adduser -S -s /bin/ash backdoor\npasswd -d backdoor\n")
        risky = insecure_accounts(
            host.read_file("/etc/passwd").decode(),
            host.read_file("/etc/shadow").decode(),
        )
        assert risky == ["backdoor"]

    def test_nologin_account_not_flagged(self, sh, host):
        sh.run("adduser -S -s /sbin/nologin service\npasswd -d service\n")
        risky = insecure_accounts(
            host.read_file("/etc/passwd").decode(),
            host.read_file("/etc/shadow").decode(),
        )
        assert risky == []


class TestShellActivation:
    def test_add_shell(self, sh, host):
        sh.run("add-shell /bin/bash\n")
        assert b"/bin/bash" in host.read_file("/etc/shells")

    def test_add_shell_idempotent(self, sh, host):
        sh.run("add-shell /bin/zsh\nadd-shell /bin/zsh\n")
        assert host.read_file("/etc/shells").decode().count("/bin/zsh") == 1

    def test_remove_shell(self, sh, host):
        sh.run("add-shell /bin/tcsh\nremove-shell /bin/tcsh\n")
        assert b"/bin/tcsh" not in host.read_file("/etc/shells")
