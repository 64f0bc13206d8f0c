"""Implementations of the commands installation scripts may use.

Each command is ``fn(host, args, stdin) -> (exit_code, stdout)``.  The set
mirrors what the paper found in Alpine maintainer scripts (Table 2):
filesystem utilities, text processing, account management (busybox
``adduser``/``addgroup``), shell activation, and the ``setfattr`` call
sanitized scripts use to install IMA signatures for predicted
configuration files.
"""

from __future__ import annotations

import re
from typing import Callable

from repro.scripts import accounts
from repro.util.errors import FileSystemError, ScriptError

CommandFn = Callable[[object, list[str], str], tuple[int, str]]

#: Sentinel exit code: the interpreter turns this into an exit signal.
EXIT_REQUESTED = -255

PASSWD_PATH = "/etc/passwd"
SHADOW_PATH = "/etc/shadow"
GROUP_PATH = "/etc/group"
SHELLS_PATH = "/etc/shells"


def _split_flags(args: list[str], known: str) -> tuple[set[str], list[str]]:
    """Separate single-letter flags from positional operands."""
    flags: set[str] = set()
    positional: list[str] = []
    for arg in args:
        if arg.startswith("-") and len(arg) > 1 and not arg.startswith("--"):
            for letter in arg[1:]:
                if letter not in known:
                    raise ScriptError(f"unsupported flag -{letter}")
                flags.add(letter)
        else:
            positional.append(arg)
    return flags, positional


def _read_text(host, path: str) -> str:
    try:
        return host.read_file(path).decode()
    except FileSystemError as exc:
        raise ScriptError(str(exc)) from exc


# -- trivial commands -------------------------------------------------------

def cmd_true(_host, _args, _stdin):
    return 0, ""


def cmd_false(_host, _args, _stdin):
    return 1, ""


def cmd_exit(_host, args, _stdin):
    code = args[0] if args else "0"
    return EXIT_REQUESTED, code


def cmd_echo(_host, args, _stdin):
    if args and args[0] == "-n":
        return 0, " ".join(args[1:])
    return 0, " ".join(args) + "\n"


def cmd_test(host, args, _stdin):
    if args and args[-1] == "]":
        args = args[:-1]
    if not args:
        return 1, ""
    if len(args) == 2 and args[0] in ("-f", "-d", "-e", "-x", "-n", "-z"):
        flag, operand = args
        checks = {
            "-f": lambda: host.isfile(operand),
            "-d": lambda: host.isdir(operand),
            "-e": lambda: host.exists(operand),
            "-x": lambda: host.exists(operand),
            "-n": lambda: operand != "",
            "-z": lambda: operand == "",
        }
        return (0 if checks[flag]() else 1), ""
    if len(args) == 3 and args[1] in ("=", "!="):
        equal = args[0] == args[2]
        wanted = args[1] == "="
        return (0 if equal == wanted else 1), ""
    if len(args) == 1:
        return (0 if args[0] else 1), ""
    raise ScriptError(f"unsupported test expression: {' '.join(args)}")


# -- filesystem utilities ---------------------------------------------------

def cmd_mkdir(host, args, _stdin):
    flags, paths = _split_flags(args, "p")
    if not paths:
        raise ScriptError("mkdir: missing operand")
    for path in paths:
        if "p" in flags and host.isdir(path):
            continue
        host.mkdir(path, parents="p" in flags)
    return 0, ""


def cmd_rmdir(host, args, _stdin):
    _, paths = _split_flags(args, "")
    for path in paths:
        if not host.isdir(path):
            raise ScriptError(f"rmdir: {path} is not a directory")
        host.remove(path)
    return 0, ""


def cmd_rm(host, args, _stdin):
    flags, paths = _split_flags(args, "rf")
    if not paths:
        raise ScriptError("rm: missing operand")
    for path in paths:
        if not host.exists(path):
            if "f" in flags:
                continue
            raise ScriptError(f"rm: {path}: no such file")
        host.remove(path, recursive="r" in flags)
    return 0, ""


def cmd_mv(host, args, _stdin):
    _, paths = _split_flags(args, "f")
    if len(paths) != 2:
        raise ScriptError("mv: expected source and destination")
    host.rename(paths[0], paths[1])
    return 0, ""


def cmd_cp(host, args, _stdin):
    _, paths = _split_flags(args, "af")
    if len(paths) != 2:
        raise ScriptError("cp: expected source and destination")
    host.write_file(paths[1], host.read_file(paths[0]))
    return 0, ""


def cmd_ln(host, args, _stdin):
    flags, paths = _split_flags(args, "sf")
    if "s" not in flags:
        raise ScriptError("ln: only symbolic links are supported")
    if len(paths) != 2:
        raise ScriptError("ln: expected target and link name")
    target, link = paths
    if "f" in flags and host.exists(link):
        host.remove(link)
    host.symlink(target, link)
    return 0, ""


def cmd_chmod(host, args, _stdin):
    _, operands = _split_flags(args, "R")
    if len(operands) < 2:
        raise ScriptError("chmod: expected mode and path")
    mode_text, *paths = operands
    try:
        mode = int(mode_text, 8)
    except ValueError:
        raise ScriptError(f"chmod: unsupported mode {mode_text!r}") from None
    for path in paths:
        host.chmod(path, mode)
    return 0, ""


def cmd_touch(host, args, _stdin):
    _, paths = _split_flags(args, "")
    if not paths:
        raise ScriptError("touch: missing operand")
    for path in paths:
        host.touch(path)
    return 0, ""


def cmd_install(host, args, _stdin):
    """busybox install: copy with an explicit mode (-m)."""
    mode = None
    positional: list[str] = []
    iterator = iter(args)
    for arg in iterator:
        if arg == "-m":
            mode = int(next(iterator, "644"), 8)
        elif arg == "-D":
            continue
        elif arg.startswith("-"):
            raise ScriptError(f"install: unsupported flag {arg}")
        else:
            positional.append(arg)
    if len(positional) != 2:
        raise ScriptError("install: expected source and destination")
    src, dst = positional
    host.write_file(dst, host.read_file(src), mode=mode)
    return 0, ""


def cmd_setfattr(host, args, _stdin):
    """setfattr -n <name> -v <value> <path>; values may be 0x-hex."""
    name = value = path = None
    iterator = iter(args)
    for arg in iterator:
        if arg == "-n":
            name = next(iterator, None)
        elif arg == "-v":
            value = next(iterator, None)
        else:
            path = arg
    if not (name and value is not None and path):
        raise ScriptError("setfattr: expected -n name -v value path")
    raw = bytes.fromhex(value[2:]) if value.startswith("0x") else value.encode()
    host.set_xattr(path, name, raw)
    return 0, ""


# -- text processing ----------------------------------------------------------

def cmd_cat(host, args, stdin):
    _, paths = _split_flags(args, "")
    if not paths:
        return 0, stdin
    return 0, "".join(_read_text(host, path) for path in paths)


def cmd_grep(host, args, stdin):
    flags, operands = _split_flags(args, "qvc")
    if not operands:
        raise ScriptError("grep: missing pattern")
    pattern, *paths = operands
    text = "".join(_read_text(host, p) for p in paths) if paths else stdin
    try:
        regex = re.compile(pattern)
    except re.error as exc:
        raise ScriptError(f"grep: bad pattern {pattern!r}: {exc}") from exc
    matched = [line for line in text.splitlines() if regex.search(line)]
    if "v" in flags:
        matched = [line for line in text.splitlines() if not regex.search(line)]
    code = 0 if matched else 1
    if "q" in flags:
        return code, ""
    if "c" in flags:
        return code, f"{len(matched)}\n"
    return code, "".join(line + "\n" for line in matched)


def cmd_sed(host, args, stdin):
    in_place = False
    positional: list[str] = []
    for arg in args:
        if arg == "-i":
            in_place = True
        elif arg == "-e":
            continue
        elif arg.startswith("-"):
            raise ScriptError(f"sed: unsupported flag {arg}")
        else:
            positional.append(arg)
    if not positional:
        raise ScriptError("sed: missing expression")
    expression, *paths = positional
    match = re.fullmatch(r"s([/#|])(.*?)\1(.*?)\1(g?)", expression)
    if match is None:
        raise ScriptError(f"sed: unsupported expression {expression!r}")
    _, pattern, replacement, global_flag = match.groups()
    count = 0 if global_flag else 1
    replacement = replacement.replace("\\1", r"\1").replace("&", r"\g<0>")

    def transform(text: str) -> str:
        return "\n".join(
            re.sub(pattern, replacement, line, count=count)
            for line in text.split("\n")
        )

    if in_place:
        if not paths:
            raise ScriptError("sed -i: missing file operand")
        for path in paths:
            host.write_file(path, transform(_read_text(host, path)).encode())
        return 0, ""
    source = "".join(_read_text(host, p) for p in paths) if paths else stdin
    return 0, transform(source)


def cmd_cut(_host, args, stdin):
    delimiter = "\t"
    fields_spec = None
    iterator = iter(args)
    for arg in iterator:
        if arg == "-d":
            delimiter = next(iterator, "\t")
        elif arg.startswith("-d"):
            delimiter = arg[2:]
        elif arg == "-f":
            fields_spec = next(iterator, None)
        elif arg.startswith("-f"):
            fields_spec = arg[2:]
        else:
            raise ScriptError(f"cut: unsupported operand {arg!r}")
    if fields_spec is None:
        raise ScriptError("cut: missing -f")
    wanted = [int(f) - 1 for f in fields_spec.split(",")]
    out_lines = []
    for line in stdin.splitlines():
        parts = line.split(delimiter)
        out_lines.append(delimiter.join(
            parts[i] for i in wanted if 0 <= i < len(parts)
        ))
    return 0, "".join(line + "\n" for line in out_lines)


def cmd_head(host, args, stdin):
    lines = 10
    paths: list[str] = []
    iterator = iter(args)
    for arg in iterator:
        if arg == "-n":
            lines = int(next(iterator, "10"))
        elif arg.startswith("-n"):
            lines = int(arg[2:])
        elif arg.startswith("-"):
            raise ScriptError(f"head: unsupported flag {arg}")
        else:
            paths.append(arg)
    text = "".join(_read_text(host, p) for p in paths) if paths else stdin
    kept = text.splitlines()[:lines]
    return 0, "".join(line + "\n" for line in kept)


def cmd_wc(_host, args, stdin):
    flags, _ = _split_flags(args, "l")
    if "l" not in flags:
        raise ScriptError("wc: only -l is supported")
    return 0, f"{len(stdin.splitlines())}\n"


# -- account management -------------------------------------------------------

def cmd_adduser(host, args, _stdin):
    """busybox adduser subset: -S -D -H -h home -s shell -G group -u uid."""
    spec_kwargs, primary_group = accounts.parse_adduser_args(args)
    group_text = _read_text(host, GROUP_PATH)
    if primary_group is not None:
        groups = accounts.parse_group(group_text)
        if primary_group not in groups:
            group_text = accounts.add_group(
                group_text, accounts.GroupSpec(name=primary_group)
            )
            groups = accounts.parse_group(group_text)
        spec_kwargs["gid"] = int(groups[primary_group][2])
    spec = accounts.UserSpec(**spec_kwargs)
    passwd_text, shadow_text, group_text = accounts.add_user(
        _read_text(host, PASSWD_PATH),
        _read_text(host, SHADOW_PATH),
        group_text,
        spec,
    )
    host.write_file(PASSWD_PATH, passwd_text.encode())
    host.write_file(SHADOW_PATH, shadow_text.encode())
    host.write_file(GROUP_PATH, group_text.encode())
    return 0, ""


def cmd_addgroup(host, args, _stdin):
    """busybox addgroup subset: -S -g gid [user] group."""
    gid, positional = accounts.parse_addgroup_args(args)
    group_text = _read_text(host, GROUP_PATH)
    if len(positional) == 1:
        spec = accounts.GroupSpec(name=positional[0], gid=gid)
        host.write_file(GROUP_PATH, accounts.add_group(group_text, spec).encode())
        return 0, ""
    if len(positional) == 2:
        # addgroup user group: append user to the group's member list.
        user, group = positional
        groups = accounts.parse_group(group_text)
        if group not in groups:
            group_text = accounts.add_group(group_text,
                                            accounts.GroupSpec(name=group, gid=gid))
            groups = accounts.parse_group(group_text)
        fields = groups[group]
        members = [m for m in fields[3].split(",") if m]
        if user not in members:
            members.append(user)
        fields[3] = ",".join(members)
        lines = []
        for line in group_text.splitlines():
            if line.split(":", 1)[0] == group:
                lines.append(":".join(fields))
            else:
                lines.append(line)
        host.write_file(GROUP_PATH, ("\n".join(lines) + "\n").encode())
        return 0, ""
    raise ScriptError("addgroup: expected [user] group")


def cmd_passwd(host, args, _stdin):
    flags, operands = _split_flags(args, "d")
    if "d" not in flags or len(operands) != 1:
        raise ScriptError("passwd: only 'passwd -d user' is supported")
    shadow_text = accounts.set_password(_read_text(host, SHADOW_PATH),
                                        operands[0], "")
    host.write_file(SHADOW_PATH, shadow_text.encode())
    return 0, ""


def cmd_add_shell(host, args, _stdin):
    if len(args) != 1:
        raise ScriptError("add-shell: expected exactly one shell path")
    shell = args[0]
    existing = _read_text(host, SHELLS_PATH) if host.exists(SHELLS_PATH) else ""
    if shell not in existing.splitlines():
        host.write_file(SHELLS_PATH, (existing + shell + "\n").encode())
    return 0, ""


def cmd_remove_shell(host, args, _stdin):
    if len(args) != 1:
        raise ScriptError("remove-shell: expected exactly one shell path")
    existing = _read_text(host, SHELLS_PATH) if host.exists(SHELLS_PATH) else ""
    kept = [line for line in existing.splitlines() if line != args[0]]
    host.write_file(SHELLS_PATH, ("\n".join(kept) + "\n").encode() if kept else b"")
    return 0, ""


_COMMANDS: dict[str, CommandFn] = {
    "true": cmd_true,
    ":": cmd_true,
    "false": cmd_false,
    "exit": cmd_exit,
    "echo": cmd_echo,
    "test": cmd_test,
    "[": cmd_test,
    "mkdir": cmd_mkdir,
    "rmdir": cmd_rmdir,
    "rm": cmd_rm,
    "mv": cmd_mv,
    "cp": cmd_cp,
    "ln": cmd_ln,
    "chmod": cmd_chmod,
    "touch": cmd_touch,
    "install": cmd_install,
    "setfattr": cmd_setfattr,
    "cat": cmd_cat,
    "grep": cmd_grep,
    "sed": cmd_sed,
    "cut": cmd_cut,
    "head": cmd_head,
    "wc": cmd_wc,
    "adduser": cmd_adduser,
    "addgroup": cmd_addgroup,
    "passwd": cmd_passwd,
    "add-shell": cmd_add_shell,
    "remove-shell": cmd_remove_shell,
}


def lookup(name: str) -> CommandFn | None:
    """Resolve a command name; None means unsupported."""
    return _COMMANDS.get(name)
