"""The enclave abstraction.

An enclave wraps a *program* (any object exposing methods) behind a strict
boundary: the host calls exported entry points via :meth:`Enclave.ecall`,
and the program's state is reachable only from inside.  The measurement
(MRENCLAVE) binds the program's code identity; remote attestation produces
a quote over (MRENCLAVE, report_data) signed by the CPU's attestation key.

The adversary model from the paper — root on the TSR machine — is modelled
by :meth:`host_memory_dump`: it returns everything a root adversary can
read from the process, which by construction excludes enclave state.  Tests
assert the signing key never appears there.
"""

from __future__ import annotations

import ast
import functools
import inspect
import json
import linecache
from dataclasses import dataclass

from repro.crypto.hashes import sha256_bytes
from repro.crypto.rsa import RsaPublicKey
from repro.sgx.platform import AttestationService, SgxCpu
from repro.util.errors import AttestationError, ReproError


class EnclaveError(ReproError):
    """An ecall failed or the enclave rejected the request."""


@dataclass(frozen=True)
class EnclaveQuote:
    """Remote-attestation evidence for one enclave."""

    cpu_id: str
    mrenclave: bytes
    report_data: bytes
    signature: bytes

    def report_bytes(self) -> bytes:
        body = {
            "cpu": self.cpu_id,
            "mrenclave": self.mrenclave.hex(),
            "report_data": self.report_data.hex(),
        }
        return json.dumps(body, sort_keys=True).encode("ascii")

    def verify(self, service: AttestationService,
               expected_mrenclave: bytes | None = None) -> bool:
        """Check the quote chains to a genuine CPU (and, optionally, that
        the enclave identity matches the build the verifier expects)."""
        key: RsaPublicKey = service.attestation_key_for(self.cpu_id)
        if not key.verify(self.report_bytes(), self.signature):
            raise AttestationError("enclave quote signature invalid")
        if expected_mrenclave is not None and self.mrenclave != expected_mrenclave:
            raise AttestationError(
                "MRENCLAVE mismatch: enclave is not the expected build"
            )
        return True


def _find_class(node: ast.AST, parts: list[str],
                depth: int = 0) -> ast.ClassDef | None:
    """The first class definition below ``node``, in source order, whose
    qualified name is ``parts``, where ``parts[:depth]`` names the classes
    and functions (each adding ``<locals>``) that enclose ``node``: the
    class ``inspect.findsource`` finds.  Only statements can define
    classes, so expressions are not visited, nor any class or function
    whose name leaves ``parts``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            if child.name != parts[depth]:
                continue
            if depth + 1 == len(parts):
                return child
            found = _find_class(child, parts, depth + 1)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if parts[depth:depth + 2] != [child.name, "<locals>"] or (
                    depth + 2 == len(parts)):
                continue
            found = _find_class(child, parts, depth + 2)
        elif isinstance(child, (ast.stmt, ast.excepthandler, ast.match_case)):
            found = _find_class(child, parts, depth)
        else:
            continue
        if found is not None:
            return found
    return None


def _class_source(program_class: type) -> str:
    """The text ``inspect.getsource(program_class)`` returns, from one
    ``ast.parse`` of the defining module and no tokenizer pass.

    The module's lines come from :mod:`linecache`, as inspect reads them,
    and the class is the one :func:`_find_class` locates by
    ``__qualname__``.  Its text starts at its first decorator and ends
    where ``inspect.getblock`` ends it: at its last statement, or at the
    last comment line after that statement that is indented at least as
    deep as the class body, up to the next line of code.  Raises
    ``OSError`` or ``TypeError`` where ``inspect.getsource`` does.
    """
    file = inspect.getsourcefile(program_class)
    if file:
        linecache.checkcache(file)
    else:
        file = inspect.getfile(program_class)
        if not (file.startswith("<") and file.endswith(">")):
            raise OSError("source code not available")
    module = inspect.getmodule(program_class, file)
    lines = linecache.getlines(file, module.__dict__ if module else None)
    if not lines:
        raise OSError("could not get source code")
    node = _find_class(ast.parse("".join(lines)),
                       program_class.__qualname__.split("."))
    if node is None:
        raise OSError("could not find class definition")
    first = (node.decorator_list or [node])[0].lineno
    last = node.end_lineno
    # The body's column, unless the body shares the header's line; AST
    # offsets count UTF-8 bytes, which equal characters in indentation.
    body = node.body[0]
    head = lines[body.lineno - 1].encode()[:body.col_offset]
    body_column = None if head.strip() else body.col_offset
    for number in range(last, len(lines)):
        line = lines[number]
        text = line.lstrip(" \t\f")
        if not text or text[0] in "\r\n":
            continue
        if text[0] != "#":
            break
        if body_column is not None and len(line) - len(text) >= body_column:
            last = number + 1
    return "".join(lines[first - 1:last])


@functools.cache
def measure_program(program_class: type) -> bytes:
    """MRENCLAVE: hash of the program's code identity.

    Uses the class's qualified name and source text — a faithful stand-in
    for hashing the enclave's initial memory contents: any code change
    yields a different measurement.  The text is exactly what
    ``inspect.getsource`` returns, read by :func:`_class_source` from one
    parse of the module (about a third of ``inspect``'s cost on
    :class:`~repro.core.program.TsrProgram`, whose tokenizer pass it
    skips).

    It runs once per class object, memoized on that object, so a TSR
    restart or a second enclave of the same build reads no source.  The
    value belongs to the loaded class: an edit to its source file after the
    first measurement does not move it, as SGX measures the enclave it
    loads, not the file on disk.  A class object built anew (a reloaded
    module, or a class defined inside a function on each call) is measured
    anew.  To pin measurements, replace this module attribute:
    :class:`Enclave` looks it up on every construction.
    """
    try:
        source = _class_source(program_class)
    except (OSError, TypeError):
        source = repr(program_class)
    identity = f"{program_class.__module__}.{program_class.__qualname__}\n{source}"
    return sha256_bytes(identity.encode())


class Enclave:
    """A loaded enclave instance hosting one program object."""

    def __init__(self, cpu: SgxCpu, program_class: type, *args, **kwargs):
        self._cpu = cpu
        self.mrenclave = measure_program(program_class)
        self._program = program_class(*args, **kwargs)
        self._destroyed = False
        # EGETKEY analog: programs that define _bind_enclave get a handle to
        # in-enclave facilities (sealing key derivation). The method is
        # private, so it is not reachable as an ecall from the host.
        bind = getattr(self._program, "_bind_enclave", None)
        if callable(bind):
            bind(self)

    # -- entry points ---------------------------------------------------------

    def ecall(self, entry_point: str, *args, **kwargs):
        """Call an exported entry point inside the enclave.

        Only public methods of the program are exported; private state and
        private methods are not reachable from the host.
        """
        if self._destroyed:
            raise EnclaveError("enclave has been destroyed")
        if entry_point.startswith("_"):
            raise EnclaveError(
                f"entry point {entry_point!r} is not exported (private)"
            )
        handler = getattr(self._program, entry_point, None)
        if handler is None or not callable(handler):
            raise EnclaveError(f"no such entry point: {entry_point!r}")
        return handler(*args, **kwargs)

    def destroy(self):
        """Tear down the enclave; in-memory state is irrecoverably lost.

        This models a TSR restart (paper section 5.5): whatever was not
        sealed to disk is gone.
        """
        self._program = None
        self._destroyed = True

    @property
    def alive(self) -> bool:
        return not self._destroyed

    # -- sealing & attestation ----------------------------------------------------

    def sealing_key(self) -> bytes:
        """The CPU+enclave-bound sealing key (usable only from inside)."""
        if self._destroyed:
            raise EnclaveError("enclave has been destroyed")
        return self._cpu.derive_sealing_key(self.mrenclave)

    def quote(self, report_data: bytes) -> EnclaveQuote:
        """Produce remote-attestation evidence carrying ``report_data``.

        TSR puts the public signing key's fingerprint in ``report_data`` so
        clients know the key they receive came from *this* enclave.
        """
        if self._destroyed:
            raise EnclaveError("enclave has been destroyed")
        unsigned = EnclaveQuote(
            cpu_id=self._cpu.cpu_id,
            mrenclave=self.mrenclave,
            report_data=report_data,
            signature=b"",
        )
        signature = self._cpu.sign_quote(unsigned.report_bytes())
        return EnclaveQuote(
            cpu_id=self._cpu.cpu_id,
            mrenclave=self.mrenclave,
            report_data=report_data,
            signature=signature,
        )

    # -- adversary surface -----------------------------------------------------------

    def host_memory_dump(self) -> dict:
        """What a root adversary sees when dumping the host process.

        Enclave memory is hardware-encrypted; the dump exposes only the
        enclave's existence and its public metadata, never program state.
        """
        return {
            "enclave_loaded": not self._destroyed,
            "mrenclave": self.mrenclave.hex(),
            "cpu_id": self._cpu.cpu_id,
            # Note: deliberately no reference to self._program state.
        }
