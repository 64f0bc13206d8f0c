"""Security policies (paper Listing 1).

A policy is what an organization deploys to its TSR repository: which
mirrors to read (with pinned certificate chains), which package signers to
trust, and the initial contents of the account configuration files the
organization ships on its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.rsa import RsaPublicKey
from repro.simnet.latency import Continent
from repro.util.errors import PolicyError
from repro.util.miniyaml import MiniYamlError, dump_yaml, parse_yaml

#: Default initial account files, used when a policy omits
#: ``init_config_files`` (matches the OS baseline).
DEFAULT_INIT_CONFIG = {
    "/etc/passwd": (
        "root:x:0:0:root:/root:/bin/ash\n"
        "daemon:x:2:2:daemon:/sbin:/sbin/nologin\n"
        "nobody:x:65534:65534:nobody:/:/sbin/nologin\n"
    ),
    "/etc/shadow": (
        "root:!:0:0:99999:7:::\n"
        "daemon:!:0:0:99999:7:::\n"
        "nobody:!:0:0:99999:7:::\n"
    ),
    "/etc/group": (
        "root:x:0:\n"
        "daemon:x:2:root,bin,daemon\n"
        "nobody:x:65534:\n"
    ),
}


def tolerated_faults(mirror_count: int) -> int:
    """f such that ``mirror_count`` mirrors are 2f+1 (extra mirrors are
    spares); a quorum is f+1 matching answers."""
    return (mirror_count - 1) // 2


@dataclass(frozen=True)
class MirrorPolicyEntry:
    """One mirror the policy allows TSR to read."""

    hostname: str
    continent: Continent = Continent.EUROPE
    certificate_chain: str = ""


@dataclass
class SecurityPolicy:
    """A parsed, validated security policy."""

    mirrors: list[MirrorPolicyEntry]
    signers_keys: list[RsaPublicKey]
    init_config_files: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_INIT_CONFIG))
    #: Optional package allow/deny lists (the "private variant" the paper
    #: sketches at the end of section 4.5).
    package_whitelist: frozenset[str] | None = None
    package_blacklist: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.mirrors:
            raise PolicyError("policy must list at least one mirror")
        if not self.signers_keys:
            raise PolicyError("policy must trust at least one package signer key")
        seen = set()
        for mirror in self.mirrors:
            if mirror.hostname in seen:
                raise PolicyError(f"duplicate mirror {mirror.hostname!r}")
            seen.add(mirror.hostname)
        for path in ("/etc/passwd", "/etc/shadow", "/etc/group"):
            if path not in self.init_config_files:
                raise PolicyError(f"init_config_files must include {path}")

    # -- fault tolerance -----------------------------------------------------

    @property
    def fault_tolerance(self) -> int:
        """f such that the mirror set is 2f+1 (extra mirrors are spares)."""
        return tolerated_faults(len(self.mirrors))

    def quorum_size(self) -> int:
        return self.fault_tolerance + 1

    # -- package filtering -----------------------------------------------------

    def allows_package(self, name: str) -> bool:
        if name in self.package_blacklist:
            return False
        if self.package_whitelist is not None:
            return name in self.package_whitelist
        return True

    # -- (de)serialization --------------------------------------------------------

    @classmethod
    def from_yaml(cls, text: str) -> "SecurityPolicy":
        try:
            raw = parse_yaml(text)
        except MiniYamlError as exc:
            raise PolicyError(f"policy is not valid YAML: {exc}") from exc
        if not isinstance(raw, dict):
            raise PolicyError("policy document must be a mapping")
        mirrors = []
        for item in _require_list(raw, "mirrors"):
            if not isinstance(item, dict) or "hostname" not in item:
                raise PolicyError("each mirror needs at least a hostname")
            continent_text = item.get("continent", "europe")
            try:
                continent = Continent.parse(str(continent_text))
            except ValueError as exc:
                raise PolicyError(str(exc)) from exc
            mirrors.append(MirrorPolicyEntry(
                hostname=item["hostname"],
                continent=continent,
                certificate_chain=item.get("certificate_chain", "") or "",
            ))
        signers = []
        for pem in _require_list(raw, "signers_keys"):
            if not isinstance(pem, str):
                raise PolicyError("signers_keys entries must be PEM strings")
            signers.append(RsaPublicKey.from_pem(pem))
        init_config = dict(DEFAULT_INIT_CONFIG)
        for item in raw.get("init_config_files") or []:
            if not isinstance(item, dict) or "path" not in item or "content" not in item:
                raise PolicyError("init_config_files entries need path and content")
            content = item["content"]
            if not content.endswith("\n"):
                content += "\n"
            init_config[item["path"]] = content
        whitelist = raw.get("package_whitelist")
        blacklist = raw.get("package_blacklist") or []
        return cls(
            mirrors=mirrors,
            signers_keys=signers,
            init_config_files=init_config,
            package_whitelist=frozenset(whitelist) if whitelist is not None else None,
            package_blacklist=frozenset(blacklist),
        )

    def to_yaml(self) -> str:
        doc: dict = {
            "mirrors": [
                {
                    "hostname": m.hostname,
                    "continent": m.continent.value,
                    **({"certificate_chain": m.certificate_chain}
                       if m.certificate_chain else {}),
                }
                for m in self.mirrors
            ],
            "signers_keys": [key.to_pem() for key in self.signers_keys],
            "init_config_files": [
                {"path": path, "content": content}
                for path, content in sorted(self.init_config_files.items())
            ],
        }
        if self.package_whitelist is not None:
            doc["package_whitelist"] = sorted(self.package_whitelist)
        if self.package_blacklist:
            doc["package_blacklist"] = sorted(self.package_blacklist)
        return dump_yaml(doc)


def _require_list(raw: dict, key: str) -> list:
    value = raw.get(key)
    if not isinstance(value, list) or not value:
        raise PolicyError(f"policy must define a non-empty {key!r} list")
    return value
