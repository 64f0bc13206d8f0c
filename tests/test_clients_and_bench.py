"""Tests for repository clients, attested onboarding, and bench helpers."""

import pytest

from repro.archive.apk import ApkPackage, PackageFile
from repro.archive.index import RepositoryIndex
from repro.bench.costs import InstallCostModel
from repro.bench.report import PaperTable, record_table, recorded_tables, reset_tables
from repro.core.client import (
    MirrorRepositoryClient,
    TsrRepositoryClient,
    deploy_policy_with_attestation,
)
from repro.osim.pkgmgr import InstallStats
from repro.sgx.platform import AttestationService
from repro.simnet.latency import Continent
from repro.simnet.network import Host, ScheduledFetchSession
from repro.util.errors import (
    AttestationError,
    NetworkError,
    PackageManagerError,
)
from repro.workload.scenario import build_scenario


def _packages():
    return [ApkPackage(name="musl", version="1.1.24-r2",
                       files=[PackageFile("/lib/ld-musl.so", b"\x7fELF")])]


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(packages=_packages(), key_bits=1024,
                          with_monitor=False)


class TestClients:
    def test_tsr_client_fetches_index_and_package(self, scenario):
        scenario.network.add_host(Host("client-host", Continent.EUROPE))
        client = TsrRepositoryClient(scenario.network, "client-host",
                                     scenario.tsr.hostname, scenario.repo_id)
        index = RepositoryIndex.from_bytes(client.fetch_index())
        assert index.verify(scenario.tsr_public_key)
        blob = client.fetch_package("musl")
        assert ApkPackage.parse(blob).verify([scenario.tsr_public_key])

    def test_mirror_client_fetches_upstream(self, scenario):
        scenario.network.add_host(Host("client-host-2", Continent.EUROPE))
        mirror = next(iter(scenario.mirrors))
        client = MirrorRepositoryClient(scenario.network, "client-host-2",
                                        mirror)
        index = RepositoryIndex.from_bytes(client.fetch_index())
        assert index.verify(scenario.distro_key.public_key)

    def test_clients_advance_clock(self, scenario):
        scenario.network.add_host(Host("client-host-3", Continent.EUROPE))
        client = TsrRepositoryClient(scenario.network, "client-host-3",
                                     scenario.tsr.hostname, scenario.repo_id)
        before = scenario.clock.now()
        client.fetch_index()
        assert scenario.clock.now() > before


def _dep_packages():
    return [
        ApkPackage(name="musl", version="1.1.24-r2",
                   files=[PackageFile("/lib/ld-musl.so", b"\x7fELF m" * 500)]),
        ApkPackage(name="zlib", version="1.2.11-r3", depends=["musl"],
                   files=[PackageFile("/lib/libz.so", b"\x7fELF z" * 700)]),
        ApkPackage(name="busybox", version="1.31-r0",
                   files=[PackageFile("/bin/busybox2", b"\x7fELF b" * 300)]),
    ]


_DEP_NAMES = ("musl", "zlib", "busybox")


def _fetch_all(client) -> list[bytes]:
    return [client.fetch_index()] + [client.fetch_package(name)
                                     for name in _DEP_NAMES]


class TestScheduledClientFetch:
    """Clients fetching through a fetch session, and the serial installs
    a session-attached package manager must reproduce."""

    @pytest.fixture()
    def dep_scenario(self):
        return build_scenario(packages=_dep_packages(), key_bits=1024,
                              with_monitor=False)

    def test_session_fetch_matches_serial_payloads(self, dep_scenario):
        scenario = dep_scenario
        for name in ("serial-host", "session-host"):
            scenario.network.add_host(Host(name, Continent.EUROPE))
        serial = TsrRepositoryClient(scenario.network, "serial-host",
                                     scenario.tsr.hostname, scenario.repo_id)
        scheduled = TsrRepositoryClient(
            scenario.network, "session-host", scenario.tsr.hostname,
            scenario.repo_id, session=ScheduledFetchSession(scenario.network))
        assert _fetch_all(scheduled) == _fetch_all(serial)

    def test_mirror_session_fetch_matches_serial_payloads(self,
                                                          dep_scenario):
        scenario = dep_scenario
        mirror = next(iter(scenario.mirrors))
        for name in ("serial-host", "session-host"):
            scenario.network.add_host(Host(name, Continent.EUROPE))
        serial = MirrorRepositoryClient(scenario.network, "serial-host",
                                        mirror)
        scheduled = MirrorRepositoryClient(
            scenario.network, "session-host", mirror,
            session=ScheduledFetchSession(scenario.network))
        assert _fetch_all(scheduled) == _fetch_all(serial)

    def test_clients_on_one_session_overlap(self, dep_scenario):
        """Three clients on one uncapped session run side by side: the
        wave ends with its slowest client, well before the same fetches
        issued one after another on the clock."""
        scenario = dep_scenario
        hosts = [f"fleet-{i}" for i in range(3)]
        for name in hosts:
            scenario.network.add_host(Host(name, Continent.EUROPE))
        before = scenario.clock.now()
        for name in hosts:
            _fetch_all(TsrRepositoryClient(scenario.network, name,
                                           scenario.tsr.hostname,
                                           scenario.repo_id))
        serial_elapsed = scenario.clock.now() - before
        session = ScheduledFetchSession(scenario.network)
        for name in hosts:
            _fetch_all(TsrRepositoryClient(scenario.network, name,
                                           scenario.tsr.hostname,
                                           scenario.repo_id,
                                           session=session))
        finishes = [session.channel_finish(name) for name in hosts]
        assert min(finishes) > 0.0
        assert session.makespan == max(finishes)
        assert session.makespan < serial_elapsed / 2

    def test_session_fetch_of_unserved_name_fails_like_serial(
            self, dep_scenario):
        scenario = dep_scenario
        for name in ("serial-host", "session-host"):
            scenario.network.add_host(Host(name, Continent.EUROPE))
        serial = TsrRepositoryClient(scenario.network, "serial-host",
                                     scenario.tsr.hostname, scenario.repo_id)
        session = ScheduledFetchSession(scenario.network)
        scheduled = TsrRepositoryClient(
            scenario.network, "session-host", scenario.tsr.hostname,
            scenario.repo_id, session=session)
        with pytest.raises(NetworkError) as serial_error:
            serial.fetch_package("no-such-package")
        with pytest.raises(NetworkError) as session_error:
            scheduled.fetch_package("no-such-package")
        assert str(session_error.value) == str(serial_error.value)
        # The client waited out the timeout on its channel.
        assert session.channel_finish("session-host") \
            == scenario.network.timeout

    def test_detached_client_fetches_on_the_clock(self, dep_scenario):
        scenario = dep_scenario
        scenario.network.add_host(Host("detach-host", Continent.EUROPE))
        session = ScheduledFetchSession(scenario.network)
        client = TsrRepositoryClient(scenario.network, "detach-host",
                                     scenario.tsr.hostname, scenario.repo_id,
                                     session=session)
        client.fetch_index()
        key = session.last_key("detach-host")
        client.use_session(None)
        before = scenario.clock.now()
        blob = client.fetch_package("musl")
        elapsed = scenario.clock.now() - before
        probe = scenario.network.probe(
            "detach-host", client._package_request("musl"))
        assert blob == probe.payload
        assert elapsed >= probe.setup
        assert session.last_key("detach-host") == key

    def test_session_install_equivalent_to_serial_install(self,
                                                          dep_scenario):
        scenario = dep_scenario
        node_a, manager_a = scenario.new_node("serial-node")
        manager_a.update()
        stats_a = InstallStats()
        manager_a.install("zlib", stats_a)   # pulls musl via the closure
        manager_a.install("busybox", stats_a)

        session = ScheduledFetchSession(scenario.network)
        node_b, manager_b = scenario.new_node("session-node",
                                              session=session)
        manager_b.update()
        stats_b = InstallStats()
        manager_b.install("zlib", stats_b)
        manager_b.install("busybox", stats_b)

        assert stats_b.packages == stats_a.packages == 3
        assert stats_b.bytes_downloaded == stats_a.bytes_downloaded
        assert session.makespan > 0.0
        assert ({p.name for p in node_b.pkgdb.all()}
                == {p.name for p in node_a.pkgdb.all()})
        for pkg in node_a.pkgdb.all():
            other = node_b.pkgdb.get(pkg.name)
            assert other is not None
            assert other.content_hash == pkg.content_hash

    def test_install_of_unserved_name_keeps_manager_usable(self,
                                                           dep_scenario):
        """A name the repository does not serve fails at resolution,
        after the fresh index arrived; the manager then installs a
        served name as usual."""
        scenario = dep_scenario
        node, manager = scenario.new_node("reject-node")
        manager.update()
        with pytest.raises(PackageManagerError):
            manager.install("no-such-package")
        assert node.pkgdb.get("musl") is None
        stats = manager.install("musl")
        assert stats.packages == 1
        assert node.pkgdb.get("musl") is not None

    def test_install_through_mirror_pulls_dependency_closure(self,
                                                             dep_scenario):
        scenario = dep_scenario
        node, manager = scenario.new_node("mirror-node", use_tsr=False)
        manager.update()
        stats = manager.install("zlib")
        assert stats.packages == 2  # musl came along via the closure
        assert node.pkgdb.get("musl") is not None
        assert node.pkgdb.get("zlib") is not None


class TestAttestedOnboarding:
    def test_happy_path(self, scenario):
        scenario.network.add_host(Host("owner", Continent.EUROPE))
        repo_id, key = deploy_policy_with_attestation(
            scenario.network, "owner", scenario.tsr.hostname,
            scenario.policy.to_yaml(), scenario.attestation_service,
            expected_mrenclave=scenario.tsr._enclave.mrenclave,
        )
        assert repo_id.startswith("repo-")
        assert key.fingerprint()

    def test_wrong_mrenclave_rejected(self, scenario):
        scenario.network.add_host(Host("owner-2", Continent.EUROPE))
        with pytest.raises(AttestationError):
            deploy_policy_with_attestation(
                scenario.network, "owner-2", scenario.tsr.hostname,
                scenario.policy.to_yaml(), scenario.attestation_service,
                expected_mrenclave=b"\x00" * 32,
            )

    def test_unknown_attestation_service_rejected(self, scenario):
        scenario.network.add_host(Host("owner-3", Continent.EUROPE))
        with pytest.raises(AttestationError):
            deploy_policy_with_attestation(
                scenario.network, "owner-3", scenario.tsr.hostname,
                scenario.policy.to_yaml(), AttestationService(),
            )


class TestInstallCostModel:
    def test_monotone_in_every_dimension(self):
        model = InstallCostModel()
        base = InstallStats(packages=1, files_written=2, bytes_written=1000,
                            xattrs_written=0, scripts_run=0)
        bigger = InstallStats(packages=1, files_written=20,
                              bytes_written=10_000, xattrs_written=20,
                              scripts_run=2)
        assert model.install_seconds(bigger) > model.install_seconds(base)

    def test_xattrs_add_cost(self):
        """The Fig.-11 delta driver: signature installation costs time."""
        model = InstallCostModel()
        plain = InstallStats(packages=1, files_written=10, bytes_written=10_000)
        signed = InstallStats(packages=1, files_written=10,
                              bytes_written=10_000, xattrs_written=10)
        assert model.install_seconds(signed) > model.install_seconds(plain)

    def test_typical_regime_matches_paper_order(self):
        model = InstallCostModel()
        typical = InstallStats(packages=1, files_written=15,
                               bytes_written=150_000, xattrs_written=15,
                               scripts_run=1)
        seconds = model.install_seconds(typical)
        assert 0.03 < seconds < 0.3  # the paper's ~100-200 ms regime


class TestPaperTable:
    def test_render_and_record(self):
        reset_tables()
        table = PaperTable(experiment="Table X", title="demo",
                           columns=["a", "b"])
        table.add_row(1, "two")
        table.note("a note")
        record_table(table)
        rendered = recorded_tables()[0].render()
        assert "Table X" in rendered
        assert "a note" in rendered
        reset_tables()
        assert recorded_tables() == []

    def test_row_arity_checked(self):
        table = PaperTable(experiment="T", title="t", columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_alignment(self):
        table = PaperTable(experiment="T", title="t",
                           columns=["name", "value"])
        table.add_row("a-very-long-cell", 1)
        table.add_row("b", 22222)
        lines = table.render().splitlines()
        # Header and rows share the same separator column position.
        positions = {line.index("|") for line in lines if "|" in line}
        assert len(positions) == 1
