"""Tests for the multi-tenant solve service (repro.service)."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.analysis.certify import certify_program, qubo_fingerprint
from repro.core import Env
from repro.core.solution import SampleSet, Solution
from repro.core.types import UnsatisfiableError
from repro.annealing.device import AnnealingDevice
from repro.circuit.device import CircuitDevice
from repro.runtime import HybridExecutor
from repro.runtime.backends import (
    BACKEND_FACTORIES,
    ClassicalBackend,
    backend_names,
    make_backend,
    resolve_backends,
)
from repro.service import (
    AdmissionController,
    AdmissionRejected,
    LRUCache,
    ServiceClient,
    ServiceConfig,
    ServiceResult,
    SolveRequest,
    SolveService,
    TenantQuota,
    TokenBucket,
    request_fingerprint,
    solver_signature,
)
from repro.service.scheduler import Job, JobScheduler


def two_var_env() -> Env:
    """hard: at least one of a, b; soft: prefer each FALSE."""
    env = Env()
    env.nck(["a", "b"], [1, 2])
    env.nck(["a"], [0], soft=True)
    env.nck(["b"], [0], soft=True)
    return env


class SlowBackend:
    """Deterministic backend that sleeps ``delay`` seconds per sample."""

    name = "slow-stub"
    deterministic = True

    def __init__(self, delay=0.05):
        self.delay = delay
        self.calls = 0
        self._lock = threading.Lock()

    def sample(self, env, *, rng=None, program=None):
        with self._lock:
            self.calls += 1
        time.sleep(self.delay)
        sol = Solution.from_assignment(env, {"a": True, "b": False}, backend=self.name)
        return SampleSet(solutions=[sol], backend=self.name)


class FakeClock:
    """A hand-cranked monotonic clock for deterministic bucket tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ---------------------------------------------------------------------------
# Token buckets + admission control
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(TenantQuota(rate=2.0, burst=3), clock)
        assert [bucket.try_acquire() for _ in range(3)] == [None, None, None]
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)  # 1 token at 2/s
        clock.advance(0.5)
        assert bucket.try_acquire() is None
        assert bucket.available == pytest.approx(0.0)

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(TenantQuota(rate=100.0, burst=2), clock)
        clock.advance(60.0)
        assert bucket.available == pytest.approx(2.0)

    def test_zero_rate_grants_exactly_burst(self):
        bucket = TokenBucket(TenantQuota(rate=0.0, burst=2), FakeClock())
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() == float("inf")

    def test_quota_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(rate=-1.0)
        with pytest.raises(ValueError):
            TenantQuota(burst=0)
        with pytest.raises(ValueError):
            TenantQuota(max_queued=0)


class TestAdmissionController:
    def controller(self, **kwargs):
        clock = FakeClock()
        config = ServiceConfig(**kwargs)
        return AdmissionController(config, clock), clock

    def test_admits_within_budget(self):
        ctrl, _ = self.controller()
        ctrl.admit("t", queue_depth=0, tenant_depth=0, draining=False)
        assert ctrl.snapshot() == {"admitted": 1, "rejected": {}}

    def test_draining_rejects_first(self):
        ctrl, _ = self.controller()
        with pytest.raises(AdmissionRejected) as excinfo:
            ctrl.admit("t", queue_depth=0, tenant_depth=0, draining=True)
        assert excinfo.value.reason == "draining"
        assert excinfo.value.retry_after is None

    def test_global_queue_bound(self):
        ctrl, _ = self.controller(max_queue_depth=4)
        with pytest.raises(AdmissionRejected) as excinfo:
            ctrl.admit("t", queue_depth=4, tenant_depth=0, draining=False)
        assert excinfo.value.reason == "queue-full"

    def test_tenant_queue_bound(self):
        ctrl, _ = self.controller(
            quotas={"t": TenantQuota(rate=10.0, burst=10, max_queued=2)}
        )
        with pytest.raises(AdmissionRejected) as excinfo:
            ctrl.admit("t", queue_depth=3, tenant_depth=2, draining=False)
        assert excinfo.value.reason == "tenant-queue-full"

    def test_over_quota_carries_retry_after(self):
        ctrl, clock = self.controller(
            quotas={"t": TenantQuota(rate=1.0, burst=1, max_queued=8)}
        )
        ctrl.admit("t", queue_depth=0, tenant_depth=0, draining=False)
        with pytest.raises(AdmissionRejected) as excinfo:
            ctrl.admit("t", queue_depth=0, tenant_depth=0, draining=False)
        assert excinfo.value.reason == "over-quota"
        assert excinfo.value.retry_after == pytest.approx(1.0)
        clock.advance(1.0)
        ctrl.admit("t", queue_depth=0, tenant_depth=0, draining=False)

    def test_queue_rejection_does_not_burn_quota(self):
        ctrl, _ = self.controller(
            max_queue_depth=1, quotas={"t": TenantQuota(rate=0.0, burst=1)}
        )
        with pytest.raises(AdmissionRejected):
            ctrl.admit("t", queue_depth=1, tenant_depth=0, draining=False)
        # The single burst token must still be available.
        ctrl.admit("t", queue_depth=0, tenant_depth=0, draining=False)

    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError):
            AdmissionRejected("t", "no-such-reason")


# ---------------------------------------------------------------------------
# Caches + fingerprints
# ---------------------------------------------------------------------------


class TestLRUCache:
    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_zero_capacity_never_stores(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_contains_does_not_touch_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert "a" in cache and "b" not in cache
        assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 0


#: ``SolveRequest(backends=alias, seed=3).signature()`` per alias, as
#: recorded when signatures were still computed from built backends.
RECORDED_SIGNATURES = {
    "classical": '[["classical-exact"],"race",null,null,3]',
    "exact": '[["classical-exact"],"race",null,null,3]',
    "annealing": '[["advantage-4.1-sim"],"race",null,null,3]',
    "anneal": '[["advantage-4.1-sim"],"race",null,null,3]',
    "dwave": '[["advantage-4.1-sim"],"race",null,null,3]',
    "qaoa": '[["ibmq-brooklyn-sim"],"race",null,null,3]',
    "circuit": '[["ibmq-brooklyn-sim"],"race",null,null,3]',
}


class TestFingerprints:
    def test_request_fingerprint_is_construction_independent(self):
        assert request_fingerprint(two_var_env()) == request_fingerprint(two_var_env())

    def test_request_fingerprint_sees_constraints_and_options(self):
        env = two_var_env()
        other = Env()
        other.nck(["a", "b"], [1])  # different selection set
        other.nck(["a"], [0], soft=True)
        other.nck(["b"], [0], soft=True)
        assert request_fingerprint(env) != request_fingerprint(other)
        assert request_fingerprint(env) != request_fingerprint(
            env, {"hard_scale": 9.0}
        )

    def test_identity_repr_option_is_rejected(self):
        # object()'s default repr embeds its address, which would make
        # the key differ between runs; the guard refuses such values.
        with pytest.raises(TypeError, match="content-based repr"):
            request_fingerprint(two_var_env(), {"opt": object()})

    def test_primitive_option_gives_the_same_key_twice(self):
        first = request_fingerprint(two_var_env(), {"opt": 3})
        assert first == request_fingerprint(two_var_env(), {"opt": 3})

    def test_program_fingerprint_matches_certify(self):
        program = two_var_env().to_qubo()
        assert program.fingerprint == qubo_fingerprint(program.qubo)
        # Cached: the second access returns the same string object.
        assert program.fingerprint is program.fingerprint

    def test_certificate_uses_program_fingerprint(self):
        env = two_var_env()
        program = env.to_qubo()
        certificate = certify_program(env, program)
        assert certificate.qubo_sha256 == program.fingerprint

    def test_signature_builds_no_hardware(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("signature() built a device")

        monkeypatch.setattr(AnnealingDevice, "__init__", refuse)
        monkeypatch.setattr(CircuitDevice, "__init__", refuse)
        env = two_var_env()
        for alias in BACKEND_FACTORIES:
            signature = SolveRequest(problem=env, backends=alias, seed=3).signature()
            assert signature == RECORDED_SIGNATURES[alias]
        comma = SolveRequest(
            problem=env,
            backends="classical, annealing,qaoa",
            strategy="ensemble",
            timeout=2.5,
            retries=1,
            seed=9,
        )
        assert comma.signature() == (
            '[["classical-exact","advantage-4.1-sim","ibmq-brooklyn-sim"],"ensemble",2.5,1,9]'
        )
        mixed = SolveRequest(
            problem=env, backends=["dwave", ClassicalBackend()], strategy="fallback"
        )
        assert mixed.signature() == (
            '[["advantage-4.1-sim","classical-exact"],"fallback",null,null,null]'
        )

    @pytest.mark.parametrize(
        "backends, message",
        [
            (
                "bogus",
                "unknown backend 'bogus' "
                "(known: anneal, annealing, circuit, classical, dwave, exact, qaoa)",
            ),
            (
                "annealing,dwave",
                "backend names must be unique, "
                "got ['advantage-4.1-sim', 'advantage-4.1-sim']",
            ),
            ("", "at least one backend is required"),
        ],
    )
    def test_signature_raises_what_resolve_backends_raises(self, backends, message):
        request = SolveRequest(problem=None, backends=backends)
        for call in (request.signature, lambda: resolve_backends(backends)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message

    @pytest.mark.parametrize("alias", sorted(BACKEND_FACTORIES))
    def test_default_name_is_the_built_backends_name(self, alias):
        assert backend_names(alias) == [make_backend(alias).name]

    def test_solver_signature_distinguishes_configs(self):
        base = solver_signature(["classical"], "race", None, None, 7)
        assert base == solver_signature(["classical"], "race", None, None, 7)
        assert base != solver_signature(["classical"], "race", None, None, 8)
        assert base != solver_signature(["classical"], "ensemble", None, None, 7)
        assert base != solver_signature(["classical"], "race", 1.0, None, 7)


# ---------------------------------------------------------------------------
# HybridExecutor
# ---------------------------------------------------------------------------


class TestHybridExecutor:
    def test_thread_submit_and_async_run(self):
        with HybridExecutor(max_threads=2) as executor:
            assert executor.submit(lambda: 21).result() == 21

            async def doubled():
                return await executor.run(lambda x: 2 * x, 21)

            assert asyncio.run(doubled()) == 42

    def test_unknown_mode_rejected(self):
        with HybridExecutor() as executor:
            with pytest.raises(ValueError):
                executor.submit(lambda: None, mode="fiber")

    def test_shutdown_is_terminal(self):
        executor = HybridExecutor()
        executor.threads  # force creation
        executor.shutdown()
        assert executor.closed
        with pytest.raises(RuntimeError):
            executor.threads
        executor.shutdown()  # idempotent

    def test_pools_are_lazy(self):
        executor = HybridExecutor()
        assert "threads=lazy" in repr(executor)
        executor.submit(lambda: None).result()
        assert "threads=live" in repr(executor)
        assert "processes=lazy" in repr(executor)
        executor.shutdown()


# ---------------------------------------------------------------------------
# The scheduler: tenant-fair ordering
# ---------------------------------------------------------------------------


class TestSchedulerFairness:
    def test_round_robin_across_tenants(self):
        async def scenario():
            # workers=0: nothing consumes, so _pop order is observable.
            scheduler = JobScheduler(HybridExecutor(), workers=0)
            await scheduler.start()
            loop = asyncio.get_running_loop()
            for tenant in ["a", "a", "a", "b", "c"]:
                await scheduler.submit(
                    Job(
                        request=SolveRequest(problem=None, tenant=tenant),
                        future=loop.create_future(),
                    )
                )
            assert scheduler.depth == 5
            assert scheduler.tenant_depth("a") == 3
            order = []
            async with scheduler._cond:
                while (job := scheduler._pop()) is not None:
                    order.append(job.tenant)
            return order

        # One job per tenant per turn: "a" cannot starve "b" or "c".
        assert asyncio.run(scenario()) == ["a", "b", "c", "a", "a"]

    def test_submit_before_start_fails(self):
        scheduler = JobScheduler(HybridExecutor(), workers=1)
        with pytest.raises(RuntimeError):
            asyncio.run(scheduler.submit(Job(request=SolveRequest(None), future=None)))


# ---------------------------------------------------------------------------
# End-to-end service behavior
# ---------------------------------------------------------------------------


class TestSolveService:
    def test_repeat_request_hits_result_cache(self):
        async def scenario():
            async with SolveService(ServiceConfig(workers=2)) as service:
                first = await service.solve(
                    two_var_env(), tenant="alice", backends="classical", seed=7
                )
                second = await service.solve(
                    two_var_env(), tenant="alice", backends="classical", seed=7
                )
                stats = service.stats()
            return first, second, stats

        first, second, stats = asyncio.run(scenario())
        assert isinstance(first, ServiceResult)
        assert not first.cache_hit and not first.compile_hit
        assert second.cache_hit and second.compile_hit
        # Byte-identical: the hit returns the very same result object.
        assert second.result is first.result
        assert second.solution.assignment == first.solution.assignment
        assert first.program_fingerprint == second.program_fingerprint
        assert second.queued_s == 0.0  # hits never queue
        assert stats["completed"] == 2 and stats["failed"] == 0
        assert stats["result_cache"]["hits"] == 1

    def test_changed_seed_is_program_hit_result_miss(self):
        async def scenario():
            async with SolveService(ServiceConfig(workers=2)) as service:
                await service.solve(
                    two_var_env(), tenant="a", backends="classical", seed=1
                )
                warm = await service.solve(
                    two_var_env(), tenant="a", backends="classical", seed=2
                )
            return warm

        warm = asyncio.run(scenario())
        assert warm.compile_hit and not warm.cache_hit

    def test_use_cache_false_bypasses_memoization(self):
        async def scenario():
            async with SolveService(ServiceConfig(workers=2)) as service:
                a = await service.solve(
                    two_var_env(), tenant="a", backends="classical", use_cache=False
                )
                b = await service.solve(
                    two_var_env(), tenant="a", backends="classical", use_cache=False
                )
                stats = service.stats()
            return a, b, stats

        a, b, stats = asyncio.run(scenario())
        assert not a.cache_hit and not b.cache_hit
        assert b.result is not a.result
        assert stats["program_cache"]["size"] == 0

    def test_solver_errors_are_forwarded(self):
        unsat = Env()
        unsat.nck(["a"], [0])
        unsat.nck(["a"], [1])

        async def scenario():
            async with SolveService(ServiceConfig(workers=1)) as service:
                with pytest.raises(UnsatisfiableError):
                    await service.solve(unsat, tenant="a", backends="classical")
                return service.stats()

        stats = asyncio.run(scenario())
        assert stats["failed"] == 1 and stats["completed"] == 0

    def test_queue_full_rejection_under_load(self):
        backend = SlowBackend(delay=0.2)
        config = ServiceConfig(workers=1, max_queue_depth=1)

        async def scenario():
            async with SolveService(config) as service:
                futures = []
                rejected = None
                for _ in range(8):
                    try:
                        futures.append(
                            await service.submit(
                                SolveRequest(
                                    problem=two_var_env(),
                                    tenant="a",
                                    backends=[backend],
                                    use_cache=False,
                                )
                            )
                        )
                    except AdmissionRejected as exc:
                        rejected = exc
                        break
                assert rejected is not None and rejected.reason == "queue-full"
                await asyncio.gather(*futures)
                return service.stats()

        stats = asyncio.run(scenario())
        assert stats["rejected"].get("queue-full", 0) >= 1

    def test_drain_completes_in_flight_then_rejects(self):
        backend = SlowBackend(delay=0.05)

        async def scenario():
            service = SolveService(ServiceConfig(workers=2))
            async with service:
                futures = [
                    await service.submit(
                        SolveRequest(
                            problem=two_var_env(),
                            tenant=f"t{i}",
                            backends=[backend],
                            use_cache=False,
                        )
                    )
                    for i in range(4)
                ]
                await service.drain()
                assert service.state == "draining"
                # Everything admitted before the drain completed.
                outcomes = [f.result() for f in futures]
                with pytest.raises(AdmissionRejected) as excinfo:
                    await service.submit(SolveRequest(problem=two_var_env()))
                return outcomes, excinfo.value.reason, service.stats()

        outcomes, reason, stats = asyncio.run(scenario())
        assert len(outcomes) == 4
        assert all(o.solution.hard_satisfied for o in outcomes)
        assert reason == "draining"
        assert stats["queued"] == 0 and stats["in_flight"] == 0

    def test_config_certify_attaches_certificate(self):
        async def scenario():
            async with SolveService(ServiceConfig(workers=1, certify=True)) as service:
                outcome = await service.solve(
                    two_var_env(), tenant="a", backends="classical"
                )
                program = service.programs.get(
                    SolveRequest(problem=two_var_env(), compile_kwargs={"certify": True})
                    .fingerprint()
                )
            return outcome, program

        outcome, program = asyncio.run(scenario())
        assert program is not None and program.certificate is not None
        assert program.certificate.qubo_sha256 == outcome.program_fingerprint

    def test_closed_service_cannot_restart(self):
        async def scenario():
            service = SolveService(ServiceConfig(workers=1))
            async with service:
                pass
            assert service.state == "closed"
            with pytest.raises(RuntimeError):
                await service.start()

        asyncio.run(scenario())


class TestServiceClient:
    def test_sync_solve_and_stats(self):
        with ServiceClient(ServiceConfig(workers=2)) as client:
            cold = client.solve(two_var_env(), tenant="s", backends="classical", seed=3)
            warm = client.solve(two_var_env(), tenant="s", backends="classical", seed=3)
            assert not cold.cache_hit and warm.cache_hit
            assert client.stats()["completed"] == 2

    def test_submit_returns_gatherable_futures(self):
        with ServiceClient(ServiceConfig(workers=2)) as client:
            futures = [
                client.submit(
                    SolveRequest(
                        problem=two_var_env(), tenant=f"t{i}", backends="classical"
                    )
                )
                for i in range(3)
            ]
            outcomes = [f.result(timeout=30) for f in futures]
        assert all(o.solution.hard_satisfied for o in outcomes)

    def test_admission_rejection_is_synchronous(self):
        config = ServiceConfig(quotas={"free": TenantQuota(rate=0.0, burst=1)})
        with ServiceClient(config) as client:
            client.solve(two_var_env(), tenant="free", backends="classical")
            with pytest.raises(AdmissionRejected) as excinfo:
                client.submit(SolveRequest(problem=two_var_env(), tenant="free"))
            assert excinfo.value.reason == "over-quota"

    def test_closed_client_refuses_calls(self):
        client = ServiceClient(ServiceConfig(workers=1))
        client.close()
        client.close()  # idempotent
        with pytest.raises(RuntimeError):
            client.solve(two_var_env())


class TestServeCLI:
    def test_serve_demo_workload(self, capsys):
        from repro.__main__ import main

        rc = main(
            ["serve", "--requests", "4", "--tenants", "2", "--workers", "2",
             "--n", "5", "--seed", "11"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "completed 4, rejected 0" in out
        assert "cold" in out and "hit" in out

    def test_serve_reports_rejections(self, capsys):
        from repro.__main__ import main

        rc = main(
            ["serve", "--requests", "4", "--tenants", "1", "--workers", "1",
             "--n", "5", "--rate", "0", "--burst", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "rejected (over-quota)" in out
        assert "completed 2, rejected 2" in out


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(workers=0)
        with pytest.raises(ValueError):
            ServiceConfig(mode="gpu")
        with pytest.raises(ValueError):
            ServiceConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            ServiceConfig(drain_timeout=0.0)

    def test_quota_lookup_falls_back_to_default(self):
        config = ServiceConfig(quotas={"vip": TenantQuota(rate=500.0, burst=500)})
        assert config.quota_for("vip").rate == 500.0
        assert config.quota_for("anyone") is config.default_quota
