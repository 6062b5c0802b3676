"""Task-key derivation: stable, collision-averse content hashes."""

from __future__ import annotations

from repro.runner import RunTask, task_key
from repro.workload import das_s_128, das_s_64, das_t_900

from .conftest import SERVICE, SIZES, small_config


def make_task(policy="GS", rho=0.4, sizes=SIZES, service=SERVICE, **kw):
    return RunTask(small_config(policy, **kw), sizes, service, rho)


class TestStability:
    def test_same_inputs_same_key(self):
        assert task_key(make_task()) == task_key(make_task())

    def test_key_is_sha256_hex(self):
        key = task_key(make_task())
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_fresh_distribution_instances_share_key(self):
        # The fingerprint hashes distribution *content*, not identity.
        a = RunTask(small_config(), das_s_128(), das_t_900(), 0.4)
        b = RunTask(small_config(), das_s_128(), das_t_900(), 0.4)
        assert task_key(a) == task_key(b)


class TestSensitivity:
    def test_differs_by_seed(self):
        assert task_key(make_task(seed=1)) != task_key(make_task(seed=2))

    def test_differs_by_utilization(self):
        assert task_key(make_task(rho=0.4)) != task_key(make_task(rho=0.5))

    def test_differs_by_policy(self):
        assert task_key(make_task("GS")) != task_key(make_task("LS"))

    def test_differs_by_run_length(self):
        assert (task_key(make_task(measured_jobs=400))
                != task_key(make_task(measured_jobs=800)))

    def test_differs_by_workload(self):
        assert (task_key(make_task(sizes=das_s_128()))
                != task_key(make_task(sizes=das_s_64())))

    def test_distinct_across_grid_and_seeds(self):
        # A realistic sweep's task keys are pairwise distinct.
        keys = {
            task_key(make_task(rho=rho, seed=seed))
            for rho in (0.2, 0.3, 0.4, 0.5)
            for seed in (1, 1001, 2001)
        }
        assert len(keys) == 12

    def test_describe_names_the_run(self):
        text = make_task("LS", rho=0.45, seed=9).describe()
        assert "LS" in text
        assert "seed=9" in text
        assert "0.45" in text


class TestPinnedKeys:
    """Literal keys: a scalar task's key must never move (every
    existing cache entry is addressed by it), and the backend is a
    hint that never reaches the key."""

    PINNED = {
        ("GS", 0.4): "f9573eba94e97c42006e31741de0e68d"
                     "7e14011780f5dd80a27bb30cb2b2c7bf",
        ("LS", 0.3): "50d1f6bff5fc4a6657b2f6b94e09ba81"
                     "cd679c3858a04a86585f18095d91824c",
        ("LP", 0.55): "64ba2abc78230558cd0d3caef4b7afb0"
                      "c7a59ca6b0d1615474dddd5256a840fd",
        ("SC", 0.5): "6f6ab5af4b5b9886175d9c9e7b25455f"
                     "33ecb5be3b9ff229aec1445d8a5c8209",
    }

    def test_scalar_keys_are_pinned(self):
        for (policy, rho), key in self.PINNED.items():
            assert task_key(make_task(policy, rho=rho)) == key, policy

    def test_backend_hint_never_reaches_the_key(self):
        for (policy, rho), key in self.PINNED.items():
            for backend in ("batch", "auto"):
                task = RunTask(small_config(policy), SIZES, SERVICE, rho,
                               backend=backend)
                assert task_key(task) == key, (policy, backend)
