"""Pinned job streams: the first jobs each engine derives from a seed.

Both engines read one job stream: :meth:`JobFactory.next_job` builds
:class:`~repro.workload.generator.JobSpec` values from it, and a
loaded :class:`~repro.sim.batch.BatchLaneKernel` lane turns it into
job tuples.  Each literal below is the sha256 of the ``repr`` of the
first ``N`` jobs — ``(size, components, service_time, queue, user)``
per spec, the lane tuple itself per kernel job — over both routing
mixes and both seeds of one (policy, size distribution, limit) case.
A change to any stream's draw order, chunking or derivation fails
here by case name, before a golden fixture notices.
"""

from hashlib import sha256

import pytest

from repro.core.system import SimulationConfig
from repro.sim.batch import BatchLaneKernel
from repro.sim.distributions import ContinuousEmpirical
from repro.sim.rng import StreamFactory
from repro.workload.distributions import das_s_64, das_s_128, das_t_900
from repro.workload.generator import JobFactory
from repro.workload.stats_model import BALANCED_WEIGHTS, UNBALANCED_WEIGHTS

N = 2_000
POLICIES = ("GS", "LS", "LP", "SC")
SIZES = {"das-s-128": das_s_128, "das-s-64": das_s_64}
LIMITS = (None, 16, 24, 32)
ROUTING = (BALANCED_WEIGHTS, UNBALANCED_WEIGHTS)
SEEDS = (1, 7)

CASES = [(policy, sizes, limit) for policy in POLICIES for sizes in SIZES
         for limit in LIMITS]


def case_id(case):
    policy, sizes, limit = case
    return f"{policy}-{sizes}-L{limit}"


def configs(policy, limit):
    """The case's configurations: both routing mixes x both seeds."""
    for weights in ROUTING:
        for seed in SEEDS:
            fields = dict(component_limit=limit, routing_weights=weights,
                          seed=seed)
            if policy == "SC":
                yield SimulationConfig.single_cluster(**fields)
            else:
                yield SimulationConfig(policy=policy, **fields)


def factory_for(config, sizes, service=None, **overrides):
    return JobFactory(
        sizes, service or das_t_900(), config.component_limit,
        clusters=len(config.capacities),
        extension_factor=config.extension_factor,
        routing_weights=config.routing_weights,
        streams=StreamFactory(config.seed), **overrides)


def spec_lines(factory):
    for _ in range(N):
        spec = factory.next_job()
        yield repr((spec.size, spec.components, spec.service_time,
                    spec.queue, spec.user))


def lane_lines(config, sizes):
    kernel = BatchLaneKernel(config, sizes, das_t_900(), 1)
    kernel.load(0, config, offered_gross=0.5)
    ((_, lane),) = kernel._order
    while len(lane.jobs) < N:
        kernel._next_chunk(lane)
    return map(repr, lane.jobs[:N])


def digest(lines):
    h = sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def scalar_digest(case):
    policy, sizes, limit = case
    return digest(line for config in configs(policy, limit)
                  for line in spec_lines(factory_for(config,
                                                     SIZES[sizes]())))


def kernel_digest(case):
    policy, sizes, limit = case
    return digest(line for config in configs(policy, limit)
                  for line in lane_lines(config, SIZES[sizes]()))


SCALAR_PINS = {
    "GS-das-s-128-LNone":
        "426073ca2097822984f92e9b968369d4e85f7fcb810d3074aa343280e469bda9",
    "GS-das-s-128-L16":
        "6b6c1c700dc75a1a2774a3a6f42e0c5aa7aa923c1bbe45ab62169e3ab2b5cbe5",
    "GS-das-s-128-L24":
        "d6ecb4db13cff7dc9cb7208b849c8d881367e22cc405ed6d6fca4f533074dc53",
    "GS-das-s-128-L32":
        "c1aa2591b597fd7bb82d66d8a229f78358e0e6fd7199bd42e68f040fb7363ceb",
    "GS-das-s-64-LNone":
        "1416f0e33918ddfd9f8094abaa6cbba400f23706deb5ce0a63db17bd59db47c3",
    "GS-das-s-64-L16":
        "ffbe54e29cf8d42ba898094a348b604159d61d726bc01b2378b1efa823bb7baa",
    "GS-das-s-64-L24":
        "88ff8bc75fc55a0a556cf74a19ff50f5b5293a28e6be2f6346bdb52882996c7b",
    "GS-das-s-64-L32":
        "7722c0be8f8ea2f11e041a78d72f5aa2d45a9ef4ce6b93a75344a16028cdb432",
    "LS-das-s-128-LNone":
        "426073ca2097822984f92e9b968369d4e85f7fcb810d3074aa343280e469bda9",
    "LS-das-s-128-L16":
        "6b6c1c700dc75a1a2774a3a6f42e0c5aa7aa923c1bbe45ab62169e3ab2b5cbe5",
    "LS-das-s-128-L24":
        "d6ecb4db13cff7dc9cb7208b849c8d881367e22cc405ed6d6fca4f533074dc53",
    "LS-das-s-128-L32":
        "c1aa2591b597fd7bb82d66d8a229f78358e0e6fd7199bd42e68f040fb7363ceb",
    "LS-das-s-64-LNone":
        "1416f0e33918ddfd9f8094abaa6cbba400f23706deb5ce0a63db17bd59db47c3",
    "LS-das-s-64-L16":
        "ffbe54e29cf8d42ba898094a348b604159d61d726bc01b2378b1efa823bb7baa",
    "LS-das-s-64-L24":
        "88ff8bc75fc55a0a556cf74a19ff50f5b5293a28e6be2f6346bdb52882996c7b",
    "LS-das-s-64-L32":
        "7722c0be8f8ea2f11e041a78d72f5aa2d45a9ef4ce6b93a75344a16028cdb432",
    "LP-das-s-128-LNone":
        "426073ca2097822984f92e9b968369d4e85f7fcb810d3074aa343280e469bda9",
    "LP-das-s-128-L16":
        "6b6c1c700dc75a1a2774a3a6f42e0c5aa7aa923c1bbe45ab62169e3ab2b5cbe5",
    "LP-das-s-128-L24":
        "d6ecb4db13cff7dc9cb7208b849c8d881367e22cc405ed6d6fca4f533074dc53",
    "LP-das-s-128-L32":
        "c1aa2591b597fd7bb82d66d8a229f78358e0e6fd7199bd42e68f040fb7363ceb",
    "LP-das-s-64-LNone":
        "1416f0e33918ddfd9f8094abaa6cbba400f23706deb5ce0a63db17bd59db47c3",
    "LP-das-s-64-L16":
        "ffbe54e29cf8d42ba898094a348b604159d61d726bc01b2378b1efa823bb7baa",
    "LP-das-s-64-L24":
        "88ff8bc75fc55a0a556cf74a19ff50f5b5293a28e6be2f6346bdb52882996c7b",
    "LP-das-s-64-L32":
        "7722c0be8f8ea2f11e041a78d72f5aa2d45a9ef4ce6b93a75344a16028cdb432",
    "SC-das-s-128-LNone":
        "426073ca2097822984f92e9b968369d4e85f7fcb810d3074aa343280e469bda9",
    "SC-das-s-128-L16":
        "426073ca2097822984f92e9b968369d4e85f7fcb810d3074aa343280e469bda9",
    "SC-das-s-128-L24":
        "426073ca2097822984f92e9b968369d4e85f7fcb810d3074aa343280e469bda9",
    "SC-das-s-128-L32":
        "426073ca2097822984f92e9b968369d4e85f7fcb810d3074aa343280e469bda9",
    "SC-das-s-64-LNone":
        "1416f0e33918ddfd9f8094abaa6cbba400f23706deb5ce0a63db17bd59db47c3",
    "SC-das-s-64-L16":
        "1416f0e33918ddfd9f8094abaa6cbba400f23706deb5ce0a63db17bd59db47c3",
    "SC-das-s-64-L24":
        "1416f0e33918ddfd9f8094abaa6cbba400f23706deb5ce0a63db17bd59db47c3",
    "SC-das-s-64-L32":
        "1416f0e33918ddfd9f8094abaa6cbba400f23706deb5ce0a63db17bd59db47c3",
}

KERNEL_PINS = {
    "GS-das-s-128-LNone":
        "5c82a1094f5b171c540337c8e2b45c5e9ef9e007e77c9a99913b73181a1492e8",
    "GS-das-s-128-L16":
        "8a332e107a9ff5bcc69d38ee06a8182db89d276a55a8138ac9bc40ed468bb6a7",
    "GS-das-s-128-L24":
        "61e7baec201f21e1b0f1a5032d738c5198c64f334d4aad1940d76822d7ae4686",
    "GS-das-s-128-L32":
        "897b323549c33f494e4e84197b5a72cc521f392c4ca304b61968c7c15041f638",
    "GS-das-s-64-LNone":
        "bb14215b69d72c1846dc0698aa68792ff1174ede2f3c1aa808f69d0c75eb6b87",
    "GS-das-s-64-L16":
        "be4e2604838fb3507985036ed1cb83e83ca5b7fa375c1fd3d7e5acc48b1bde4e",
    "GS-das-s-64-L24":
        "4b0151a2ae53f0d19d40d816a764e30c8e83b3ea0986811c92fc1f853b70eeef",
    "GS-das-s-64-L32":
        "50ce6d7eb606b32bb77ea6d71e4fec722ce4e2274c36a508c5fbec4a84af4c9d",
    "LS-das-s-128-LNone":
        "3f48488b5c25f821ade79eef0dae78fba7cf018b12f704dc12120b70ead8bddd",
    "LS-das-s-128-L16":
        "399425d1e3eff0d6ae9d14c59c1d035923a7d4db4a92f044390f90d1cb4ea371",
    "LS-das-s-128-L24":
        "9f9cc8bfc0f21aa6da1950c6145b37cc55d8ca1281b22bcac3c75fd07bf06de5",
    "LS-das-s-128-L32":
        "c49c54525b4cff64c9ce3920fd13f71b546c736f7379a8828b799f37d6e5fbf4",
    "LS-das-s-64-LNone":
        "e1478e9f5376da5816af17c1fc50b1e62cf230aec9d911f53950d40218d9b293",
    "LS-das-s-64-L16":
        "2460f03a31fc376a83eb9339401d78cbd74a1889a2bdf0f5c1a80f154d05bc00",
    "LS-das-s-64-L24":
        "aed2726881152fb286de3a5535f20598d448d01cbfe162a125d3ef753c3c1e4a",
    "LS-das-s-64-L32":
        "df5723ca864868f0a7e68e5dd0e76988b6810916f622ac55451d516fe8709fae",
    "LP-das-s-128-LNone":
        "4be9f9784d4dd2b0f361ec9685cd0958ba106aed1555db81e5a31fe4e96a37f8",
    "LP-das-s-128-L16":
        "462991348edff4ab2115aaad5fd5c061b319df91a717d37ac85cdf134575fb21",
    "LP-das-s-128-L24":
        "6f019b129557807a60497138e7f6eb964b94192451c45948fd1afadcbe1f90f5",
    "LP-das-s-128-L32":
        "aa6de3fa4248d0fa3a247ed2862023ae5978972945525db2f1efa659aeb6855c",
    "LP-das-s-64-LNone":
        "fe3c2e82f17826d659efab47024cb8be7b594597ea1d24947db943af012e703e",
    "LP-das-s-64-L16":
        "22e311171ab8edf6119ec89bf5892359769a1494f4f49cd16421a7c21f39d8a7",
    "LP-das-s-64-L24":
        "de1bd72c1609c8a50648bd691976d9da917988737c1a76cd68064eaa7e765a42",
    "LP-das-s-64-L32":
        "5ec87ef14a7427a51bc3cf7274fa8b874e828fda8f26fc7a2b22b6d91803b589",
    "SC-das-s-128-LNone":
        "5c82a1094f5b171c540337c8e2b45c5e9ef9e007e77c9a99913b73181a1492e8",
    "SC-das-s-128-L16":
        "5c82a1094f5b171c540337c8e2b45c5e9ef9e007e77c9a99913b73181a1492e8",
    "SC-das-s-128-L24":
        "5c82a1094f5b171c540337c8e2b45c5e9ef9e007e77c9a99913b73181a1492e8",
    "SC-das-s-128-L32":
        "5c82a1094f5b171c540337c8e2b45c5e9ef9e007e77c9a99913b73181a1492e8",
    "SC-das-s-64-LNone":
        "bb14215b69d72c1846dc0698aa68792ff1174ede2f3c1aa808f69d0c75eb6b87",
    "SC-das-s-64-L16":
        "bb14215b69d72c1846dc0698aa68792ff1174ede2f3c1aa808f69d0c75eb6b87",
    "SC-das-s-64-L24":
        "bb14215b69d72c1846dc0698aa68792ff1174ede2f3c1aa808f69d0c75eb6b87",
    "SC-das-s-64-L32":
        "bb14215b69d72c1846dc0698aa68792ff1174ede2f3c1aa808f69d0c75eb6b87",
}

#: A continuous size distribution: sizes truncate to integers, and the
#: per-size tables fill lazily for whatever sizes the stream draws.
CONTINUOUS_PIN = (
    "d676d7d467ba9c57c1a627050ec470178175d5f6571b013a1bb70c01a72c1b3a")

#: The user model's own stream, drawn per job alongside the others.
USERS_PIN = (
    "36b8807b276ee702407451971c899e10304b5cbd6062fedb50ac6ddbb3a042cd")


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_job_factory_stream_is_pinned(case):
    assert scalar_digest(case) == SCALAR_PINS[case_id(case)]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_kernel_lane_stream_is_pinned(case):
    assert kernel_digest(case) == KERNEL_PINS[case_id(case)]


def continuous_digest():
    sizes = ContinuousEmpirical([1.0, 8.0, 32.0, 64.0, 128.0],
                                [4.0, 3.0, 2.0, 1.0])
    config = SimulationConfig(policy="LS", component_limit=16, seed=3)
    return digest(spec_lines(factory_for(config, sizes)))


def users_digest():
    config = SimulationConfig(policy="LP", component_limit=16,
                              routing_weights=UNBALANCED_WEIGHTS, seed=7)
    return digest(spec_lines(factory_for(config, das_s_128(),
                                         num_users=20)))


def test_continuous_size_stream_is_pinned():
    assert continuous_digest() == CONTINUOUS_PIN


def test_user_model_stream_is_pinned():
    assert users_digest() == USERS_PIN
