import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import TEST_CHAIN, make_profile
from evmon.model import (
    WEI_PER_GWEI,
    ChainRef,
    FeeQuantity,
    GasQuantity,
    InvalidProfile,
    MetricKind,
    MetricSample,
    NetworkProfile,
    PriorityPolicy,
    SummaryStats,
)


def test_validate_rejects_zero_override_limit():
    with pytest.raises(ValueError):
        # a negative cap is rejected by GasQuantity construction already
        GasQuantity(-1)
    with pytest.raises(InvalidProfile):
        NetworkProfile(
            chain=TEST_CHAIN,
            rpc_url="http://node:8545",
            limit_override=GasQuantity(0),
        )


def test_validate_accepts_plain_profile():
    profile = NetworkProfile(
        chain=TEST_CHAIN,
        rpc_url="http://node:8545",
        poll_interval_ms=1000,
        limit_override=None,
        priority_policy=PriorityPolicy.INCLUDE,
    )
    assert profile.limit_override is None
    assert profile.chain == TEST_CHAIN


def test_construction_and_replace_keep_every_field():
    kwargs = {
        "chain": ChainRef("rollup", 42161),
        "rpc_url": "http://node:8545",
        "poll_interval_ms": 250,
        "limit_override": GasQuantity(32_000_000),
        "priority_policy": PriorityPolicy.EXCLUDE,
        "constant_base_fee_expected": True,
        "base_fee_tolerance_wei": 7,
    }
    assert set(kwargs) == {field.name for field in dataclasses.fields(NetworkProfile)}
    profile = NetworkProfile(**kwargs)
    replaced = dataclasses.replace(profile)
    for field in dataclasses.fields(NetworkProfile):
        # a default left in place would not show a field that was dropped
        assert kwargs[field.name] != field.default
        assert getattr(profile, field.name) == getattr(replaced, field.name) == kwargs[field.name]


@pytest.mark.parametrize("change", [
    {"poll_interval_ms": -5},
    {"chain": ChainRef("../escape", 1)},
    {"limit_override": GasQuantity(0)},
    {"base_fee_tolerance_wei": -1},
    {"rpc_url": "ws://node:8546"},
], ids=["poll_interval_negative", "chain_name_escapes", "override_zero", "tolerance_negative",
        "endpoint_not_http"])
def test_a_replaced_profile_is_checked_again(change):
    """A profile made by dataclasses.replace is checked like any other,
    so a chain name that would write outside output_dir never builds."""
    with pytest.raises(InvalidProfile):
        dataclasses.replace(make_profile(), **change)


def test_validate_accepts_override_exclude_combination():
    # rollup-style: enforced limit below the reported one, priority refunded
    profile = make_profile(
        limit_override=GasQuantity(32_000_000),
        priority_policy=PriorityPolicy.EXCLUDE,
    )
    assert profile.limit_override == GasQuantity(32_000_000)
    assert profile.priority_policy is PriorityPolicy.EXCLUDE


@pytest.mark.parametrize(
    "chain,rpc_url,poll_ms",
    [
        (ChainRef("", 1), "http://x", 1000),
        (ChainRef("a/b", 1), "http://x", 1000),
        (ChainRef("ok", 0), "http://x", 1000),
        (ChainRef("ok", 1), "not-a-url", 1000),
        (ChainRef("ok", 1), "http://x", 0),
        (ChainRef("ok", 1), "ws://127.0.0.1:8546", 1000),
        (ChainRef("ok", 1), "ftp://x", 1000),
        (ChainRef("ok", 1), "http://", 1000),
        (ChainRef("ok", 1), "wss://node", 1000),
        (ChainRef("ok", 1), "http://node:port", 1000),
        (ChainRef("ok", 1), "http://exa mple.com", 1000),
        (ChainRef("ok", 1), "http://ex\x7fample.com", 1000),
        (ChainRef("ok", 1), "http://ho\tst.com", 1000),
        (ChainRef("ok", 1), "http://node\r\n.com:8545", 1000),
        (ChainRef("ok", 1), "http://node/rpc path", 1000),
        (ChainRef("ok", 1), "http://node:8545\n", 1000),
        (ChainRef("ok", 1), "http://node\x00", 1000),
        (ChainRef("ok", 1), "http://node\u2003.com", 1000),
    ],
)
def test_validate_rejects_bad_fields(chain, rpc_url, poll_ms):
    with pytest.raises(InvalidProfile):
        NetworkProfile(chain=chain, rpc_url=rpc_url, poll_interval_ms=poll_ms)


@pytest.mark.parametrize("rpc_url", ["http://node:8545", "HTTPS://user:pw@node.example/rpc?key=1",
                                     "http://[::1]:8545"])
def test_validate_accepts_http_endpoints(rpc_url):
    NetworkProfile(chain=ChainRef("ok", 1), rpc_url=rpc_url)


def test_gas_quantity_rejects_negative():
    with pytest.raises(ValueError):
        GasQuantity(-1)


def test_fee_display_in_gwei():
    assert FeeQuantity(10**7).gwei == 0.01
    assert FeeQuantity(1_645_000_000).gwei == 1.645
    assert FeeQuantity(0).gwei == 0.0


@given(st.integers(min_value=0, max_value=10**6))
def test_gwei_round_trip_lossless_for_whole_gwei(gwei_int):
    fee = FeeQuantity(gwei_int * WEI_PER_GWEI)
    assert fee.gwei == gwei_int
    assert round(fee.gwei * WEI_PER_GWEI) == fee.value_wei


@given(st.integers(min_value=0, max_value=10**15))
def test_gwei_round_trip_within_one_wei(wei):
    fee = FeeQuantity(wei)
    assert abs(round(fee.gwei * WEI_PER_GWEI) - wei) <= 1


def test_metric_sample_rejects_nonfinite_and_negative():
    with pytest.raises(ValueError):
        MetricSample(TEST_CHAIN, 0, 0, MetricKind.GAS_PRICE_GWEI, float("nan"))
    with pytest.raises(ValueError):
        MetricSample(TEST_CHAIN, 0, 0, MetricKind.GAS_PRICE_GWEI, float("inf"))
    with pytest.raises(ValueError):
        MetricSample(TEST_CHAIN, 0, 0, MetricKind.GAS_PRICE_GWEI, -0.5)


def test_summary_stats_enforces_ordering():
    with pytest.raises(ValueError):
        SummaryStats(count=3, median=2.0, q1=3.0, q3=1.0, iqr=-2.0, min=0.0, max=4.0)
    with pytest.raises(ValueError):
        SummaryStats(count=3, median=2.0, q1=1.0, q3=3.0, iqr=1.0, min=0.0, max=4.0)
    stats = SummaryStats(count=3, median=2.0, q1=1.0, q3=3.0, iqr=2.0, min=0.0, max=4.0)
    assert stats.iqr == stats.q3 - stats.q1


_PICKLE_CHAIN = """
import pickle, sys
from evmon.model import ChainRef
sys.stdout.buffer.write(pickle.dumps(ChainRef("arbitrum_like", 42161)))
"""

_LOOK_UP_CHAIN = """
import pickle, sys
from evmon.model import ChainRef
chain = pickle.loads(sys.stdin.buffer.read())
print({ChainRef("arbitrum_like", 42161): "found"}.get(chain, "missing"), hash(chain))
"""


def test_a_pickled_chain_ref_hashes_anew_where_it_is_loaded():
    """A str hashes differently under another PYTHONHASHSEED, so a hash
    cached in one process must not travel in a pickle to another."""
    src = str(Path(__file__).resolve().parent.parent / "src")

    def run(code, seed, data=None):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        return subprocess.run([sys.executable, "-c", code], input=data, env=env,
                              capture_output=True, check=True, timeout=60).stdout

    found, loaded_hash = run(_LOOK_UP_CHAIN, 2, run(_PICKLE_CHAIN, 1)).decode().split()
    assert found == "found"
    assert loaded_hash != run("print(hash(('arbitrum_like', 42161)))", 1).decode().strip()


def test_a_chain_ref_is_the_tuple_of_its_fields():
    """ChainRef hashes and compares as the tuple (name, chain_id), in C:
    each dict lookup by chain makes no Python call."""
    chain = ChainRef("arbitrum_like", 42161)
    assert chain == ("arbitrum_like", 42161)
    assert hash(chain) == hash(("arbitrum_like", 42161))
    assert type(chain).__hash__ is tuple.__hash__
    assert (chain.name, chain.chain_id) == ("arbitrum_like", 42161)


@pytest.mark.parametrize("build", [
    lambda: GasQuantity(value=-1),
    lambda: dataclasses.replace(GasQuantity(1), value=-1),
    lambda: FeeQuantity(value_wei=-1),
    lambda: dataclasses.replace(FeeQuantity(1), value_wei=-1),
    lambda: MetricSample(chain=TEST_CHAIN, block_number=0, timestamp=0,
                         kind=MetricKind.BLOCK_USAGE_RATIO, value=float("nan")),
    lambda: dataclasses.replace(
        MetricSample(TEST_CHAIN, 0, 0, MetricKind.BLOCK_USAGE_RATIO, 0.5), value=-0.5),
], ids=["gas_keyword", "gas_replace", "fee_keyword", "fee_replace", "sample_keyword",
        "sample_replace"])
def test_a_value_is_checked_however_it_is_built(build):
    with pytest.raises(ValueError):
        build()
