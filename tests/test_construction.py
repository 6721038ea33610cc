"""Tests for the full decentralized construction process."""

import pytest

from repro._util import make_rng
from repro.core.construction import (
    ConstructionConfig,
    ConstructionPeer,
    _Construction,
    construct_overlay,
)
from repro.core.deviation import load_balance_deviation
from repro.core.reference import reference_partition
from repro.exceptions import ConstructionError, DomainError
from repro.workloads.datasets import flatten, workload_keys


@pytest.fixture(scope="module")
def uniform_run():
    pk = workload_keys("U", peers=128, keys_per_peer=10, seed=5)
    res = construct_overlay(pk, ConstructionConfig(n_min=5, d_max=50, seed=11))
    return pk, res


@pytest.fixture(scope="module")
def skewed_run():
    pk = workload_keys("P1.0", peers=128, keys_per_peer=10, seed=5)
    res = construct_overlay(pk, ConstructionConfig(n_min=5, d_max=50, seed=11))
    return pk, res


class TestStructuralInvariants:
    def test_storage_consistency(self, uniform_run):
        _, res = uniform_run
        assert res.storage_is_consistent()

    def test_routing_consistency(self, uniform_run):
        _, res = uniform_run
        assert res.routing_is_consistent()

    def test_no_keys_lost(self, uniform_run):
        pk, res = uniform_run
        assert res.undeliverable_keys == 0
        assert res.distinct_keys() == set(flatten(pk))

    def test_skewed_storage_and_routing(self, skewed_run):
        _, res = skewed_run
        assert res.storage_is_consistent()
        assert res.routing_is_consistent()
        assert res.undeliverable_keys == 0

    def test_every_peer_has_full_routing_depth(self, uniform_run):
        _, res = uniform_run
        # Every level of every peer's path must carry at least one ref
        # (referential integrity of the recursive bisections).
        for peer in res.peers:
            for level in range(peer.path.length):
                assert peer.routing.get(level), (
                    f"peer {peer.peer_id} missing refs at level {level}"
                )

    def test_outboxes_empty_after_construction(self, uniform_run):
        _, res = uniform_run
        assert all(not peer.outbox for peer in res.peers)

    def test_result_holds_plain_key_sets(self, skewed_run):
        # The engine's key bitmaps never leave it.
        _, res = skewed_run
        assert all(type(peer.keys) is set for peer in res.peers)
        assert all(type(peer.outbox) is set and not peer.outbox for peer in res.peers)
        assert all(type(key) is int for peer in res.peers for key in peer.keys)
        assert res.storage_is_consistent()


class TestLoadBalancing:
    def test_deviation_in_paper_band_uniform(self, uniform_run):
        pk, res = uniform_run
        ref = reference_partition(sorted(set(flatten(pk))), 128, d_max=50, n_min=5)
        dev = load_balance_deviation(res.paths, ref)
        assert dev < 0.8  # paper reports ~0.1-0.5

    def test_deviation_in_paper_band_skewed(self, skewed_run):
        pk, res = skewed_run
        ref = reference_partition(sorted(set(flatten(pk))), 128, d_max=50, n_min=5)
        dev = load_balance_deviation(res.paths, ref)
        assert dev < 1.0

    def test_skew_produces_deeper_tree(self, uniform_run, skewed_run):
        _, res_u = uniform_run
        _, res_p = skewed_run
        assert res_p.mean_path_length() > res_u.mean_path_length()

    def test_replication_factor_reasonable(self, uniform_run):
        _, res = uniform_run
        assert 2.0 <= res.replication_factor() <= 20.0


class TestCostAccounting:
    def test_interactions_positive_and_bounded(self, uniform_run):
        _, res = uniform_run
        assert 0 < res.bilateral_interactions <= res.interactions

    def test_bandwidth_includes_replication(self, uniform_run):
        _, res = uniform_run
        assert res.bandwidth_keys > res.replication_keys_moved > 0

    def test_rounds_bounded(self, uniform_run):
        _, res = uniform_run
        assert 0 < res.rounds < 400

    def test_per_peer_properties(self, uniform_run):
        _, res = uniform_run
        assert res.interactions_per_peer == pytest.approx(
            res.interactions / res.n
        )
        assert res.bandwidth_keys_per_peer == pytest.approx(
            res.bandwidth_keys / res.n
        )


class TestConfig:
    def test_default_d_max_derivation(self):
        cfg = ConstructionConfig(n_min=5)
        assert cfg.resolved_d_max() == 50.0
        cfg2 = ConstructionConfig(n_min=5, d_max=77)
        assert cfg2.resolved_d_max() == 77.0

    def test_validation_rejects_bad_values(self):
        with pytest.raises(DomainError):
            ConstructionConfig(n_min=0).validate()
        with pytest.raises(DomainError):
            ConstructionConfig(strategy="nope").validate()
        with pytest.raises(DomainError):
            ConstructionConfig(sample_size=0).validate()

    def test_rejects_tiny_population(self):
        with pytest.raises(ConstructionError):
            construct_overlay([[1]] * 4, ConstructionConfig(n_min=5))

    def test_deterministic_given_seed(self):
        pk = workload_keys("U", peers=32, keys_per_peer=10, seed=2)
        cfg = ConstructionConfig(n_min=3, d_max=30)
        a = construct_overlay(pk, cfg, rng=9)
        b = construct_overlay(pk, cfg, rng=9)
        assert [p.path for p in a.peers] == [p.path for p in b.peers]
        assert a.interactions == b.interactions


class TestStrategies:
    def test_heuristic_strategy_degrades_balance(self):
        pk = workload_keys("P1.0", peers=128, keys_per_peer=10, seed=5)
        ref = reference_partition(sorted(set(flatten(pk))), 128, d_max=50, n_min=5)
        devs = {}
        for strategy in ("theory", "heuristic"):
            runs = []
            for seed in range(3):
                res = construct_overlay(
                    pk, ConstructionConfig(n_min=5, d_max=50, strategy=strategy), rng=seed
                )
                runs.append(load_balance_deviation(res.paths, ref))
            devs[strategy] = sum(runs) / len(runs)
        # Fig. 6(d): the theoretically derived functions beat the straw-man.
        assert devs["theory"] < devs["heuristic"]

    def test_uncorrected_strategy_runs(self):
        pk = workload_keys("U", peers=64, keys_per_peer=10, seed=3)
        res = construct_overlay(
            pk, ConstructionConfig(n_min=5, d_max=50, strategy="uncorrected"), rng=1
        )
        assert res.storage_is_consistent()

    def test_sample_size_limits_estimation(self):
        pk = workload_keys("U", peers=64, keys_per_peer=10, seed=3)
        res = construct_overlay(
            pk, ConstructionConfig(n_min=5, d_max=50, sample_size=2), rng=1
        )
        assert res.storage_is_consistent()


def full_scan_referral(peers, initiator, partner):
    """The referral rule stated over the partner's *whole* routing table:
    the contact sharing the longest prefix with the initiator, beyond what
    the partner itself shares; ties go to the shorter path, then to the
    first found."""
    best = None
    best_cpl = initiator.path.common_prefix_length(partner.path)
    for refs in partner.routing.values():
        for ref in refs:
            if ref == initiator.peer_id:
                continue
            candidate = peers[ref]
            c = initiator.path.common_prefix_length(candidate.path)
            if c > best_cpl or (
                best is not None and c == best_cpl and candidate.path.length < best.path.length
            ):
                best, best_cpl = candidate, c
    return best


class _AuditedConstruction(_Construction):
    """Checks, while the process runs, what ``_refer``'s one-level scan
    rests on: routing entries always point into the complementary subtree
    (after every round), hence every referral equals the full-table scan."""

    refers = 0
    audited_round = 0

    def _interact(self, initiator, partner):
        if self.rounds != self.audited_round:  # first meeting of a new round
            self.audited_round = self.rounds
            assert self.result().routing_is_consistent()
        super()._interact(initiator, partner)

    def _refer(self, initiator, partner):
        best = super()._refer(initiator, partner)
        assert best is full_scan_referral(self.peers, initiator, partner)
        self.refers += 1
        return best


class TestReferral:
    @pytest.mark.parametrize("workload", ["U", "P1.0"])
    def test_one_level_scan_equals_full_table_scan(self, workload):
        pk = workload_keys(workload, peers=128, keys_per_peer=10, seed=5)
        peers = [ConstructionPeer(peer_id=i, keys=set(keys)) for i, keys in enumerate(pk)]
        state = _AuditedConstruction(peers, ConstructionConfig(), make_rng(11))
        state.replication_phase()
        state.frame_keys()
        state.run_rounds()
        state.flush_outboxes()
        result = state.result()
        assert result.routing_is_consistent()
        assert state.audited_round == result.rounds > 1
        assert state.refers == result.refer_meetings > 100
