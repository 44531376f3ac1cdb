import hashlib
import json
import random
import re
import sys
from math import comb

import pytest

from aesdfa import dfa, orchestrator
from aesdfa.aes import encrypt_block, expand_key
from aesdfa.orchestrator import recover_key, verify_key
from simhelpers import fault_campaign

KEY = bytes.fromhex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
PT = bytes.fromhex("00112233445566778899aabbccddeeff")
CLEAN = encrypt_block(PT, expand_key(KEY))


class TestVerifyKey:
    def test_matching_triple(self):
        assert verify_key(KEY, PT, CLEAN)

    def test_flipped_bit_fails(self):
        bad = bytearray(KEY)
        bad[0] ^= 1
        assert not verify_key(bytes(bad), PT, CLEAN)


class TestPairwise:
    def test_recovers_key(self):
        rng = random.Random(101)
        clean, r2, r3 = fault_campaign(KEY, PT, rng, n_r2=10, n_r3=10)
        report = recover_key(clean, r2, r3, PT, mode="pairwise")
        assert report.recovered_key == KEY
        assert report.round_keys["last"] == expand_key(KEY).round_keys[14]
        assert report.round_keys["penultimate"] == expand_key(KEY).round_keys[13]
        assert report.groupings_attempted["last_round"] <= comb(10, 2)
        assert report.groupings_attempted["penultimate"] <= comb(10, 2)
        assert report.failure is None
        # the winning pair of each stage, and nothing else, is flagged
        assert sum(report.usable_last_round) == sum(report.usable_earlier_round) == 2

    def test_mixed_campaign_filters_multibyte(self):
        rng = random.Random(102)
        clean, r2, r3 = fault_campaign(KEY, PT, rng, n_r2=5, n_r3=3, multi_byte_r2=5)
        report = recover_key(clean, r2, r3, PT, mode="pairwise")
        assert report.recovered_key == KEY
        assert report.groupings_attempted["last_round"] <= comb(10, 2)
        # the spread faults never end up flagged as part of the winning grouping
        assert not any(report.usable_last_round[:5])

    def test_only_multibyte_exhausts(self):
        rng = random.Random(103)
        clean, r2, r3 = fault_campaign(KEY, PT, rng, n_r2=0, n_r3=2, multi_byte_r2=4)
        report = recover_key(clean, r2, r3, PT, mode="pairwise")
        assert report.recovered_key is None
        assert report.failure is not None
        assert report.groupings_attempted["last_round"] == comb(4, 2)

    def test_result_independent_of_input_order(self):
        rng = random.Random(104)
        clean, r2, r3 = fault_campaign(KEY, PT, rng, n_r2=4, n_r3=4)
        forward = recover_key(clean, r2, r3, PT, mode="pairwise")
        backward = recover_key(clean, r2[::-1], r3[::-1], PT, mode="pairwise")
        assert forward.recovered_key == backward.recovered_key == KEY

    def test_grouping_budget(self):
        rng = random.Random(105)
        clean, r2, r3 = fault_campaign(KEY, PT, rng, n_r2=0, n_r3=2, multi_byte_r2=6)
        report = recover_key(clean, r2, r3, PT, mode="pairwise", max_groupings=5)
        assert report.recovered_key is None
        assert report.failure == "grouping budget of 5 exhausted in stage last_round"
        assert report.total_groupings <= 5


class TestSecondOrder:
    def test_static_masked_campaign(self):
        rng = random.Random(111)
        z = bytearray(16)
        z[3], z[9] = 0x41, 0x07
        clean, r2, r3 = fault_campaign(
            KEY, PT, rng, n_r2=5, n_r3=5, static_mask=bytes(z), pinned_pos=0
        )
        report = recover_key(clean, r2, r3, PT, mode="second_order")
        assert report.recovered_key == KEY
        assert report.groupings_attempted["last_round"] <= 3 * comb(5, 3)
        assert report.groupings_attempted["penultimate"] <= 3 * comb(5, 3)
        # a faulty reference is flagged with its pair
        assert sum(report.usable_last_round) == sum(report.usable_earlier_round) == 3

    def test_pairwise_fails_on_static_masked_campaign(self):
        rng = random.Random(111)
        z = bytearray(16)
        z[3], z[9] = 0x41, 0x07
        clean, r2, r3 = fault_campaign(
            KEY, PT, rng, n_r2=5, n_r3=5, static_mask=bytes(z), pinned_pos=0
        )
        report = recover_key(clean, r2, r3, PT, mode="pairwise")
        assert report.recovered_key is None

    def test_zero_static_equals_pairwise(self):
        # with no static corruption and one glitch site, both searches
        # converge on the same verified key
        rng = random.Random(112)
        clean, r2, r3 = fault_campaign(KEY, PT, rng, n_r2=4, n_r3=4, pinned_pos=7)
        pairwise = recover_key(clean, r2, r3, PT, mode="pairwise")
        second = recover_key(clean, r2, r3, PT, mode="second_order")
        assert pairwise.recovered_key == second.recovered_key == KEY


class TestSearch:
    # three good r2 faults solve every pair to the same last round key;
    # random r3 blocks never solve the second stage
    def _dead_second_stage(self):
        rng = random.Random(161)
        clean, r2, _ = fault_campaign(KEY, PT, rng, n_r2=3, n_r3=0)
        return clean, r2, [rng.randbytes(16) for _ in range(3)]

    def test_repeated_last_round_key_searched_once(self):
        clean, r2, r3 = self._dead_second_stage()
        report = recover_key(clean, r2, r3, PT, mode="pairwise")
        assert report.recovered_key is None
        assert report.groupings_attempted == {"last_round": 3, "penultimate": 3}
        assert report.failure == "stage penultimate exhausted after 3 groupings"

    def test_budget_trips_in_penultimate_stage(self):
        clean, r2, r3 = self._dead_second_stage()
        report = recover_key(clean, r2, r3, PT, mode="pairwise", max_groupings=2)
        assert report.groupings_attempted == {"last_round": 1, "penultimate": 1}
        assert report.failure == "grouping budget of 2 exhausted in stage penultimate"

    def test_second_order_names_too_few_distinct_faults(self):
        # the round-11 pool repeats one of its 2 ciphertexts: every triple
        # has a duplicate, so the penultimate stage cannot solve
        rng = random.Random(163)
        clean, r2, r3 = fault_campaign(KEY, PT, rng, n_r2=3, n_r3=2, pinned_pos=4)
        report = recover_key(clean, r2, [*r3, r3[0]], PT, mode="second_order")
        assert report.recovered_key is None
        assert report.failure == (
            "stage penultimate exhausted after 3 groupings: "
            "second order needs 3 distinct faulty ciphertexts, got 2"
        )

    @pytest.mark.parametrize("key_size", [128, 256])
    def test_unverified_key_is_never_reported(self, key_size):
        # the groupings solve from ciphertexts alone; a wrong plaintext
        # makes every assembled key fail verification
        rng = random.Random(162)
        key = rng.randbytes(key_size // 8)
        clean, r2, r3 = fault_campaign(key, PT, rng, n_r2=3, n_r3=3)
        report = recover_key(clean, r2, r3, bytes(16), key_size=key_size, mode="pairwise")
        assert report.recovered_key is None
        assert report.groupings_succeeded == 0
        assert not any(report.usable_last_round + report.usable_earlier_round)


def counting_verify(monkeypatch):
    calls = []

    def verify(key, pt, clean_ct):
        calls.append(key)
        return verify_key(key, pt, clean_ct)

    monkeypatch.setattr(orchestrator, "verify_key", verify)
    return calls


class TestSmallProducts:
    # two faults per stage; these seeds leave one group with 2 tuples in
    # the stage named, and the other stage pinned
    @pytest.mark.parametrize("seed, stage", [(27, "last_round"), (17, "penultimate")])
    def test_two_tuple_group_is_recovered(self, monkeypatch, seed, stage):
        clean, r2, r3 = fault_campaign(KEY, PT, random.Random(seed), n_r2=2, n_r3=2)
        verified = counting_verify(monkeypatch)
        report = recover_key(clean, r2, r3, PT, mode="pairwise")
        assert report.recovered_key == KEY
        assert report.groupings_attempted[stage] == 1
        assert 1 <= len(verified) <= 2
        assert report.usable_last_round == report.usable_earlier_round == [True, True]

    def test_large_product_is_never_enumerated(self, monkeypatch):
        clean, r2, r3 = fault_campaign(KEY, PT, random.Random(342), n_r2=2, n_r3=2)
        sizes = [len(col.tuples) for col in dfa.last_round_key(clean, r2).candidates]
        assert sizes == [1, 1, 1, 1248]
        verified = counting_verify(monkeypatch)
        report = recover_key(clean, r2, r3, PT, mode="pairwise")
        assert report.recovered_key is None
        assert verified == []
        assert report.failure == "stage last_round exhausted after 1 groupings"


class TestMemo:
    def test_interleaved_searches_match_fresh_ones(self):
        campaigns = [fault_campaign(KEY, PT, random.Random(seed), n_r2=4, n_r3=4) for seed in (171, 172)]
        # the swapped pools solve nothing, so that search runs every grouping of both modes
        campaigns.append((campaigns[0][0], campaigns[0][2], campaigns[0][1]))
        fresh = [recover_key(*c, PT).to_json() for c in campaigns]
        interleaved = [recover_key(*c, PT).to_json() for c in campaigns * 2]
        assert interleaved == fresh * 2

    def test_one_memo_per_search_and_none_survives(self, monkeypatch):
        memos = []

        def recording(solve):
            def wrapper(*args, memo, **kwargs):
                memos.append(memo)
                return solve(*args, memo=memo, **kwargs)

            return wrapper

        for name in ("last_round_key", "penultimate_round_key"):
            monkeypatch.setattr(orchestrator, name, recording(getattr(dfa, name)))
        clean, r2, r3 = fault_campaign(KEY, PT, random.Random(173), n_r2=4, n_r3=4)
        for _ in range(2):
            assert recover_key(clean, r2, r3, PT, mode="pairwise").recovered_key == KEY
        first, second = memos[0], memos[-1]
        assert first is not second
        assert all(m is first for m in memos[: memos.index(second)])
        assert len(first) > 0
        del memos
        # only `first` and getrefcount's own argument hold it now
        assert sys.getrefcount(first) == 2


class TestRecoverKey:
    def test_auto_uses_pairwise_first(self):
        rng = random.Random(121)
        clean, r2, r3 = fault_campaign(KEY, PT, rng, n_r2=3, n_r3=3)
        report = recover_key(clean, r2, r3, PT, mode="auto")
        assert report.recovered_key == KEY
        assert report.mode == "auto:pairwise"

    def test_auto_falls_back_to_second_order(self):
        rng = random.Random(122)
        z = bytearray(16)
        z[5] = 0x80
        clean, r2, r3 = fault_campaign(
            KEY, PT, rng, n_r2=4, n_r3=4, static_mask=bytes(z), pinned_pos=2
        )
        report = recover_key(clean, r2, r3, PT, mode="auto")
        assert report.recovered_key == KEY
        assert report.mode == "auto:second_order"

    def test_aes128_single_stage(self):
        rng = random.Random(123)
        key128 = bytes(rng.randrange(256) for _ in range(16))
        clean, r2, _ = fault_campaign(key128, PT, rng, n_r2=3, n_r3=0)
        report = recover_key(clean, r2, [], PT, key_size=128)
        assert report.recovered_key == key128
        assert list(report.round_keys) == ["last"]

    def test_swapped_pools_fail(self):
        rng = random.Random(124)
        clean, r2, r3 = fault_campaign(KEY, PT, rng, n_r2=3, n_r3=3)
        report = recover_key(clean, r3, r2, PT, mode="pairwise")
        assert report.recovered_key is None

    def test_preconditions(self):
        with pytest.raises(ValueError, match="no last-round"):
            recover_key(CLEAN, [], [CLEAN], PT)
        with pytest.raises(ValueError, match="second stage"):
            recover_key(CLEAN, [CLEAN], [], PT)
        with pytest.raises(ValueError, match="mode"):
            recover_key(CLEAN, [CLEAN], [CLEAN], PT, mode="bogus")
        with pytest.raises(ValueError, match="key_size"):
            recover_key(CLEAN, [CLEAN], [CLEAN], PT, key_size=512)
        for budget in (0, -5):
            with pytest.raises(ValueError, match=f"^max_groupings must be at least 1, got {budget}$"):
                recover_key(CLEAN, [CLEAN], [CLEAN], PT, max_groupings=budget)

    @pytest.mark.parametrize("length", [15, 17])
    @pytest.mark.parametrize("name, index", [("clean_ct", None), ("pt", None), ("r2_cts", 1), ("r3_cts", 0)])
    def test_block_length_is_checked_before_the_search(self, monkeypatch, name, index, length):
        # a 15-byte plaintext used to end as "stage last_round exhausted"
        clean, r2, r3 = fault_campaign(KEY, PT, random.Random(121), n_r2=3, n_r3=3)
        args = {"clean_ct": clean, "pt": PT, "r2_cts": list(r2), "r3_cts": list(r3)}
        odd = (PT + PT)[:length]
        if index is None:
            args[name], label = odd, name
        else:
            args[name][index], label = odd, f"{name}[{index}]"
        monkeypatch.setattr(orchestrator, "_run_attack", lambda *a: pytest.fail("the search started"))
        with pytest.raises(ValueError, match=rf"^{re.escape(label)} must be 16 bytes, got {length}$"):
            recover_key(**args)

    def test_search_stops_at_the_first_verified_key(self, monkeypatch):
        rng = random.Random(141)
        clean, r2, r3 = fault_campaign(KEY, PT, rng, n_r2=3, n_r3=3)
        verified = counting_verify(monkeypatch)
        report = recover_key(clean, r2, r3, PT, mode="pairwise")
        assert report.recovered_key == KEY
        assert report.groupings_succeeded == 1
        assert verified[-1] == KEY and verified.count(KEY) == 1


class TestReport:
    def test_json_shape(self):
        rng = random.Random(131)
        clean, r2, r3 = fault_campaign(KEY, PT, rng, n_r2=3, n_r3=3)
        report = recover_key(clean, r2, r3, PT)
        data = json.loads(report.to_json())
        assert data["recovered_key"] == KEY.hex()
        assert set(data["round_keys"]) == {"last", "penultimate"}
        assert "wall_time" not in data

    def test_key_presence_implies_verification(self):
        rng = random.Random(132)
        clean, r2, r3 = fault_campaign(KEY, PT, rng, n_r2=3, n_r3=3)
        report = recover_key(clean, r2, r3, PT)
        assert report.recovered_key is not None
        assert verify_key(report.recovered_key, PT, clean)


class TestCampaignPipeline:
    def _campaign_records(self, static_mask):
        from aesdfa.campaign import CampaignConfig, MaskRule, OffsetBehavior, generate_campaign
        from aesdfa.aes import AesOp, StepId

        cfg = CampaignConfig(
            key=KEY,
            plaintext=PT,
            samples=24,
            offsets={
                271.5: OffsetBehavior(((StepId(12, AesOp.MIX_COLUMNS), MaskRule(bits=2, byte=0), 1.0),)),
                272.25: OffsetBehavior(((StepId(11, AesOp.MIX_COLUMNS), MaskRule(bits=2, byte=0), 1.0),)),
            },
            fault_rate=0.8,
            static_mask=static_mask,
            seed=42,
        )
        return generate_campaign(cfg)

    def _attack(self, records):
        clean = next(r for r in records if r.offset_n is None)
        r2 = [r.ciphertext for r in records if r.faulted and r.offset_n == 271.5]
        r3 = [r.ciphertext for r in records if r.faulted and r.offset_n == 272.25]
        return recover_key(clean.ciphertext, r2, r3, clean.plaintext, mode="second_order")

    def test_same_seed_with_and_without_static_mask(self):
        z = bytearray(16)
        z[2], z[9] = 0x11, 0x80
        plain_records = self._campaign_records(None)
        masked_records = self._campaign_records(bytes(z))
        # sample-aligned campaigns whose glitched outputs all differ
        plain_cts = [r.ciphertext for r in plain_records[1:]]
        masked_cts = [r.ciphertext for r in masked_records[1:]]
        assert all(a != b for a, b in zip(plain_cts, masked_cts))
        first = self._attack(plain_records)
        second = self._attack(masked_records)
        assert first.recovered_key == second.recovered_key == KEY


class TestAes192:
    def test_two_stage_recovery(self):
        rng = random.Random(151)
        key192 = bytes(rng.randrange(256) for _ in range(24))
        clean, r2, r3 = fault_campaign(key192, PT, rng, n_r2=3, n_r3=3)
        report = recover_key(clean, r2, r3, PT, key_size=192, mode="pairwise")
        assert report.recovered_key == key192


def pinned_search(case):
    """(recover_key arguments, keyword arguments) of one pinned search, by name."""
    kind, key_size, mode = case.split("/")
    key_size = int(key_size)
    rng = random.Random(case)
    key = rng.randbytes(key_size // 8)
    n_r3 = 0 if key_size == 128 else 4
    kwargs = {"key_size": key_size, "mode": mode}
    if kind == "static":
        # a shared corruption at one glitch site: pairwise dies, second order solves
        z = bytearray(16)
        for pos in rng.sample(range(16), 3):
            z[pos] = rng.randrange(1, 256)
        pools = fault_campaign(key, PT, rng, n_r2=4, n_r3=n_r3, static_mask=bytes(z), pinned_pos=rng.randrange(16))
    elif kind == "mixed":
        # spread faults first, then 2 or 3 single-byte ones per stage
        pools = fault_campaign(key, PT, rng, n_r2=3, n_r3=min(n_r3, 2), multi_byte_r2=3)
    elif kind.startswith("small"):
        # seed 27 leaves 2 tuples in a last-round group, seed 17 in a penultimate one
        pools = fault_campaign(KEY, PT, random.Random(int(kind.removeprefix("small"))), n_r2=2, n_r3=2)
    elif kind == "deadpen":
        # every last-round pair pins the key, and no penultimate grouping solves
        clean, r2, _ = fault_campaign(key, PT, rng, n_r2=3, n_r3=0, pinned_pos=rng.randrange(16))
        pools = clean, r2, [rng.randbytes(16) for _ in range(4)]
    else:
        # no valid grouping: the search exhausts, or its budget runs out
        junk = [rng.randbytes(16) for _ in range(10)]
        pools = encrypt_block(PT, expand_key(key)), junk[:7], junk[7:] if key_size != 128 else []
        if kind == "budget":
            kwargs["max_groupings"] = 15
    return (*pools, PT), kwargs


# SHA-256 of recover_key(...).to_json(), taken from the solver that enumerated
# every faulty ciphertext and intersected the sets
REPORT_DIGESTS = {
    "mixed/128/pairwise": "3eceff04f51eadd7698dd90317765dde9ede36f7a23298c17c1f395133ccb473",
    "mixed/128/auto": "7b1ff6f2ff76b3308e83f7ef3a9fcd6aec2e5107da84915f3f8cea1eeb51c072",
    "mixed/128/second_order": "f660220c71a0ceb0e486596b040be837259e2db204f2987d09d7e824a0202465",
    "static/128/second_order": "2476cd8d6b48f133a9e2212601f8a785c6ce330c51ae051c18472313f1e9e31f",
    "static/128/auto": "a0de1d9d06a41706e556f54ff72ce190954b81a8d63b979d7cdef9ac16e7178d",
    "mixed/192/pairwise": "d2325dcb614acecb5c675db46bf7be2b7c317ae3ef8981851e0cb310e4ad7bdd",
    "mixed/192/auto": "5f2b34ba7d208d1cca443e01c3f579cf4bcfb3dc251460dcfe3bf527a6a5b2e0",
    "mixed/192/second_order": "251773808dead287554b58cb04db83400e0b8475a7f77a57e8e2d4339dc499b3",
    "static/192/second_order": "7ff1bfb7d69d6254020d6024afe82735bac100ef9feceaf4419486041f866dc9",
    "static/192/auto": "208cea500797dfacea732e90dbad76e9cdc5022066f5bf81f12d68e53c0d0055",
    "mixed/256/pairwise": "9252bf654fd53101b053c2d600ca2bd756c8f434624b2feb53f661d97aeea4b9",
    "mixed/256/auto": "f99105547762a42bdecb9194366b8efdb69db45bb8320d232e9a171ae0483718",
    "mixed/256/second_order": "251773808dead287554b58cb04db83400e0b8475a7f77a57e8e2d4339dc499b3",
    "static/256/second_order": "a97d74b172c51ab525009b629b9a13b05e52d5606d9893714f7225cb1be1a4f9",
    "static/256/auto": "25fd1d4c3b770dcd9f80a215cb5e096e185f90df668c8a0b898834989e7fc7f3",
    "small27/256/pairwise": "aa93cab4e8b677a72e2ad538ed0b66bb996ae7d34b9412d407680252c14e2afa",
    "small17/256/pairwise": "436fe76b04396000bce96cb79285000470ead9fca5541bcf0827c3df632adaec",
    "exhaust/128/second_order": "c03dd44e04ec00fc9f368ddd530d5f691ee764cfb73ebb380c1780f1b6c5bf6c",
    "exhaust/128/auto": "4088d64b927e0e291f2402b44d5aadd2ea734062a70c0d86ffd767caaa9dde0c",
    "exhaust/256/second_order": "d74e6357b1e72234593bcef2cde0c981c43f65655ce059f3171b8eab8963515a",
    "exhaust/256/auto": "78573dc035be5b77e2b686c5937acae747d1b716a735331663f21d2ce5ef6f44",
    "budget/256/second_order": "31349ddc1ffbc75f2c1ea855ea396bc23dc19300240e0a32fda5bc1a9944ed37",
    "budget/192/auto": "0817a67f76b68a568591f41c127c792e083cfcd33ffd5cc51cfd6f0af3509a01",
    "budget/128/pairwise": "97325c73325b64fc9aa02379872166c29f1a057ee120d7560298ebb01ef833cd",
    "deadpen/256/pairwise": "465f66f77ddc7427685a7406c295b73d81dbc5739051b782c359588008ad7d4c",
    "deadpen/192/second_order": "628847378372577cc7d140a6d7d3e6d1259a61bfd05a32fa1fde747bf4192bf8",
    "deadpen/256/auto": "46f8747d4a8fe70521b361871d64e24672de4cbb87891b43553ea80daf84fedd",
}


@pytest.mark.parametrize("case", sorted(REPORT_DIGESTS))
def test_report_json_is_pinned(case):
    args, kwargs = pinned_search(case)
    report = recover_key(*args, **kwargs).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_DIGESTS[case]
