from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from phaselab import supernatural
from phaselab.cli import main
from phaselab.supernatural import (
    INF,
    MAX_TABLE_K,
    PI_Q,
    PI_Z_X_Q,
    PI_ZERO,
    SupernaturalNumber,
    factorize,
    from_int,
    from_type_sequence,
    homotopy_table,
    iso_equivalent,
    mul,
    q_contains,
)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(97) == {97: 1}
    with pytest.raises(ValueError):
        factorize(0)
    # trial division runs to 10^6, which decides every part left up to 10^12
    assert factorize(2**60 * 999983) == {2: 60, 999983: 1}
    assert factorize(999983**2) == {999983: 2}
    assert factorize(3 * 999999999989) == {3: 1, 999999999989: 1}
    for n in (1000003 * 1000033, 1000000000039, 2**10 * 1000000000039):
        with pytest.raises(ValueError, match="trial division up to 10\\^6"):
            factorize(n)


def test_each_integer_is_trial_divided_once_per_process(capsys):
    # the tower, its tail ratio, the Q(a) denominator, the iso-type tower
    # and every SupernaturalNumber's prime check all factorize p: one trial
    # division (a miss of factorize's cache), and the rest read its result
    p = 999999999989
    supernatural._prime_powers.cache_clear()
    argv = ["supernatural", "--type", str(p), "--tail-ratio", str(p), "--contains", f"1/{p}",
            "--iso-type", str(p), "--no-timestamp"]
    assert main(argv) == 0
    assert f'"{p}^inf"' in capsys.readouterr().out
    divisions = supernatural._prime_powers.cache_info()
    assert (divisions.misses, divisions.currsize) == (1, 1)
    assert divisions.hits >= 5
    # each caller gets a dict of its own
    mine = factorize(p)
    mine[p] = 2
    assert factorize(p) == {p: 1}
    assert supernatural._prime_powers.cache_info().misses == 1


def test_constructor_validation():
    with pytest.raises(ValueError):
        SupernaturalNumber({4: 1})
    with pytest.raises(ValueError):
        SupernaturalNumber({2: -1})
    assert str(SupernaturalNumber({2: 0})) == "1"
    # a bool is not an exponent, and a prime is an int, as serialize._integer has it
    for exps in ({2: True}, {2: False}, {2: 2.0}, {2.0: 2}, {True: 1}, {np.int64(2): 1}):
        with pytest.raises(ValueError):
            SupernaturalNumber(exps)
    # what the module builds has int primes, from numpy integers too
    built = (from_type_sequence([2, 6, 12], tail_ratio=2), from_int(360), from_int(np.int64(7)),
             mul(from_int(12), SupernaturalNumber({5: INF})))
    assert [str(x) for x in built] == ["2^inf*3", "2^3*3^2*5", "7", "2^2*3*5^inf"]
    for x in built:
        assert all(type(p) is int for p in x.exponents)
        assert all(type(e) is int or e == INF for e in x.exponents.values())
    with pytest.raises(TypeError):
        from_int(7.0)


def test_from_type_sequence():
    assert str(from_type_sequence([2, 4, 8], tail_ratio=2)) == "2^inf"
    assert str(from_type_sequence([6])) == "2*3"
    assert str(from_type_sequence([2, 6, 12], tail_ratio=2)) == "2^inf*3"
    with pytest.raises(ValueError):
        from_type_sequence([2, 6, 8])  # 6 does not divide 8
    with pytest.raises(ValueError):
        from_type_sequence([1, 2])


def test_mul():
    a = from_type_sequence([2, 6, 12], tail_ratio=2)
    assert str(mul(a, SupernaturalNumber({}))) == str(a)
    assert str(mul(SupernaturalNumber({2: INF}), from_int(8))) == "2^inf"
    assert str(mul(from_int(12), from_int(10))) == "2^3*3*5"


def test_q_contains():
    two_inf = SupernaturalNumber({2: INF})
    assert q_contains(two_inf, Fraction(3, 8))
    assert q_contains(two_inf, "3/8")
    assert not q_contains(two_inf, Fraction(1, 3))
    a = SupernaturalNumber({2: INF, 3: 1})
    assert q_contains(a, Fraction(5, 12))
    assert not q_contains(a, Fraction(1, 9))
    assert q_contains(a, 7)  # integers always belong
    with pytest.raises(ValueError, match="zero denominator"):
        q_contains(a, "1/0")


def test_q_closure_under_addition():
    a = SupernaturalNumber({2: INF, 3: 1})
    q1, q2 = Fraction(5, 12), Fraction(7, 48)
    assert q_contains(a, q1) and q_contains(a, q2)
    assert q_contains(a, q1 + q2)


def test_iso_equivalent():
    a = SupernaturalNumber({2: INF})
    same = iso_equivalent(a, a)
    assert same == (True, 1, 1)
    wit = iso_equivalent(a, SupernaturalNumber({2: INF, 3: 1}))
    assert wit.equivalent and (wit.c, wit.d) == (3, 1)
    # witness certificate: a*c == b*d
    b = SupernaturalNumber({2: INF, 3: 1})
    assert str(mul(a, from_int(wit.c))) == str(mul(b, from_int(wit.d)))
    assert not iso_equivalent(a, SupernaturalNumber({3: INF})).equivalent
    mixed = iso_equivalent(
        SupernaturalNumber({2: INF, 5: 2}), SupernaturalNumber({2: INF, 7: 1})
    )
    assert mixed.equivalent and (mixed.c, mixed.d) == (7, 25)


def test_homotopy_table():
    a = SupernaturalNumber({2: INF})
    rows = homotopy_table(a, 5)
    assert [(r.unitary_group, r.isotropy_group) for r in rows] == [
        (PI_Q, PI_Z_X_Q),
        (PI_ZERO, PI_ZERO),
        (PI_Q, PI_Q),
        (PI_ZERO, PI_ZERO),
        (PI_Q, PI_Q),
    ]
    for k_max in (0, MAX_TABLE_K + 1):
        with pytest.raises(ValueError, match="k_max"):
            homotopy_table(a, k_max)


def _scalar_draws(rng):
    """The supernatural suite's draws as it made them one scalar at a time:
    its 180 numbers, one draw per prime, then its 40 pairs of rationals."""
    def rand_sn():
        exps = {}
        for p in (2, 3, 5, 7):
            r = rng.integers(0, 4)
            if r == 3:
                exps[p] = INF
            elif r:
                exps[p] = int(r)
        return SupernaturalNumber(exps)

    numbers = [rand_sn() for _ in range(180)]
    rationals = []
    for _ in range(40):
        q1 = Fraction(int(rng.integers(-20, 20)), int(2 ** rng.integers(0, 5) * 3))
        q2 = Fraction(int(rng.integers(-20, 20)), int(2 ** rng.integers(0, 6)))
        rationals.append((q1, q2))
    return numbers, rationals


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_supernatural_suite_draws_as_the_scalar_loop(monkeypatch, seed):
    from phaselab import selfcheck

    key = [seed, list(selfcheck.SUITES).index("supernatural")]
    ref_rng = np.random.default_rng(key)
    numbers, rationals = _scalar_draws(ref_rng)
    built, asked = [], []
    spy = SimpleNamespace(**vars(supernatural))
    spy.SupernaturalNumber = lambda exps: built.append(SupernaturalNumber(exps)) or built[-1]
    spy.q_contains = lambda a, q: asked.append(q) or q_contains(a, q)
    monkeypatch.setattr(selfcheck, "supernatural", spy)
    rng = np.random.default_rng(key)
    assert selfcheck.supernatural_suite(rng).passed
    assert built == numbers
    tower = from_type_sequence([2, 6, 12], tail_ratio=2)
    want = []
    for q1, q2 in rationals:
        want.append(q1)
        if q_contains(tower, q1):
            want += [q2, q1 + q2] if q_contains(tower, q2) else [q2]
    assert asked == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state
