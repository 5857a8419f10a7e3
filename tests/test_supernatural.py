from fractions import Fraction

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
