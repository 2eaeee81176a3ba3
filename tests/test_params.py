import dataclasses
import importlib
import inspect
import math
import pkgutil
import random

import pytest

import creature_lab
from creature_lab.errors import DomainError, PreconditionError, ValidationError
from creature_lab.generators import depth2_fragment, profile, two_level_tree
from creature_lab.homogenize import LeafLabeling, decide
from creature_lab.params import (
    NormShape,
    default_shape,
    halving_witness,
    log2ceil,
    log2ceil_ratio,
    log2floor_ratio,
    make_growth,
)


def test_default_growth_revalidates():
    g = make_growth(2)
    g.validate()
    # exhaustive re-check of the four inequality families
    for i in range(g.imax + 1):
        assert i * g.n1[i] < g.n3[i]
        assert g.n1[i] <= g.n2[i]
    for i in range(g.imax):
        assert g.n2[i] < g.n1[i + 1]
        assert g.n1[i] * g.n1[i] <= g.n1[i + 1]


def test_default_growth_is_deterministic():
    assert make_growth(3) == make_growth(3)


def test_custom_violation_names_inequality():
    with pytest.raises(ValidationError, match=r"n2\[0\] < n1\[1\] violated"):
        make_growth(1, ((2, 4), (4, 8), (16, 64)))


def test_equal_n1_n2_accepted():
    g = make_growth(1, ((2, 4), (2, 4), (8, 16)))
    assert g.n1 == g.n2


def test_custom_wrong_length_rejected():
    with pytest.raises(ValidationError, match="length"):
        make_growth(2, ((2, 4), (2, 4), (8, 16)))


def test_derived_fill_inequality_holds_for_defaults():
    g = make_growth(3)
    for i in range(g.imax + 1):
        for k in (0, 1, g.n1[i] // 2, g.n1[i]):
            assert (i - 1) * g.n1[i] + k < g.n3[i]


def test_halving_witness_values():
    assert halving_witness(16, 4) == 8
    assert halving_witness(64, 1) == 8


def test_halving_witness_boundary_f_equal_one():
    # f(4,2) = 1 satisfies the stated precondition; the witness is the
    # rounded geometric mean clamped into (2, 4)
    assert halving_witness(4, 2) == 3


def test_halving_witness_below_one_unit():
    with pytest.raises(PreconditionError, match="one unit"):
        halving_witness(4, 4)


def test_halving_witness_no_integer_between():
    with pytest.raises(PreconditionError, match="strictly between"):
        halving_witness(2, 1)


def test_halving_witness_is_the_clamped_rounded_root():
    """k' is the r with (2r - 1)^2 <= 4nk < (2r + 1)^2, clamped into [k + 1, n - 1]."""
    top = 300
    rounded = [0]  # rounded[x] for x = nk >= 1, by one upward sweep
    r = 0
    for x in range(1, top * top):
        while (2 * r + 1) ** 2 <= 4 * x:
            r += 1
        assert (2 * r - 1) ** 2 <= 4 * x
        rounded.append(r)
    for n in range(1, top + 1):
        for k in range(1, n):
            if n < 2 * k:
                with pytest.raises(PreconditionError, match="one unit"):
                    halving_witness(n, k)
            elif n - k < 2:
                with pytest.raises(PreconditionError, match="strictly between"):
                    halving_witness(n, k)
            else:
                assert halving_witness(n, k) == min(max(rounded[n * k], k + 1), n - 1), (n, k)
    with pytest.raises(DomainError, match="k >= 1"):
        halving_witness(5, 0)
    for n, k in ((2 ** 61 - 1, 3), (2 ** 61, 2 ** 30 + 7), (10 ** 18 + 9, 10 ** 9)):
        r = (math.isqrt(4 * n * k) + 1) // 2  # the largest r with 2r - 1 <= sqrt(4nk)
        assert (2 * r - 1) ** 2 <= 4 * n * k < (2 * r + 1) ** 2
        assert halving_witness(n, k) == min(max(r, k + 1), n - 1)


def test_shape_monotonicity_sampled():
    sh = default_shape()
    rng = random.Random(0)
    for _ in range(500):
        k1 = rng.randint(1, 2 ** 8)
        k2 = rng.randint(k1, 2 ** 12)
        n2 = rng.randint(k2, 2 ** 16)
        n1 = rng.randint(n2, 2 ** 16)
        assert sh.f(n1, k1) >= sh.f(n2, k2) - 1e-12


def test_shape_halving_star3_sampled():
    sh = default_shape()
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randrange(2, 2 ** 16, 2)
        k = rng.randint(1, n)
        assert sh.f(n // 2, k) >= sh.f(n, k) - 1 - 1e-12


def test_shape_zero_at_or_below_counter_sampled():
    sh = default_shape()
    rng = random.Random(2)
    for _ in range(500):
        k = rng.randint(1, 2 ** 16)
        n = rng.randint(0, k)
        assert sh.f(n, k) == 0.0


def test_witness_interval_and_additivity_sampled():
    sh = default_shape()
    rng = random.Random(3)
    checked = 0
    for _ in range(800):
        n = rng.randint(3, 2 ** 16)
        k = rng.randint(1, n)
        if not sh.norm_geq(n, k, 1) or n - k < 2:
            continue
        kp = halving_witness(n, k)
        assert k < kp < n
        np_ = rng.randint(kp + 1, n)
        # the lg shape splits exactly over an intermediate counter
        assert math.isclose(sh.f(np_, k), sh.f(np_, kp) + sh.f(kp, k), abs_tol=1e-9)
        checked += 1
    assert checked > 300


@pytest.mark.xfail(
    reason="the sqrt witness does not keep f(n', k) >= f(n, k) - 1 for all "
    "n' in (k', n) once f(n, k) > 2 (e.g. n=64, k=1, n'=20): the floor of "
    "the interval sits near half the original norm, not one below it",
    strict=True,
)
def test_witness_floor_on_intermediate_arguments():
    sh = default_shape()
    rng = random.Random(4)
    for _ in range(400):
        n = rng.randint(3, 2 ** 16)
        k = rng.randint(1, n)
        if sh.f(n, k) < 2 or n - k < 2:
            continue
        kp = halving_witness(n, k)
        for np_ in range(kp + 1, min(kp + 40, n)):
            assert sh.f(np_, k) >= sh.f(n, k) - 1 - 1e-12


def test_exact_comparators_match_floats():
    sh = default_shape()
    rng = random.Random(5)
    for _ in range(2000):
        n = rng.randint(0, 300)
        k = rng.randint(1, 20)
        m = rng.randint(0, 8)
        assert sh.norm_geq(n, k, m) == (sh.f(n, k) >= m - 1e-12)
        n2 = rng.randint(0, 300)
        k2 = rng.randint(1, 20)
        d = rng.randint(0, 3)
        exact = sh.norm_geq_shifted(n, k, n2, k2, d)
        approx = sh.f(n, k) >= sh.f(n2, k2) - d - 1e-12
        assert exact == approx


def test_log_helpers():
    assert log2ceil(0) == 0
    assert log2ceil(1) == 0
    assert log2ceil(3) == 2
    assert log2ceil(4) == 2
    assert log2ceil_ratio(16, 4) == 2
    assert log2ceil_ratio(16, 3) == 3
    assert log2ceil_ratio(3, 4) == 0
    assert log2floor_ratio(16, 3) == 2
    assert log2floor_ratio(16, 5) == 1


def _log2ceil_ratio_by_definition(num: int, den: int) -> int:
    """The smallest m >= 0 with den * 2^m >= num."""
    m = 0
    while den << m < num:
        m += 1
    return m


def test_log2ceil_ratio_is_its_definition():
    for num in range(300):
        for den in range(1, 40):
            assert log2ceil_ratio(num, den) == _log2ceil_ratio_by_definition(num, den), (num, den)
    big = 1 << 40
    for num, den in [(big, 1), (big + 1, 1), (big, 3), (3 * big + 7, 5), (big * big - 1, big + 1), (big, big - 1)]:
        assert log2ceil_ratio(num, den) == _log2ceil_ratio_by_definition(num, den), (num, den)


def test_kind_for_dom_size():
    g = make_growth(1, ((2, 4), (2, 25), (4, 16)))
    assert g.kind_for_dom_size(0) == 0
    assert g.kind_for_dom_size(1) == 1
    assert g.kind_for_dom_size(2) == 1
    assert g.kind_for_dom_size(3) == 2
    with pytest.raises(DomainError):
        g.kind_for_dom_size(26)


def _functions_with_shape():
    """module.qualname of every function and method defined in creature_lab
    that has a parameter named `shape`."""
    found = set()
    for info in pkgutil.iter_modules(creature_lab.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"creature_lab.{info.name}")
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            funcs = [obj] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                funcs = [f for _, f in inspect.getmembers(obj, inspect.isfunction)]
            for fn in funcs:
                if fn.__module__ == mod.__name__ and "shape" in inspect.signature(fn).parameters:
                    found.add(f"{info.name}.{fn.__qualname__}")
    return found


def test_only_decide_takes_a_shape():
    # the norm shape is fixed; decide keeps an unread slot that the benchmark fills
    assert _functions_with_shape() == {"homogenize.decide"}
    assert dataclasses.fields(NormShape) == ()
    for name in ("f", "norm_geq", "norm_pos", "norm_geq_shifted"):
        assert isinstance(inspect.getattr_static(NormShape, name), staticmethod), name
        assert getattr(default_shape(), name) is getattr(NormShape, name)


def _decide_fields(res):
    frag = None if res.fragment is None else (res.fragment.parent, res.fragment.klabel)
    return (res.found, frag, res.level, res.table, res.exhaustive, res.searched, res.stage)


@pytest.mark.parametrize("branching", [(2, 3), (3, 3)])
def test_decide_does_not_read_its_shape_slot(branching):
    tree, params = two_level_tree(), profile("cond2")
    p = depth2_fragment(tree, params, branching=branching)
    # planted: the first two leaves under each last internal node share a
    # label; separating: every leaf has a label of its own
    planted, separating = {}, {}
    for j, nu in enumerate(p.level_nodes(p.depth - 1)):
        for i, leaf in enumerate(p.children(nu)):
            planted[leaf] = 0 if i < 2 else 10 * j + i
            separating[leaf] = 10 * j + i
    for values, found in ((planted, True), (separating, False)):
        label = LeafLabeling(values)
        with_none = decide(p, label, 0, tree, params, None, max_level=1)
        with_shape = decide(p, label, 0, tree, params, default_shape(), max_level=1)
        assert with_none.found == found
        assert _decide_fields(with_none) == _decide_fields(with_shape)
