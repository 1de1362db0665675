import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import lpmv

from gtvv import experiment
from gtvv.experiment import ExperimentConfig
from gtvv.sh import (Dictionary, Direction, angular_distance,
                     build_dictionary, fibonacci_directions, make_omni_beam,
                     make_reference_beam, read_direction_file, sh_eval,
                     sh_matrix)
from oracles import from_unit_vector, nearest

directions = st.builds(
    Direction,
    st.floats(-math.pi, math.pi, allow_nan=False),
    st.floats(-math.pi / 2, math.pi / 2, allow_nan=False),
)


def legendre_recurrence(l_max, m, x):
    """Independent associated-Legendre oracle (no Condon-Shortley phase).

    Standard recurrences: P_m^m = (2m-1)!! (1-x^2)^{m/2}, then upward in l.
    """
    if m > l_max:
        return 0.0
    pmm = 1.0
    somx2 = math.sqrt(1.0 - x * x)
    fact = 1.0
    for _ in range(m):
        pmm *= fact * somx2
        fact += 2.0
    if l_max == m:
        return pmm
    pmmp1 = x * (2 * m + 1) * pmm
    if l_max == m + 1:
        return pmmp1
    pll = 0.0
    for ll in range(m + 2, l_max + 1):
        pll = ((2 * ll - 1) * x * pmmp1 - (ll + m - 1) * pmm) / (ll - m)
        pmm, pmmp1 = pmmp1, pll
    return pll


def sh_oracle(direction, order):
    """Straightforward per-coefficient SH evaluation, SN3D/ACN."""
    out = np.empty((order + 1) ** 2)
    x = math.sin(direction.elevation)
    for l in range(order + 1):
        for m in range(-l, l + 1):
            am = abs(m)
            leg = legendre_recurrence(l, am, x)
            if m == 0:
                val = leg
            else:
                norm = math.sqrt(2.0 * math.factorial(l - am)
                                 / math.factorial(l + am))
                trig = (math.cos(am * direction.azimuth) if m > 0
                        else math.sin(am * direction.azimuth))
                val = norm * leg * trig
            out[l * l + l + m] = val
    return out


def sh_matrix_lpmv(az, el, order):
    """`sh_matrix` as computed with scipy's `lpmv`, whose Condon-Shortley
    phase real SH do not carry."""
    x = np.sin(el)
    out = np.empty(((order + 1) ** 2, az.size))
    for l in range(order + 1):
        for m in range(-l, l + 1):
            am = abs(m)
            leg = (-1.0) ** am * lpmv(am, l, x)
            if m == 0:
                val = leg
            else:
                norm = math.sqrt(
                    2.0 * math.factorial(l - am) / math.factorial(l + am))
                trig = np.cos(am * az) if m > 0 else np.sin(am * az)
                val = norm * leg * trig
            out[l * l + l + m] = val
    return out


# raw angles, poles and the azimuth seam included
angle_pairs = st.lists(st.tuples(
    st.one_of(st.sampled_from([-math.pi, math.pi]),
              st.floats(-math.pi, math.pi)),
    st.one_of(st.sampled_from([-math.pi / 2, math.pi / 2]),
              st.floats(-math.pi / 2, math.pi / 2))), min_size=1, max_size=30)


class TestDirection:
    def test_wraps_azimuth(self):
        d = Direction(3 * math.pi, 0.1)
        assert d.azimuth == pytest.approx(math.pi)

    def test_folds_over_pole(self):
        d = Direction(0.0, math.pi / 2 + 0.1)
        assert d.elevation == pytest.approx(math.pi / 2 - 0.1)
        assert abs(d.azimuth) == pytest.approx(math.pi)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Direction(math.nan, 0.0)

    @given(directions)
    def test_unit_vector_round_trip(self, d):
        d2 = from_unit_vector(d.unit_vector())
        assert angular_distance(d, d2) < 1e-7


class TestShEval:
    def test_front_direction_order1(self):
        got = sh_eval(Direction(0.0, 0.0), 1)
        np.testing.assert_allclose(got, [1, 0, 0, 1], atol=1e-15)

    def test_left_direction_order1(self):
        got = sh_eval(Direction(math.pi / 2, 0.0), 1)
        np.testing.assert_allclose(got, [1, 1, 0, 0], atol=1e-15)

    def test_matches_legendre_oracle_order4(self):
        d = Direction(0.7, -0.3)
        np.testing.assert_allclose(sh_eval(d, 4), sh_oracle(d, 4),
                                   atol=1e-12)

    @given(directions, st.integers(0, 8))
    @settings(max_examples=50, deadline=None)
    def test_matches_oracle_everywhere(self, d, order):
        np.testing.assert_allclose(sh_eval(d, order),
                                   sh_oracle(d, order), atol=1e-10)

    @given(angle_pairs, st.integers(0, 8))
    @example([(math.pi, math.pi / 2), (-math.pi, -math.pi / 2),
              (math.pi, 0.4), (-math.pi, -0.4)], 8)
    @settings(max_examples=100, deadline=None)
    def test_matches_scipy_lpmv(self, pairs, order):
        az, el = np.array(pairs).T
        np.testing.assert_allclose(sh_matrix(az, el, order),
                                   sh_matrix_lpmv(az, el, order),
                                   rtol=0, atol=1e-14)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            sh_eval(Direction(0, 0), 9)
        with pytest.raises(ValueError):
            sh_eval(Direction(0, 0), -1)

    @given(directions)
    def test_sn3d_bounds(self, d):
        coeffs = sh_eval(d, 1)
        assert coeffs[0] == 1.0
        assert np.all(np.abs(coeffs[1:]) <= 1.0 + 1e-12)

    @given(directions)
    def test_order1_is_permuted_unit_vector(self, d):
        coeffs = sh_eval(d, 1)
        ux, uy, uz = d.unit_vector()
        np.testing.assert_allclose(coeffs[1:], [uy, uz, ux], atol=1e-12)


class TestBeams:
    def test_reference_beam_order0(self):
        np.testing.assert_allclose(
            make_reference_beam(Direction(0.3, 0.2), 0), [1.0])

    def test_reference_beam_front(self):
        w = make_reference_beam(Direction(0, 0), 1)
        np.testing.assert_allclose(w, np.array([1, 0, 0, 1]) / 2)
        assert w @ sh_eval(Direction(0, 0), 1) == pytest.approx(1.0)

    def test_reference_beam_unit_response(self):
        d = Direction(0.7, -0.3)
        w = make_reference_beam(d, 3)
        assert w @ sh_eval(d, 3) == pytest.approx(1.0, abs=1e-12)

    def test_unit_response_random_directions(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            d = Direction(rng.uniform(-math.pi, math.pi),
                          rng.uniform(-math.pi / 2, math.pi / 2))
            w = make_reference_beam(d, 4)
            assert abs(w @ sh_eval(d, 4) - 1.0) < 1e-10

    @pytest.mark.parametrize("order", range(1, 7))
    def test_reference_beam_pattern_is_mean_of_legendre(self, order):
        # SN3D addition theorem: y(u).y(v) = sum_l P_l(u.v), so the beam
        # y(u) / |y(u)|^2 responds (1/(L+1)) sum_{l<=L} P_l(u.v) at v; a
        # cardioid at order 1
        rng = np.random.default_rng(order)
        for _ in range(200):
            u, v = (from_unit_vector(rng.standard_normal(3))
                    for _ in range(2))
            cos = float(u.unit_vector() @ v.unit_vector())
            want = np.polynomial.legendre.legval(cos, np.ones(order + 1))
            got = make_reference_beam(u, order) @ sh_eval(v, order)
            assert abs(got - want / (order + 1)) <= 1e-12

    def test_omni_beam(self):
        np.testing.assert_array_equal(make_omni_beam(1), [1, 0, 0, 0])
        w4 = make_omni_beam(4)
        assert w4.shape == (25,)
        assert w4[0] == 1.0 and np.all(w4[1:] == 0.0)

    @given(directions)
    def test_omni_beta_is_one(self, d):
        w = make_omni_beam(4)
        assert w @ sh_eval(d, 4) == pytest.approx(1.0)


class TestAngularDistance:
    def test_quarter_turn(self):
        assert angular_distance(Direction(0, 0), Direction(math.pi / 2, 0)) \
            == pytest.approx(math.pi / 2)

    @given(directions)
    def test_self_distance_zero(self, d):
        assert angular_distance(d, d) < 1e-7

    def test_matches_cartesian_oracle(self):
        a, b = Direction(0.3, 0.2), Direction(-0.4, -0.1)

        def to_xyz(d):
            return np.array([
                math.cos(d.elevation) * math.cos(d.azimuth),
                math.cos(d.elevation) * math.sin(d.azimuth),
                math.sin(d.elevation),
            ])

        expected = math.acos(float(to_xyz(a) @ to_xyz(b)))
        assert angular_distance(a, b) == pytest.approx(expected, abs=1e-12)

    @given(directions, directions)
    def test_symmetry(self, a, b):
        assert angular_distance(a, b) == pytest.approx(angular_distance(b, a))


class TestDictionary:
    def test_fibonacci_770(self):
        d = build_dictionary(770, 4)
        assert len(d) == 770
        assert d.atoms.shape == (25, 770)
        assert np.all(np.linalg.norm(d.atoms, axis=0) > 0)

    def test_count_4_tetrahedral_spread(self):
        d = build_dictionary(4, 1)
        for i in range(4):
            for j in range(i + 1, 4):
                assert angular_distance(d.directions[i], d.directions[j]) \
                    > math.radians(60)

    def test_quasi_uniform_nearest_neighbors(self):
        d = build_dictionary(770, 1)
        vecs = np.stack([x.unit_vector() for x in d.directions])
        gram = np.clip(vecs @ vecs.T, -1, 1)
        np.fill_diagonal(gram, -1)
        nn = np.arccos(np.max(gram, axis=1))
        med = np.median(nn)
        assert np.all(nn >= 0.5 * med)
        assert np.all(nn <= 2.0 * med)

    def test_file_scheme(self, tmp_path):
        path = tmp_path / "dirs.txt"
        path.write_text("# two directions\n0 0\n1.5708 0\n")
        d = build_dictionary(2, 0, read_direction_file(path))
        assert len(d) == 2
        np.testing.assert_allclose(
            d.atoms, np.column_stack([sh_eval(x, 0)
                                      for x in d.directions]))
        assert d.directions[1].azimuth == pytest.approx(1.5708)

    def test_file_scheme_atoms_match_sh_eval(self, tmp_path):
        path = tmp_path / "dirs.txt"
        path.write_text("0.3 -0.2\n-1.0 0.5\n2.0 0.1\n0.1 1.0\n")
        d = build_dictionary(4, 1, read_direction_file(path))
        for j, direction in enumerate(d.directions):
            np.testing.assert_allclose(d.atoms[:, j],
                                       sh_eval(direction, 1))

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\nnot numbers here\n")
        with pytest.raises(ValueError):
            build_dictionary(2, 0, read_direction_file(path))

    def test_direction_count_must_match(self, tmp_path):
        path = tmp_path / "dirs.txt"
        path.write_text("0 0\n1.5708 0\n")
        with pytest.raises(ValueError, match="2 directions given"):
            build_dictionary(3, 0, read_direction_file(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_direction_file(tmp_path / "nope.txt")

    def test_count_below_channels(self):
        with pytest.raises(ValueError):
            build_dictionary(3, 1)

    def test_nearest(self):
        d = build_dictionary(770, 1)
        target = d.directions[123]
        assert nearest(d, target) == 123

    def test_built_once_per_process(self):
        assert build_dictionary(770, 4) is build_dictionary(770, 4)

    def test_atoms_are_read_only(self):
        d = build_dictionary(770, 4)
        assert not d.atoms.flags.writeable
        with pytest.raises(ValueError):
            d.atoms[0, 0] = 0.0

    def test_direction_list_keyed_as_its_tuple(self):
        dirs = fibonacci_directions(100)
        d = build_dictionary(100, 2, dirs)
        assert build_dictionary(100, 2, tuple(dirs)) is d
        assert build_dictionary(100, 2, list(dirs)) is d

    def test_configs_share_the_validation_dictionary(self, tmp_path,
                                                     monkeypatch):
        # each config parses the file into directions of its own, equal to
        # the other's: both validate against one order-0 dictionary
        path = tmp_path / "dirs.txt"
        path.write_text("".join(f"{d.azimuth!r} {d.elevation!r}\n"
                                for d in fibonacci_directions(300)))
        built = []

        def recording(*args):
            built.append(build_dictionary(*args))
            return built[-1]
        monkeypatch.setattr(experiment, "build_dictionary", recording)
        first = ExperimentConfig(dict_size=300, dict_file=str(path))
        second = ExperimentConfig(dict_size=300, dict_file=str(path))
        assert first.dict_directions is not second.dict_directions
        assert [d.order for d in built] == [0, 0]
        assert built[0] is built[1]


def gram_too_close(dirs) -> bool:
    """The dense n x n Gram check of the 0.1 degree spacing, as the
    dictionary once ran it."""
    vecs = np.stack([d.unit_vector() for d in dirs])
    gram = vecs @ vecs.T
    np.fill_diagonal(gram, -1.0)
    return gram.max() > math.cos(math.radians(0.1))


def accepted(dirs) -> bool:
    try:
        Dictionary(0, tuple(dirs))
    except ValueError:
        return False
    return True


def offset(d: Direction, sep: float, heading: float) -> Direction:
    """The direction `sep` radians from `d` along `heading` (0 = east,
    pi/2 = north); an east heading keeps an equator point on the equator."""
    u = d.unit_vector()
    east = np.array([-math.sin(d.azimuth), math.cos(d.azimuth), 0.0])
    north = np.cross(u, east)
    t = math.cos(heading) * east + math.sin(heading) * north
    return from_unit_vector(math.cos(sep) * u + math.sin(sep) * t)


# separations of planted pairs, clear of the 0.1 degree limit
planted_seps = st.one_of(st.floats(0.0, 0.09), st.floats(0.11, 0.5))
azimuths = st.floats(-math.pi, math.pi, allow_nan=False)
elevations = {
    "sphere": st.floats(-math.pi / 2, math.pi / 2, allow_nan=False),
    "equator": st.just(0.0),
    "north pole": st.floats(math.radians(89.0), math.pi / 2),
    "south pole": st.floats(-math.pi / 2, math.radians(-89.0)),
}


@st.composite
def planted_direction_sets(draw):
    """Random directions on the sphere, on one z-level (the equator) or in
    a 1 degree cap at a pole, plus near-duplicates of some of them."""
    kind = draw(st.sampled_from(sorted(elevations)))
    dirs = [Direction(draw(azimuths), draw(elevations[kind]))
            for _ in range(draw(st.integers(2, 30)))]
    headings = st.just(0.0) if kind == "equator" else st.floats(0.0, 6.3)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(dirs) - 1))
        dirs.append(offset(dirs[i], math.radians(draw(planted_seps)),
                           draw(headings)))
    return draw(st.permutations(dirs))


class TestSeparationCheck:
    def test_rejects_directions_0_05_degrees_apart(self):
        d = Direction(0.3, 0.2)
        with pytest.raises(ValueError, match="0.1 degrees"):
            Dictionary(0, (d, offset(d, math.radians(0.05), 1.0)))

    def test_accepts_directions_0_2_degrees_apart(self):
        d = Direction(0.3, 0.2)
        assert accepted([d, offset(d, math.radians(0.2), 1.0)])

    def test_rejects_pole_with_two_azimuths(self):
        # both are the north pole
        assert not accepted([Direction(0.0, math.pi / 2),
                             Direction(2.0, math.pi / 2)])

    def test_equator_ring(self):
        ring = [Direction(math.radians(0.2 * k), 0.0) for k in range(1800)]
        assert accepted(ring)
        assert not accepted(ring + [Direction(math.radians(0.05), 0.0)])

    @settings(max_examples=200, deadline=None)
    @given(planted_direction_sets())
    def test_agrees_with_gram_check(self, dirs):
        assert accepted(dirs) == (not gram_too_close(dirs))


class TestNearest:
    dic = build_dictionary(770, 1)

    @settings(max_examples=100, deadline=None)
    @given(directions)
    def test_matches_loop(self, target):
        v = target.unit_vector()
        dots = [d.unit_vector() @ v for d in self.dic.directions]
        assert nearest(self.dic, target) == int(np.argmax(dots))

    def test_tie_goes_to_lowest_index(self):
        # both atoms are 10 degrees from the target, with equal dot products
        pair = (Direction(math.radians(10.0), 0.0),
                Direction(math.radians(-10.0), 0.0))
        for dirs in (pair, pair[::-1]):
            assert nearest(Dictionary(0, dirs), Direction(0.0, 0.0)) == 0
