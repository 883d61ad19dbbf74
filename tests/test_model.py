"""Plant validation and vertex enumeration."""

import numpy as np
import numpy.testing as npt
import pytest

import hinfgcc as hg
from conftest import make_example1_plant, make_example2_plant

TWO_BY_TWO = 0.2 * np.ones((2, 2))


class TestPlantModel:
    def test_dimension_consistency_enforced(self):
        with pytest.raises(hg.DimensionError):
            hg.PlantModel(A=np.eye(2), B1=np.eye(3), B2=np.eye(2), C=np.eye(2), D=np.eye(2))

    @pytest.mark.parametrize("b1", [[[]], np.zeros((1, 0))], ids=["empty-row", "no-column"])
    def test_disturbance_input_required(self, b1):
        # a plant without a disturbance column has no H-infinity norm to bound
        with pytest.raises(hg.DimensionError, match="B1 must have at least one column"):
            hg.PlantModel(A=[[-1.0]], B1=b1, B2=[[1.0]], C=[[1.0], [0.0]], D=[[0.0], [1.0]])

    @pytest.mark.parametrize("b2", [[[]], np.zeros((1, 0))], ids=["empty-row", "no-column"])
    def test_control_input_required(self, b2):
        # a plant without a control column has no gain to synthesize
        with pytest.raises(hg.DimensionError, match="B2 must have at least one column"):
            hg.PlantModel(A=[[-1.0]], B1=[[1.0]], B2=b2, C=[[1.0], [0.0]], D=np.zeros((2, 0)))

    def test_dimensions_exposed(self):
        p = make_example1_plant()
        assert (p.n, p.m, p.l, p.q) == (3, 1, 3, 3)


class TestValidatePlant:
    def test_example1_passes_cleanly(self):
        report = hg.validate_plant(make_example1_plant())
        assert report.warnings == ()
        assert report.ctd_max_abs <= 1e-9

    def test_zero_feedthrough_rejected(self):
        plant = hg.PlantModel(A=[[-1.0]], B1=[[1.0]], B2=[[1.0]], C=[[1.0]], D=[[0.0]])
        with pytest.raises(hg.AssumptionError, match="D\\^T D"):
            hg.validate_plant(plant)

    def test_block_structure_gives_exact_orthogonality(self):
        # C = [I; 0], D = [0; I] makes C^T D identically zero
        report = hg.validate_plant(make_example2_plant())
        assert report.ctd_max_abs == 0.0

    def test_nonzero_ctd_rejected(self):
        plant = hg.PlantModel(A=[[-1.0]], B1=[[1.0]], B2=[[1.0]], C=[[1.0]], D=[[1.0]])
        with pytest.raises(hg.AssumptionError, match="C\\^T D"):
            hg.validate_plant(plant)

    @pytest.mark.parametrize("name, matrices", [
        ("B1 B1\\^T", {"B1": [[1e200]]}),
        ("C\\^T C", {"C": [[1e200], [0.0]]}),
        ("D\\^T D", {"D": [[0.0], [1e200]]}),
    ])
    def test_overflowing_weight_rejected(self, name, matrices):
        toy = dict(A=[[-1.0]], B1=[[1.0]], B2=[[1.0]], C=[[1.0], [0.0]], D=[[0.0], [1.0]])
        with pytest.raises(hg.AssumptionError, match=name):
            hg.validate_plant(hg.PlantModel(**{**toy, **matrices}))

    def test_unstabilizable_mode_warns_but_passes(self):
        # unstable mode at +1 is unreachable from B2
        plant = hg.PlantModel(
            A=np.diag([1.0, -1.0]),
            B1=np.eye(2),
            B2=[[0.0], [1.0]],
            C=[[1.0, 0.0], [0.0, 0.0]],
            D=[[0.0], [1.0]],
        )
        report = hg.validate_plant(plant)
        assert any("stabilizable" in w for w in report.warnings)

    def test_unobservable_mode_warns_but_passes(self):
        plant = hg.PlantModel(
            A=np.diag([-1.0, -2.0]),
            B1=np.eye(2),
            B2=[[1.0], [1.0]],
            C=[[1.0, 0.0], [0.0, 0.0]],
            D=[[0.0], [1.0]],
        )
        report = hg.validate_plant(plant)
        assert any("observable" in w for w in report.warnings)


class TestEnumerateVertices:
    def test_example2_has_256_vertices(self):
        plant = make_example2_plant()
        spec = hg.UncertaintySpec.relative(TWO_BY_TWO, TWO_BY_TWO)
        vset = hg.enumerate_vertices(plant, spec)
        assert vset.N == 256

    def test_zero_uncertainty_gives_nominal(self):
        plant = make_example1_plant()
        vset = hg.enumerate_vertices(plant, hg.UncertaintySpec.none())
        assert vset.N == 1
        npt.assert_array_equal(vset[0][0], plant.A)
        npt.assert_array_equal(vset[0][1], plant.B2)

    def test_single_uncertain_entry(self):
        plant = hg.PlantModel(A=[[-1.0]], B1=[[1.0]], B2=[[1.0]], C=[[1.0], [0.0]], D=[[0.0], [1.0]])
        spec = hg.UncertaintySpec.relative([[0.5]], [[0.0]])
        vset = hg.enumerate_vertices(plant, spec)
        assert vset.N == 2
        # lower bound first (bit 0), then upper
        assert vset[0][0][0, 0] == pytest.approx(-0.5)
        assert vset[1][0][0, 0] == pytest.approx(-1.5)

    def test_enumeration_order_lsb_is_first_entry(self):
        plant = hg.PlantModel(
            A=[[1.0, 2.0], [3.0, 4.0]],
            B1=np.eye(2),
            B2=[[1.0], [1.0]],
            C=[[1.0, 0.0], [0.0, 0.0]],
            D=[[0.0], [1.0]],
        )
        spec = hg.UncertaintySpec.relative([[0.1, 0.1], [0.0, 0.0]], [[0.0], [0.0]])
        vset = hg.enumerate_vertices(plant, spec)
        assert vset.N == 4
        # entries are ordered row-major: index bit 0 flips A[0,0], bit 1 flips A[0,1]
        a_per_vertex = [v[0] for v in vset]
        npt.assert_allclose([a[0, 0] for a in a_per_vertex], [0.9, 1.1, 0.9, 1.1])
        npt.assert_allclose([a[0, 1] for a in a_per_vertex], [1.8, 1.8, 2.2, 2.2])

    def test_nominal_is_average_and_bounds_are_box(self):
        plant = make_example2_plant()
        spec = hg.UncertaintySpec.relative(TWO_BY_TWO, TWO_BY_TWO)
        vset = hg.enumerate_vertices(plant, spec)
        a_stack = np.stack([v[0] for v in vset])
        b_stack = np.stack([v[1] for v in vset])
        npt.assert_allclose(a_stack.mean(axis=0), plant.A, atol=1e-12)
        npt.assert_allclose(b_stack.mean(axis=0), plant.B2, atol=1e-12)
        npt.assert_allclose(a_stack.min(axis=0), plant.A * 0.8)
        npt.assert_allclose(a_stack.max(axis=0), plant.A * 1.2)
        npt.assert_allclose(b_stack.min(axis=0), plant.B2 * 0.8)
        npt.assert_allclose(b_stack.max(axis=0), plant.B2 * 1.2)

    def test_vertex_entries_exact(self):
        plant = make_example2_plant()
        spec = hg.UncertaintySpec.relative(TWO_BY_TWO, TWO_BY_TWO)
        vset = hg.enumerate_vertices(plant, spec)
        for index in (0, 1, 37, 255):
            ai, bi = vset[index]
            for bit, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
                factor = 1.2 if (index >> bit) & 1 else 0.8
                assert ai[i, j] == plant.A[i, j] * factor
            for bit, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)], start=4):
                factor = 1.2 if (index >> bit) & 1 else 0.8
                assert bi[i, j] == plant.B2[i, j] * factor

    def test_zero_nominal_entry_not_doubled(self):
        plant = make_example1_plant()  # A[2, 0] = A[2, 1] = 0
        spec = hg.UncertaintySpec.relative(0.2 * np.ones((3, 3)), np.zeros((3, 1)))
        vset = hg.enumerate_vertices(plant, spec)
        assert vset.N == 2**7  # 9 entries minus the two structural zeros

    def test_cap_enforced(self):
        plant = hg.PlantModel(
            A=np.ones((4, 4)),
            B1=np.eye(4),
            B2=np.ones((4, 1)),
            C=np.vstack([np.eye(4), np.zeros((1, 4))]),
            D=np.vstack([np.zeros((4, 1)), np.eye(1)]),
        )
        # 13 uncertain entries exceed the default cap of 4096
        delta_a = np.zeros((4, 4))
        delta_a.flat[:13] = 0.1
        spec = hg.UncertaintySpec.relative(delta_a, np.zeros((4, 1)))
        with pytest.raises(hg.CapacityError, match="13") as excinfo:
            hg.enumerate_vertices(plant, spec)
        assert "4096" in str(excinfo.value)

    def test_cap_override(self):
        plant = make_example2_plant()
        spec = hg.UncertaintySpec.relative(TWO_BY_TWO, TWO_BY_TWO, cap=16)
        with pytest.raises(hg.CapacityError):
            hg.enumerate_vertices(plant, spec)

    def test_explicit_vertices_pass_through(self):
        plant = make_example2_plant()
        pairs = [(plant.A, plant.B2), (plant.A * 1.1, plant.B2 * 0.9)]
        vset = hg.enumerate_vertices(plant, hg.UncertaintySpec.from_vertices(pairs))
        assert vset.N == 2
        npt.assert_allclose(vset[1][0], plant.A * 1.1)

    def test_explicit_vertices_cap_enforced(self):
        plant = hg.PlantModel(A=[[-1.0]], B1=[[1.0]], B2=[[1.0]], C=[[1.0], [0.0]], D=[[0.0], [1.0]])
        pairs = [([[-1.0 - 0.1 * i]], [[1.0]]) for i in range(3)]
        with pytest.raises(hg.CapacityError, match="3 listed vertices exceed the cap of 2"):
            hg.enumerate_vertices(plant, hg.UncertaintySpec.from_vertices(pairs, cap=2))
        assert hg.enumerate_vertices(plant, hg.UncertaintySpec.from_vertices(pairs, cap=3)).N == 3
        # the default cap holds for a list as it does for enumerated vertices
        many = [([[-1.0]], [[1.0]])] * (hg.DEFAULT_VERTEX_CAP + 1)
        with pytest.raises(hg.CapacityError, match=str(hg.DEFAULT_VERTEX_CAP)):
            hg.enumerate_vertices(plant, hg.UncertaintySpec.from_vertices(many))

    def test_explicit_vertices_dimension_checked(self):
        plant = make_example2_plant()
        spec = hg.UncertaintySpec.from_vertices([(np.eye(3), plant.B2)])
        with pytest.raises(hg.DimensionError):
            hg.enumerate_vertices(plant, spec)

    def test_vertex_beyond_float_range_rejected(self):
        plant = hg.PlantModel(A=[[1e308]], B1=[[1.0]], B2=[[1.0]], C=[[1.0], [0.0]], D=[[0.0], [1.0]])
        spec = hg.UncertaintySpec.relative([[1.0]], [[0.0]])
        with pytest.raises(hg.AssumptionError, match="float range"):
            hg.enumerate_vertices(plant, spec)

    def test_negative_fraction_rejected(self):
        with pytest.raises(hg.DimensionError):
            hg.UncertaintySpec.relative([[-0.1]], [[0.0]])
