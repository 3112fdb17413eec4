import json
import re

import numpy as np
import pytest

from qldecouple import conditions as cond
from qldecouple import eigen, models
from qldecouple import exprlang as ex
from qldecouple.errors import SchemaError
from qldecouple.system import SamplePlan, load_system


def test_registry_entries_validate_and_round_trip():
    for name in models.REGISTRY:
        entry = models.build(name)
        assert entry.system.n >= 2
        text = entry.to_json()
        doc2 = json.loads(text)
        assert json.dumps(doc2, sort_keys=True) == text
        sys2 = load_system(text)
        assert sys2.states == entry.system.states


def test_unknown_model_name():
    with pytest.raises(SchemaError):
        models.build("nonexistent")


@pytest.mark.parametrize("name,kwargs", [
    ("barotropic", {}),
    ("barotropic", {"pressure": "p0*rho^2"}),
    ("isentropic", {}),
    ("threadline", {}),
])
def test_hinted_frames_pass_residual_gates(name, kwargs):
    entry = models.build(name, **kwargs)
    sys_ = entry.system
    field = eigen.AnalyticFrameField(sys_)
    count = 0
    for row in sys_.sample_points(SamplePlan(count=200, seed=13)):
        if sys_.is_excluded(row[0], row[1], row[2:]):
            continue
        field.frame_at(row[0], row[1], row[2:])  # raises HintInconsistent on failure
        count += 1
    assert count >= 150


def test_barotropic_cubic_has_transform_hints():
    entry = models.build_barotropic("p0*rho^3")
    assert "transformHint" in entry.document
    assert "inverseHint" in entry.document
    assert "decoupledHint" in entry.document


def test_barotropic_noncubic_has_no_transform_hint():
    entry = models.build_barotropic("p0*rho^2")
    assert "transformHint" not in entry.document
    entry2 = models.build_barotropic("p0*rho^3 + rho")
    assert "transformHint" not in entry2.document


def test_barotropic_search_outcomes():
    cubic = models.build_barotropic("p0*rho^3").system
    found = cond.search_partitions(cubic, SamplePlan(count=60), mode="full")
    assert [tuple(map(tuple, s.blocks)) for s, _ in found] == [((0,), (1,))]
    quad = models.build_barotropic("p0*rho^2").system
    assert cond.search_partitions(quad, SamplePlan(count=60), mode="full") == []


def test_barotropic_negative_pressure_slope_excluded_everywhere():
    entry = models.build_barotropic("-p0*rho^2")
    sys_ = entry.system
    excluded = sum(
        sys_.is_excluded(r[0], r[1], r[2:])
        for r in sys_.sample_points(SamplePlan(count=50)))
    assert excluded == 50


def test_threadline_inverse_linear_tension_is_triangular():
    entry = models.build_threadline(k=1.0)
    A = entry.system.eval_matrix(0, 0, np.array([1.0, 0.3, 0.1, 0.2]))
    assert np.max(np.abs(A[:2, 2:])) == 0.0
    assert "autovectorHint" in entry.document
    assert entry.document["partitionHint"]["blocks"] == [[0, 1], [2, 3]]


def test_threadline_general_tension_breaks_structure():
    entry = models.build_threadline(k=1.0, tension="k*m")
    sys_ = entry.system
    assert "autovectorHint" not in entry.document
    # T' = k > 0 excludes the box via the hyperbolicity predicate
    excl = sum(sys_.is_excluded(r[0], r[1], r[2:])
               for r in sys_.sample_points(SamplePlan(count=30)))
    assert excl == 30
    p = cond.PartitionScheme([[0, 1], [2, 3]], "partial")
    report = cond.check_partition(sys_, p, SamplePlan(count=30), frame="numeric")
    assert report.verdict == "fail"


def test_threadline_general_tension_matrix_formulas():
    # square-law tension keeps -T' > 0 and matches hand-computed entries
    entry = models.build_threadline(k=1.0, tension="k/m^2")
    sys_ = entry.system
    rho, Vx, v, eps = 1.2, 0.4, -0.1, 0.3
    m = rho / np.sqrt(1 + eps**2)
    T = 1.0 / m**2
    Tp = -2.0 / m**3
    A = sys_.eval_matrix(0, 0, np.array([rho, Vx, v, eps]))
    assert A[1, 0] == pytest.approx(-Tp / (rho * (1 + eps**2)), rel=1e-12)
    assert A[1, 3] == pytest.approx(eps / (1 + eps**2) ** 2 * (Tp + T / m), rel=1e-12)
    assert A[2, 3] == pytest.approx(Vx**2 - T / (m * (1 + eps**2)), rel=1e-12)
    assert A[3, 2] == -1.0


def test_isentropic_builder_f_variants():
    e1 = models.build_isentropic("s")
    e2 = models.build_isentropic("s^2")
    a1 = e1.system.eval_matrix(0, 0, np.array([1.0, 0.0, 1.0]))
    a2 = e2.system.eval_matrix(0, 0, np.array([1.0, 0.0, 1.0]))
    # f enters only through p_s: entry (1, 2) = (2 p0 rho^3 s + f'(s))/rho
    assert a1[1, 2] == pytest.approx(3.0)
    assert a2[1, 2] == pytest.approx(4.0)
    assert a1[1, 0] == a2[1, 0] == pytest.approx(3.0)


def test_synthetic_triangular_structure():
    tri, maps, entry = models.build_synthetic_triangular(seed=2, n=4,
                                                         block_sizes=(2, 2))
    # upper blocks are identically zero
    u = np.array([0.3, -0.2, 0.5, 0.1])
    A = tri.eval_matrix(0, 0, u)
    assert np.max(np.abs(A[:2, 2:])) == 0.0
    # eigenvalues real, distinct and well separated on the box
    w = np.linalg.eigvals(A)
    assert np.max(np.abs(w.imag)) <= 1e-10
    ws = np.sort(w.real)
    assert np.min(np.diff(ws)) >= 1.0


def test_synthetic_reproducible_by_seed():
    _, _, e1 = models.build_synthetic_triangular(seed=9, n=3, block_sizes=(1, 2))
    _, _, e2 = models.build_synthetic_triangular(seed=9, n=3, block_sizes=(1, 2))
    u = np.array([0.1, -0.4, 0.6])
    np.testing.assert_array_equal(e1.system.eval_matrix(0, 0, u),
                                  e2.system.eval_matrix(0, 0, u))


@pytest.mark.parametrize("with_source", [False, True], ids=["homogeneous", "sourced"])
@pytest.mark.parametrize("n,block_sizes", [(3, (2, 1)), (3, (1, 1, 1)),
                                           (4, (2, 2)), (4, (1, 1, 2))],
                         ids=["2+1", "1+1+1", "2+2", "1+1+2"])
def test_emit_synthetic_document_round_trip(n, block_sizes, with_source):
    doc = models.emit_synthetic_document(4, n, block_sizes, with_source=with_source)
    sys_ = load_system(json.dumps(doc))
    _, _, entry = models.build_synthetic_triangular(4, n, block_sizes, with_source=with_source)
    w = np.random.default_rng(3).normal(size=n)
    for row in sys_.sample_points(SamplePlan(count=20, seed=3)):
        u = row[2:]
        for method, args in (("eval_matrix", ()), ("eval_source", ()),
                             ("directional_matrix_derivative", (w,))):
            np.testing.assert_allclose(getattr(sys_, method)(0, 0, u, *args),
                                       getattr(entry.system, method)(0, 0, u, *args),
                                       rtol=1e-9, atol=1e-9, err_msg=method)


def _tree_text(doc):
    """doc with each definition name in A0, A and g replaced by its text in
    parentheses: the tree text of the document, up to redundant
    parentheses."""
    expanded = {}

    def expand(text):
        return re.sub(r"[A-Za-z_][A-Za-z_0-9]*",
                      lambda m: f"({expanded[m.group()]})" if m.group() in expanded
                      else m.group(), text)

    for name, text in doc["definitions"].items():
        expanded[name] = expand(text)
    tree = {k: v for k, v in doc.items() if k != "definitions"}
    for key in ("A0", "A"):
        tree[key] = [[expand(text) for text in row] for row in doc[key]]
    if "g" in doc:
        tree["g"] = [expand(text) for text in doc["g"]]
    return tree


@pytest.mark.parametrize("with_source", [False, True], ids=["homogeneous", "sourced"])
@pytest.mark.parametrize("seed,n,block_sizes", [(0, 3, (2, 1)), (5, 3, (1, 1, 1)),
                                                (1, 4, (2, 2)), (2, 4, (1, 1, 2))],
                         ids=["2+1", "1+1+1", "2+2", "1+1+2"])
def test_emitted_definitions_load_to_the_nodes_of_the_tree_text(seed, n, block_sizes,
                                                                 with_source):
    doc = models.emit_synthetic_document(seed, n, block_sizes, with_source=with_source)
    names = list(doc["definitions"])
    # sorted keys keep the definitions in order, and no name is taken
    assert names == sorted(names)
    assert not set(names) & {*doc["states"], "t", "x", *ex.FUNCTIONS}
    tree_doc = _tree_text(doc)
    graph, tree = load_system(json.dumps(doc, sort_keys=True)), load_system(tree_doc)
    for key in ("a", "a0"):
        assert all(x is y for ra, rb in zip(getattr(graph, key), getattr(tree, key))
                   for x, y in zip(ra, rb))
    assert all(x is y for x, y in zip(graph.g, tree.g))
    # the definitions are exactly the inner nodes used twice or more
    rows = graph.a0 + graph.a + ([graph.g] if with_source else [])
    counts = ex.use_counts([e for row in rows for e in row])
    assert len(names) == sum(k > 1 for e, k in counts.items() if isinstance(e, (ex.Un, ex.Bin)))
    assert 5 * len(json.dumps(doc)) < len(json.dumps(tree_doc))


def test_decoupled_system_helper():
    entry = models.build_barotropic("p0*rho^3")
    dec = models.decoupled_system(entry.document)
    assert dec.states == ["U1", "U2"]
    A = dec.eval_matrix(0, 0, np.array([0.7, -0.3]))
    np.testing.assert_allclose(A, [[0.7, 0.0], [0.0, -0.3]])
    with pytest.raises(SchemaError):
        models.decoupled_system(models.build_isentropic().document)


def test_synthetic_retry_exhausted():
    from qldecouple.errors import RetryExhausted

    with pytest.raises(RetryExhausted):
        models.build_synthetic_triangular(seed=1, n=3, block_sizes=(2, 1),
                                          max_retries=0)


def test_synthetic_bad_block_sizes():
    with pytest.raises(SchemaError):
        models.build_synthetic_triangular(seed=1, n=3, block_sizes=(2, 2))


@pytest.mark.parametrize("sizes, defect", [((3,), 0.0), ((3,), 0.2), ((2, 0, 1), 0.0)])
def test_synthetic_blocks_form_a_partition(sizes, defect):
    # one block leaves nothing to decouple (and no later block for a defect
    # to use); an empty block is no block
    with pytest.raises(SchemaError):
        models.build_synthetic_triangular(seed=1, n=3, block_sizes=sizes,
                                          off_block_defect=defect)
