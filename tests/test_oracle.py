import numpy as np
import pytest
import scipy.sparse as sp

import chains
from walkport import oracle
from walkport.errors import DimensionOverflow
from walkport.hilbert import RegisterLayout, lattice
from walkport.protocols import (
    PROTOCOL_IDS,
    build_initial,
    get_protocol,
    random_payload,
    run_walks,
    seeded_payloads,
)


def test_densify_one_hot_indexing():
    spec = oracle.oracle_spec("line1q")
    state = build_initial(spec, random_payload(np.random.default_rng(0), 1))
    # Origin label sits at the index encoding (B, B, i, 0, j, 0).
    vec = oracle.densify(state)
    idx = oracle.label_to_index(spec.layout, (0, 0, 0, 0, 0, 0))
    assert abs(vec[idx] - state.amplitude((0, 0, 0, 0, 0, 0))) < 1e-15
    assert oracle.index_to_label(spec.layout, idx) == (0, 0, 0, 0, 0, 0)


def test_densify_sparsify_roundtrip_random_vectors():
    spec = oracle.oracle_spec("cycle1q")
    dim = oracle.layout_dim(spec.layout)
    rng = np.random.default_rng(1)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vec /= np.linalg.norm(vec)
    back = oracle.densify(oracle.sparsify(vec, spec.layout, tol=0.0))
    assert np.abs(back - vec).max() < 1e-14


def test_final_state_roundtrips_with_16_nonzeros():
    spec = get_protocol("line1q")
    state = run_walks(spec, random_payload(np.random.default_rng(2), 1))
    vec = oracle.densify(state)
    assert int(np.count_nonzero(np.abs(vec) > 1e-12)) == 16
    assert oracle.sparsify(vec, spec.layout).allclose(state, tol=1e-14)


def test_dimension_cap():
    layout = RegisterLayout([lattice("p", 1 << 30)])
    with pytest.raises(DimensionOverflow):
        oracle.check_dim(layout)


def test_step_matrix_reproduces_first_transition():
    spec = oracle.oracle_spec("line1q")
    payload = random_payload(np.random.default_rng(3), 1)
    vec = oracle.densify(build_initial(spec, payload))
    out = oracle.cached_step_matrix(spec, 0) @ vec
    expected = chains.expected_state(chains.LINE_STAGE1, payload, 1.0)
    got = oracle.sparsify(out, spec.layout)
    assert len(got) == 4
    for label, amp in expected.items():
        assert abs(got.amplitude(label) - amp) < 1e-12


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_step_matrices_unitary(pid):
    spec = oracle.oracle_spec(pid)
    for k in range(4):
        defect = oracle.cached_unitarity_defect(spec, k)
        assert defect < 1e-10
        assert defect == oracle.unitarity_defect(oracle.step_matrix(spec, k))


@pytest.fixture
def fresh_defect_cache():
    """An empty defect cache, emptied again so no faked defect outlives the test."""
    oracle.cached_unitarity_defect.cache_clear()
    yield
    oracle.cached_unitarity_defect.cache_clear()


def test_defect_computed_once_per_protocol_bound_and_step(fresh_defect_cache, monkeypatch):
    calls = []

    def counting(matrix):
        calls.append(matrix.shape[0])
        return 0.0

    monkeypatch.setattr(oracle, "unitarity_defect", counting)
    small, large = oracle.oracle_spec("line1q", 3), oracle.oracle_spec("line1q", 4)
    for _ in range(2):
        for spec in (small, large):
            for k in range(4):
                oracle.cached_unitarity_defect(spec, k)
    dims = [oracle.layout_dim(small.layout), oracle.layout_dim(large.layout)]
    assert dims[0] != dims[1]
    assert calls == [dims[0]] * 4 + [dims[1]] * 4


def _plain_kron_chain(factors):
    out = None
    for factor in factors:
        if isinstance(factor, int):
            factor = sp.identity(factor, dtype=complex, format="csr")
        out = factor if out is None else sp.kron(out, factor, format="csr")
    return out.tocsr()


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_step_matrix_bitwise_equal_to_plain_kron_chain(pid, monkeypatch):
    spec = oracle.oracle_spec(pid)
    built = [oracle.cached_step_matrix(spec, k) for k in range(4)]
    monkeypatch.setattr(oracle, "_kron_chain", _plain_kron_chain)
    for k, matrix in enumerate(built):
        reference = oracle.step_matrix(spec, k)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(matrix, name), getattr(reference, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def step_matrix_dense(spec, step_index: int, cap: int = 4096) -> np.ndarray:
    """Dense ndarray form of a step matrix, for small spaces only."""
    dim = oracle.layout_dim(spec.layout)
    if dim > cap:
        raise DimensionOverflow(f"dense ndarray of dimension {dim} exceeds cap {cap}")
    return oracle.step_matrix(spec, step_index).toarray()


def test_dense_matrix_form_for_small_spaces():
    spec = oracle.oracle_spec("cycle1q")
    mat = step_matrix_dense(spec, 0)
    assert mat.shape == (256, 256)
    assert np.abs(mat.conj().T @ mat - np.eye(256)).max() < 1e-12
    big = oracle.oracle_spec("single2q")
    with pytest.raises(DimensionOverflow):
        step_matrix_dense(big, 0)


@pytest.mark.parametrize("pid", PROTOCOL_IDS)
def test_dense_path_matches_sparse_engine(pid):
    spec = get_protocol(pid)
    ospec = oracle.oracle_spec(pid)
    for payload in seeded_payloads(9, 5, spec.qubits):
        dense = oracle.dense_run(ospec, payload)
        sparse = run_walks(spec, payload)
        keys = set(dense.amps) | set(sparse.amps)
        delta = max(abs(dense.amplitude(k) - sparse.amplitude(k)) for k in keys)
        assert delta < 1e-10


def test_matrix_product_equals_run_walks():
    spec = oracle.oracle_spec("line1q")
    payload = random_payload(np.random.default_rng(4), 1)
    vec = oracle.densify(build_initial(spec, payload))
    for k in range(4):
        vec = oracle.cached_step_matrix(spec, k) @ vec
    final = run_walks(get_protocol("line1q"), payload)
    got = oracle.sparsify(vec, spec.layout)
    keys = set(got.amps) | set(final.amps)
    assert max(abs(got.amplitude(k) - final.amplitude(k)) for k in keys) < 1e-10
