"""The t = 2 classification: option lists, counts, enumeration, oracle."""

import itertools
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from addcyc import bilinear, classify, codes, gf, linalg
from addcyc.bilinear import DeltaContext, context
from addcyc.cli import main
from addcyc.errors import InvalidParameterError, TooLargeError
from addcyc.ring import CyclicRing
from addcyc.structure import IdealAtlas
from test_kernels import reference_rref


CTX73 = context(7, 3, 2, paper=True)

#: instances whose published option lists are complete as printed
#: (even base cardinality, and any transposed pair has odd d_j)
PUBLISHED_EXACT = [(3, 2), (5, 2), (7, 2), (9, 2), (11, 2)]
#: odd q: the published identity-class list omits the isotropic
#: prime-subfield option; complete=True restores it
PUBLISHED_UNDERCOUNTS = [(7, 3), (5, 3), (3, 5), (1, 3), (4, 3), (8, 3)]


def reduced_rows(choices, ctx):
    """The reduced rows (RREF, zero rows dropped) of each choice, one
    choice at a time."""
    return [linalg.row_space(ctx.field_q, classify.component_rows(c, ctx)) for c in choices]


def test_subcode_options_identity_class():
    opts = classify.subcode_options(0, "so", CTX73)
    assert [o.kind for o in opts] == ["zero", "dim1"]
    # q odd: exponent (q+1)/2, i.e. rho^2 = w^2 * e
    w2 = CTX73.field_qt.pow(CTX73.field_qt.generator, 2)
    assert opts[1].vector == CTX73.atlas.idempotent(0, 0).scale(w2)
    sd = classify.subcode_options(0, "sd", CTX73)
    assert [o.kind for o in sd] == ["dim1"]
    # complete mode adds the prime-subfield option
    comp = classify.subcode_options(0, "so", CTX73, complete=True)
    assert [o.kind for o in comp] == ["zero", "dim1", "dim1"]
    assert comp[1].vector == CTX73.atlas.idempotent(0, 0)


def test_subcode_options_swap_class():
    opts = classify.subcode_options(1, "so", CTX73)
    # zero, e_{1,0}, e_{1,1}, and e_{1,0} + rho_{1,1}^(28m) for 0 <= m <= 25
    assert len(opts) == 1 + 2 + 26
    e0, e1 = CTX73.atlas.idempotent(1, 0), CTX73.atlas.idempotent(1, 1)
    rho1 = CTX73.atlas.rho(1, 1)
    assert opts[1].vector == e0 and opts[2].vector == e1
    step = rho1.pow_with_identity(28, e1)
    cur = e1
    for k, choice in enumerate(opts[3:]):
        assert choice.vector == e0 + cur
        cur = cur * step
    # self-dual mode drops only the zero option
    assert len(classify.subcode_options(1, "sd", CTX73)) == 28


def test_subcode_options_q_even():
    ctx = context(3, 2, 2, paper=True)
    opts = classify.subcode_options(0, "so", ctx)
    assert [o.kind for o in opts] == ["zero", "dim1"]
    # k = 0 when q is even: the idempotent itself
    assert opts[1].vector == ctx.atlas.idempotent(0, 0)
    # complete mode adds nothing for even q
    assert len(classify.subcode_options(0, "so", ctx, complete=True)) == 2


def test_requires_t2():
    ctx4 = context(5, 2, 4)
    with pytest.raises(InvalidParameterError):
        classify.count_codes(5, 2, "so", ctx4)
    with pytest.raises(InvalidParameterError):
        list(classify.enumerate_codes(5, 2, "so", ctx4))


def test_context_must_be_for_the_given_parameters():
    """A context built for another (n, q) is refused, not silently used:
    with the (7, 3) context these calls used to count, list and scan the
    (7, 3) codes (58, 58 codes of length 7, 87)."""
    ctx73 = context(7, 3, 2)
    with pytest.raises(InvalidParameterError):
        classify.count_codes(11, 3, "so", ctx73)
    with pytest.raises(InvalidParameterError):
        next(classify.enumerate_codes(11, 3, "so", ctx73))
    with pytest.raises(InvalidParameterError):
        classify.brute_force_oracle(5, 3, "so", ctx73)
    with pytest.raises(InvalidParameterError):
        classify.good_code_report(11, 3, ctx73)


def test_counts_reference():
    assert classify.count_codes(7, 3, "so", CTX73) == 58
    assert classify.count_codes(7, 3, "sd", CTX73) == 28
    ctx32 = context(3, 2, 2, paper=True)
    assert classify.count_codes(3, 2, "so", ctx32) == 8   # 2 * (2 + 2)
    assert classify.count_codes(3, 2, "sd", ctx32) == 3


def test_counts_big_integers():
    # counts overflow 32/64-bit ranges for moderately long lengths; stay exact
    ctx = context(47, 2, 2)
    tab = ctx.table
    assert tab.paired == (1,) and tab.d[1] == 23
    assert classify.count_codes(47, 2, "so", ctx) == 2 * (3 * 2 ** 23 + 6)
    assert classify.count_codes(47, 2, "sd", ctx) == 2 ** 23 + 3
    ctx2 = context(49, 3, 2)
    tab2 = ctx2.table
    assert tab2.fixed == (1, 2) and tab2.d[1] == 42
    # 49 splits off the length-7 classes as well; evaluate the closed form
    want = 2
    for i in tab2.fixed:
        want *= 3 ** (tab2.d[i] // 2) + 2
    assert classify.count_codes(49, 3, "so", ctx2) == want
    assert want > 2 ** 34


@pytest.mark.parametrize("n, q", [(7, 3), (8, 3), (15, 2)])
def test_counts_with_and_without_a_context_agree(n, q):
    ctx = context(n, q, 2)
    for mode, complete in itertools.product(("so", "sd"), (False, True)):
        assert (classify.count_codes(n, q, mode, complete=complete)
                == classify.count_codes(n, q, mode, ctx, complete=complete))


def test_counting_builds_no_context(monkeypatch, capsys):
    """Without a context, count_codes and the count command read only the
    coset table; a DeltaContext at q = 4093 or 16381 tabulates q^2 elements."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a DeltaContext was built")

    monkeypatch.setattr(bilinear.DeltaContext, "__init__", refuse)
    q = 4093  # 4093 = 5 (mod 7) generates Z_7^*: one fixed class, d = 6
    got = [classify.count_codes(7, q, mode, complete=complete)
           for mode in ("so", "sd") for complete in (False, True)]
    assert got == [2 * (q ** 3 + 2), 3 * (q ** 3 + 2), q ** 3 + 1, 2 * (q ** 3 + 1)]
    q = 16381  # 16381 = 1 (mod 7): three transposed pairs, d = 1
    assert main(["count", "-n", "7", "-q", str(q)]) == 0
    assert capsys.readouterr().out.strip() == str(2 * (3 * q + 6) ** 3)


@pytest.mark.parametrize("n,q,want", [
    (49, 3, [606700485890, 910050728835, 292889889712, 585779779424]),
    (47, 2, [50331660, 50331660, 8388611, 8388611]),
    (11, 5, [18762, 28143, 3128, 6256]),
])
def test_counting_never_builds_the_atlas(n, q, want):
    ctx = DeltaContext(n, q, 2)
    got = [classify.count_codes(n, q, mode, ctx, complete=complete)
           for mode in ("so", "sd") for complete in (False, True)]
    assert got == want
    assert ctx._atlas is None


def test_sd_enumeration_matches_the_count_at_11_5_and_23_2():
    """The splitting fields GF(5^10) and GF(2^22) are above the table limit;
    rho is found inside each ideal, so the complete enumeration runs there
    and yields every code the count promises, each self-dual."""
    for n, q in [(11, 5), (23, 2)]:
        ctx = DeltaContext(n, q, 2)
        got = list(classify.enumerate_codes(n, q, "sd", ctx, complete=True))
        assert len(got) == classify.count_codes(n, q, "sd", ctx, complete=True)
        assert len({C.key() for C in got}) == len(got)
        assert all(codes.is_self_dual(C) for C in got)
        assert ctx.table is ctx.atlas.table


def test_code_sets_do_not_depend_on_rho():
    """At (7, 3, paper), replacing every rho_{i,j} by rho_{i,j}^u for each u
    coprime to 728 = 3^6 - 1 (every primitive choice, among them the element
    the worked example evaluates to generator^243) leaves each list of lines
    unchanged:
    one_dim_subspaces and subcode_options, published and complete, compared
    as sets of reduced row spaces; the lines of each list are distinct."""
    ctx = DeltaContext(7, 3, 2, paper=True)
    atlas = ctx.atlas
    rho = {ij: atlas.rho(*ij) for ij in atlas.idempotents}
    spaces = {}

    def line_sets():
        out = []
        for i in range(atlas.table.num_classes):
            lists = [classify.one_dim_subspaces(i, ctx)] + [
                classify.subcode_options(i, mode, ctx, complete=complete)
                for mode in ("so", "sd") for complete in (False, True)]
            for choices in lists:
                # a choice's row space depends only on its kind and vector
                key = frozenset((c.kind, c.vector) for c in choices)
                if key not in spaces:
                    spaces[key] = frozenset(R.tobytes() for R in reduced_rows(choices, ctx))
                assert len(spaces[key]) == len(choices)
                out.append(spaces[key])
        return out

    want = line_sets()
    for u in range(2, 728):
        if math.gcd(u, 728) == 1:
            atlas._rho = {ij: r.pow_with_identity(u, atlas.idempotent(*ij))
                          for ij, r in rho.items()}
            assert line_sets() == want


def test_pair_options_rejects_a_fixed_class():
    assert CTX73.table.mu[1] == 1
    for mode in ("so", "sd"):
        with pytest.raises(InvalidParameterError):
            classify.pair_options(1, mode, CTX73)
    ctx72 = context(7, 2, 2, paper=True)
    with pytest.raises(InvalidParameterError):
        classify.subcode_options(1, "so", ctx72)  # and the converse


@pytest.mark.parametrize("n,q", PUBLISHED_EXACT + PUBLISHED_UNDERCOUNTS)
def test_enumeration_matches_its_count(n, q):
    ctx = context(n, q, 2, paper=True)
    for mode in ("so", "sd"):
        for complete in (False, True):
            if (n, q) == (8, 3) and not complete:
                continue  # mixed regime: see test_published_pair_lists below
            want = classify.count_codes(n, q, mode, ctx, complete=complete)
            got = sum(1 for _ in classify.enumerate_codes(n, q, mode, ctx,
                                                          complete=complete))
            assert got == want, (n, q, mode, complete)


def test_published_pair_lists():
    # for an even-d transposition the published closed form undercounts even
    # the published-option enumeration (its pair bookkeeping is inconsistent);
    # the complete variants and the oracle agree with each other
    ctx = context(8, 3, 2)
    assert classify.count_codes(8, 3, "so", ctx) == 580
    assert sum(1 for _ in classify.enumerate_codes(8, 3, "so", ctx)) == 660


@pytest.mark.parametrize("n,q", [(3, 2), (5, 2), (7, 2), (7, 3), (5, 3), (3, 5), (4, 3)])
def test_complete_enumeration_equals_oracle(n, q):
    ctx = context(n, q, 2, paper=True)
    for mode in ("so", "sd"):
        keys = set(c.key() for c in classify.enumerate_codes(n, q, mode, ctx,
                                                             complete=True))
        count, oracle_keys = classify.brute_force_oracle(n, q, mode, ctx)
        assert keys == oracle_keys
        assert len(keys) == count == classify.count_codes(n, q, mode, ctx, complete=True)


@pytest.mark.parametrize("n,q", PUBLISHED_EXACT)
def test_published_formula_exact_on_even_q(n, q):
    ctx = context(n, q, 2, paper=True)
    for mode in ("so", "sd"):
        count, _ = classify.brute_force_oracle(n, q, mode, ctx)
        assert count == classify.count_codes(n, q, mode, ctx)


def test_oracle_reference_discrepancy():
    # ground truth at (7, 3): the brute force finds 87 / 56, the published
    # closed forms give 58 / 28; the published codes are a strict subset
    so, so_keys = classify.brute_force_oracle(7, 3, "so", CTX73)
    sd, sd_keys = classify.brute_force_oracle(7, 3, "sd", CTX73)
    assert (so, sd) == (87, 56)
    pub_so = set(c.key() for c in classify.enumerate_codes(7, 3, "so", CTX73))
    pub_sd = set(c.key() for c in classify.enumerate_codes(7, 3, "sd", CTX73))
    assert len(pub_so) == 58 and len(pub_sd) == 28
    assert pub_so < so_keys and pub_sd < sd_keys
    # every extra code is genuinely self-orthogonal: check it against its dual
    extra = [k for k in so_keys - pub_so]
    assert len(extra) == 29
    for shape, data in extra:
        C = codes.AdditiveCode.from_expansion(
            CTX73, np.frombuffer(data, dtype=np.int64).reshape(shape))
        assert C.key() == (shape, data)
        assert C.is_subspace_of(codes.dual_delta(C))


def test_enumerated_codes_are_sound():
    # soundness via the dual: C subset of its dual (and equality for sd)
    for C in classify.enumerate_codes(7, 3, "so", CTX73, complete=True):
        assert C.is_subspace_of(codes.dual_delta(C))
    for C in classify.enumerate_codes(7, 3, "sd", CTX73, complete=True):
        assert codes.dual_delta(C) == C


def test_sd_subset_of_so():
    so = set(c.key() for c in classify.enumerate_codes(7, 3, "so", CTX73))
    sd = set(c.key() for c in classify.enumerate_codes(7, 3, "sd", CTX73))
    assert sd < so


def test_duality_dimension_identity_on_enumerated():
    tab = CTX73.atlas.table
    for C in classify.enumerate_codes(7, 3, "so", CTX73):
        D = codes.dual_delta(C)
        kc = codes.decompose(C).k_over_K
        kd = codes.decompose(D).k_over_K
        assert all(kc[i] + kd[tab.mu[i]] == 2 for i in range(tab.num_classes))


def test_pair_options_structure():
    # (7, 2): transposed pair with odd d: every 1-dim choice has exactly one
    # nonzero partner, and the pair count matches the closed form
    ctx = context(7, 2, 2, paper=True)
    pairs = classify.pair_options(1, "so", ctx)
    assert len(pairs) == 3 * 2 ** 3 + 6
    sd_pairs = classify.pair_options(1, "sd", ctx)
    assert len(sd_pairs) == 2 ** 3 + 3
    # each pair assembles to a self-orthogonal two-component code
    for cj, cmu in pairs[:20]:
        import numpy as np
        rows = np.concatenate([classify.component_rows(cj, ctx),
                               classify.component_rows(cmu, ctx)], axis=0)
        code = codes.AdditiveCode.from_expansion(ctx, rows)
        assert codes.is_self_orthogonal(code)


def test_oracle_too_large(monkeypatch):
    """At (11, 7) the table of the 7^10 + 3 choices of class 1 is past the
    limit; it is refused before any choice rows are built."""
    ctx = context(11, 7, 2)
    monkeypatch.setattr(classify, "_choice_rows", lambda *args: pytest.fail("rows built"))
    with pytest.raises(TooLargeError, match="282475252"):
        classify.brute_force_oracle(11, 7, "so", ctx)


def refuse(*args, **kwargs):
    raise AssertionError("refused call")


@pytest.mark.parametrize("n,q,i,mode,size", [(47, 3, 1, "so", 3 ** 23 + 3),
                                             (83, 2, 1, "sd", 2 ** 41 + 1)])
def test_option_lists_past_the_limit_are_refused_before_any_row(n, q, i, mode, size,
                                                                monkeypatch):
    """Class 1 is a transposed pair at (47, 3) and mu-fixed at (83, 2); its
    list length comes from the coset table, and the public option list and
    the enumeration refuse it before a row is built."""
    ctx = context(n, q, 2)
    monkeypatch.setattr(classify, "_fixed_options", refuse)
    monkeypatch.setattr(classify, "_pairs", refuse)
    options = classify.subcode_options if ctx.table.mu[i] == i else classify.pair_options
    with pytest.raises(TooLargeError, match=f"class {i} lists {size} "):
        options(i, mode, ctx)
    with pytest.raises(TooLargeError, match=f"class {i} lists {size} "):
        next(classify.enumerate_codes(n, q, mode, ctx))


def test_oracle_refuses_a_component_of_three_classes():
    hits = np.eye(4, dtype=bool)
    hits[0, 1] = hits[2, 1] = True
    assert classify._components(hits[:2, :2]) == [(0, 1)]
    with pytest.raises(TooLargeError, match="interacts with classes"):
        classify._components(hits)


@pytest.mark.parametrize("n,q,mode,count", [(13, 3, "so", 22_707), (13, 3, "sd", 1_800),
                                            (21, 2, "sd", 2_211)])
def test_oracle_reaches_past_the_grid(n, q, mode, count):
    """The factorised oracle answers where the grid of all cyclic codes
    (4.9e6 at (13, 3), 1.9e7 at (21, 2)) is past the limit, and agrees with
    the complete enumeration and count.  (21, 2) "so" agrees too, but its
    enumeration takes seconds."""
    ctx = context(n, q, 2)
    keys = {c.key() for c in classify.enumerate_codes(n, q, mode, ctx, complete=True)}
    got, oracle_keys = classify.brute_force_oracle(n, q, mode, ctx)
    assert oracle_keys == keys
    assert got == len(keys) == classify.count_codes(n, q, mode, ctx, complete=True) == count


@pytest.mark.parametrize("n,q", [(15, 2), (7, 4), (7, 3), (13, 3)])
def test_oracle_tables_only_for_transposed_pairs(n, q, monkeypatch):
    """The full-J blocks are nonzero off the diagonal exactly at the
    transposed pairs (j, mu(j)) and (mu(j), j), and the oracle builds a
    choice-pair table for those ordered pairs only."""
    ctx = DeltaContext(n, q, 2)
    tab = ctx.table
    want = {(j, tab.mu[j]) for j in tab.paired} | {(tab.mu[j], j) for j in tab.paired}
    hits = classify._full_block_hits(ctx)
    assert {(int(i), int(j)) for i, j in zip(*np.nonzero(hits)) if i != j} == want
    built, raw = [], classify._cross_bad

    def counted(i, j, *args):
        built.append((i, j))
        return raw(i, j, *args)

    monkeypatch.setattr(classify, "_cross_bad", counted)
    classify.brute_force_oracle(n, q, "so", ctx)
    assert sorted(built) == sorted(want)


def test_oracle_builds_class_rows_once_for_both_modes(monkeypatch):
    """The second mode reuses the context's choice rows, held in the field's
    narrow dtype."""
    ctx = DeltaContext(15, 2, 2)
    calls, raw = [], classify._choice_rows

    def counted(i, ctx, *args):
        calls.append(i)
        return raw(i, ctx, *args)

    monkeypatch.setattr(classify, "_choice_rows", counted)
    assert classify.brute_force_oracle(15, 2, "so", ctx)[0] == 2_592
    classify.brute_force_oracle(15, 2, "sd", ctx)
    assert calls == list(range(ctx.table.num_classes))
    groups, _, _ = ctx.derived["oracle_scan"]
    assert all(flat.dtype == ctx.field_q.vdtype for flat, _ in groups)


@pytest.mark.parametrize("n,q", [(15, 2), (7, 4), (9, 4)])
def test_oracle_needs_no_primitive_element(n, q, monkeypatch):
    """The oracle lists every K_i-subspace from the basis {f_i, g * f_i}
    and spans it by shifts: in either mode it takes no rho, no rho powers
    and no group-algebra product, and it finds the enumeration's codes."""
    want = {mode: {c.key() for c in classify.enumerate_codes(n, q, mode, DeltaContext(n, q, 2),
                                                             complete=True)}
            for mode in ("so", "sd")}
    ctx = DeltaContext(n, q, 2)
    ctx.atlas   # the atlas checks its idempotents by ring products
    monkeypatch.setattr(IdealAtlas, "rho", refuse)
    monkeypatch.setattr(classify, "_one_dim_rows", refuse)
    monkeypatch.setattr(CyclicRing, "mul_rows", refuse)
    monkeypatch.setattr(gf, "_doubling", refuse)
    for mode in ("so", "sd"):
        count, keys = classify.brute_force_oracle(n, q, mode, ctx)
        assert count == len(want[mode]) and keys == want[mode], mode


def test_good_code_report_reference():
    report = classify.good_code_report(7, 3, CTX73)
    assert len(report) == 58
    assert any(r["k_fq"] == 6 and r["d"] == 5 and r["d_exact"] for r in report)
    # the zero code has no d; every other d is proved within the default budget
    assert report[0]["d"] is report[0]["d_lb"] is None
    assert all(r["d_exact"] and r["d_lb"] == r["d"] for r in report[1:])
    ctx112 = context(11, 2, 2, paper=True)
    report112 = classify.good_code_report(11, 2, ctx112)
    assert any(r["k_fq"] == 10 and r["d"] == 6 and r["d_exact"] for r in report112)
    assert len(report112) == classify.count_codes(11, 2, "so", ctx112)


def test_good_code_report_finds_19_2_row():
    # the d = 8 code at (19, 2) appears in the classified stream (running the
    # full report with exact distances is deliberately avoided here: it scans
    # 2^18 words for each of 1028 codes)
    from addcyc import refdata
    ctx = context(19, 2, 2, paper=True)
    target = codes.cyclic_span(refdata.row_for(2, 19).generator, ctx)
    assert any(C == target for C in classify.enumerate_codes(19, 2, "so", ctx))
    d, exact = codes.min_distance(target)
    assert (d, exact) == (8, True)


@pytest.mark.parametrize("n,q", [(3, 4), (2, 9), (5, 4)])
def test_prime_power_base_cardinality(n, q):
    # q = p^e with e > 1 exercises the extension-field F_q lane end to end:
    # coordinate expansion over F_q, row reduction over a tabled field, and
    # the component dimension bookkeeping (dim_Fq K_i = d_i, not d_i * e)
    ctx = context(n, q, 2)
    for mode in ("so", "sd"):
        pkeys = set(c.key() for c in classify.enumerate_codes(n, q, mode, ctx))
        assert len(pkeys) == classify.count_codes(n, q, mode, ctx)
        ckeys = set(c.key() for c in classify.enumerate_codes(n, q, mode, ctx,
                                                              complete=True))
        count, okeys = classify.brute_force_oracle(n, q, mode, ctx)
        assert ckeys == okeys
        assert count == classify.count_codes(n, q, mode, ctx, complete=True)
    for C in classify.enumerate_codes(n, q, "sd", ctx):
        assert codes.dual_delta(C) == C
        dec = codes.decompose(C)
        assert sum(k * ctx.atlas.table.d[i] for i, k in enumerate(dec.k_over_K)) == C.k


def test_oracle_7_5():
    ctx = context(7, 5, 2, paper=True)
    so, _ = classify.brute_force_oracle(7, 5, "so", ctx)
    sd, _ = classify.brute_force_oracle(7, 5, "sd", ctx)
    assert so == classify.count_codes(7, 5, "so", ctx, complete=True)
    assert sd == classify.count_codes(7, 5, "sd", ctx, complete=True)


@pytest.mark.parametrize("n,q,paper", [(7, 3, True), (7, 3, False), (5, 7, False),
                                       (13, 2, False), (7, 5, False), (15, 2, False),
                                       (7, 4, False)])
def test_one_dim_subspaces_equal_sequential_products(n, q, paper):
    """The doubled powers are the vectors, labels and order of one ring
    product per choice: rho^k from the idempotent, e_0 + rho_1^k from e_1."""
    ctx = context(n, q, 2, paper=paper)
    atlas = ctx.atlas
    for i in range(len(atlas.table.d)):
        got = classify.one_dim_subspaces(i, ctx)
        want = []
        count = q ** atlas.table.d[i]
        if atlas.table.s[i] == 1:
            rho, cur = atlas.rho(i, 0), atlas.idempotent(i, 0)
            for k in range(count + 1):
                want.append((f"rho{i}^{k}", cur))
                cur = cur * rho
        else:
            e0, e1, rho1 = atlas.idempotent(i, 0), atlas.idempotent(i, 1), atlas.rho(i, 1)
            want += [(f"e{i},0", e0), (f"e{i},1", e1)]
            cur = e1
            for k in range(count - 1):
                want.append((f"e{i},0+rho{i},1^{k}", e0 + cur))
                cur = cur * rho1
        assert [(c.label, c.vector) for c in got] == want
        assert all(c.index == i and c.kind == "dim1" for c in got)


@pytest.mark.parametrize("n,q", [(7, 4), (5, 9)])
def test_component_rows_built_once_per_choice(n, q, monkeypatch):
    """Each nonzero component's rows are built exactly once per
    enumeration, in the class stack of its kind: pair_options and the
    profile loop share the reductions."""
    ctx = context(n, q, 2)
    calls = {}
    raw_stack = classify.component_stack

    def counted_stack(i, V, ctx):
        for basis in V:
            key = (i, basis.shape, basis.tobytes())
            calls[key] = calls.get(key, 0) + 1
        return raw_stack(i, V, ctx)

    monkeypatch.setattr(classify, "component_stack", counted_stack)
    keys = {c.key() for c in classify.enumerate_codes(n, q, "so", ctx, complete=True)}
    assert calls and set(calls.values()) == {1}
    count, oracle_keys = classify.brute_force_oracle(n, q, "so", ctx)
    assert keys == oracle_keys and count == len(keys)


@pytest.mark.parametrize("n,q", [(7, 4), (13, 3), (15, 2)])
def test_one_dim_rows_built_once_per_side(n, q, monkeypatch):
    """pair_options builds each side's 1-dimensional coefficient rows once,
    for its class rows and its labels alike: two calls per pair."""
    ctx = context(n, q, 2)
    calls = []
    raw_rows = classify._one_dim_rows

    def counted_rows(i, ctx):
        calls.append(i)
        return raw_rows(i, ctx)

    monkeypatch.setattr(classify, "_one_dim_rows", counted_rows)
    assert ctx.table.paired
    for j in ctx.table.paired:
        for mode in ("so", "sd"):
            calls.clear()
            options = classify.pair_options(j, mode, ctx)
            assert sorted(calls) == sorted([j, ctx.table.mu[j]])
            assert options


@pytest.mark.parametrize("n,q", [(7, 3), (15, 2), (5, 7), (13, 2), (7, 4)])
def test_class_rows_match_the_listed_choices(n, q):
    """The enumeration's class rows, built from coefficient arrays, are
    the reduced rows of the listed subspace choices: same rows, row counts
    and order."""
    ctx = context(n, q, 2)
    for i in range(ctx.table.num_classes):
        flat, dims = classify._class_rows(i, ctx)
        blocks = reduced_rows(classify.all_subspace_choices(i, ctx), ctx)
        assert dims.tolist() == [b.shape[0] for b in blocks]
        assert flat.dtype == np.int64 and flat.tobytes() == np.concatenate(blocks).tobytes()


@pytest.mark.parametrize("n,q", [(7, 3), (15, 2), (5, 7), (7, 4), (13, 2), (9, 4)])
def test_oracle_choices_span_the_class_rows(n, q):
    """The oracle lists the K_i-subspaces of J_i in its own order, from the
    basis {f_i, g * f_i}: each choice's rows have full row rank, no two
    choices span the same subspace, and their reduced row spaces are, as a
    set, the blocks of the enumeration's class rows.  The Gram rows rolled
    from those of the lines' vectors are those of all the rows."""
    ctx = context(n, q, 2)
    groups, _, _ = classify._oracle_scan(ctx)
    for i, (flat, dims) in enumerate(groups):
        assert (classify._choice_gram(ctx, flat, dims) == ctx.gram_apply(flat)).all(), i
        starts, got = np.cumsum(dims) - dims, []
        for r in sorted(set(dims.tolist())):
            idx = np.flatnonzero(dims == r)
            if r == 0:
                got += [(0, b"")] * len(idx)
                continue
            R, ranks = linalg.rref_batch(ctx.field_q, flat[starts[idx, None] + np.arange(r)])
            assert (ranks == r).all(), (i, r)
            got += [(r, Ra.tobytes()) for Ra in R]
        assert len(set(got)) == len(got) == len(dims), i
        want, want_dims = classify._class_rows(i, ctx)
        blocks = np.split(want, np.cumsum(want_dims)[:-1])
        assert set(got) == {(len(b), b.tobytes()) for b in blocks}, i


@pytest.mark.parametrize("n,q", [(15, 2), (5, 7)])
def test_oracle_scan_reduces_no_choice(n, q, monkeypatch):
    """The scan tests the choices' spanning rows as they are built: it
    calls no row reduction."""
    ctx = DeltaContext(n, q, 2)
    ctx.atlas
    calls, raw = [], linalg.rref_batch

    def counted(*args):
        calls.append(args[1].shape)
        return raw(*args)

    monkeypatch.setattr(linalg, "rref_batch", counted)
    classify._oracle_scan(ctx)
    assert calls == []


def test_full_rows_built_once_per_context(monkeypatch):
    """Each class's full-J rows are built once per context: the oracle's
    full choices are the rows that _full_block_hits read."""
    ctx = DeltaContext(15, 2, 2)
    built, raw = [], classify.component_stack

    def counted(i, V, ctx):
        if V.shape == (1, ctx.t, ctx.n):
            built.append(i)
        return raw(i, V, ctx)

    monkeypatch.setattr(classify, "component_stack", counted)
    classify._full_block_hits(ctx)
    for mode in ("so", "sd"):
        classify.brute_force_oracle(15, 2, mode, ctx)
    assert built == list(range(ctx.table.num_classes))
    groups, _, _ = ctx.derived["oracle_scan"]
    for i, (flat, dims) in enumerate(groups):
        assert (flat[:dims[1]] == classify._full_rows(i, ctx)).all()


@pytest.mark.parametrize("n,q", [(7, 3), (7, 4), (5, 9), (15, 2)])
def test_component_stack_equals_the_products_per_kappa(n, q):
    """The cyclic shifts X^l * v, l < d_i, give, byte for byte, the stack of
    one ring product per element kappa_l = X^l * f_i of the F_q-basis of
    K_i, for 1-dimensional bases (N, 1, n) and the full basis (1, t, n)."""
    ctx = context(n, q, 2)
    for i in range(ctx.table.num_classes):
        for V in (classify._one_dim_rows(i, ctx)[:, None], classify._full_basis(i, ctx)):
            sym = np.stack([ctx.ring.mul_rows(V.reshape(-1, n), kappa.coeffs)
                            for kappa in ctx.atlas.k_basis(i)], axis=1)
            want = ctx.expand(sym.reshape(len(V), -1, n))
            got = classify.component_stack(i, V, ctx)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n,q", [(7, 3), (7, 4), (5, 9), (15, 2), (9, 4)])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_shifts_of_a_component_are_its_kappa_products(n, q, data):
    """For a random a in R_n over GF(q^t) and every class i, the shifts of
    v = a * f_i in J_i equal its products by the kappa_l, byte for byte."""
    ctx = context(n, q, 2)
    a = np.array(data.draw(st.lists(st.integers(0, ctx.field_qt.order - 1),
                                    min_size=n, max_size=n)), dtype=np.int64)
    for i in range(ctx.table.num_classes):
        v = ctx.ring.mul_rows(a[None], ctx.atlas.j_idempotent(i).coeffs)
        sym = np.stack([ctx.ring.mul_rows(v, kappa.coeffs) for kappa in ctx.atlas.k_basis(i)],
                       axis=1)
        want, got = ctx.expand(sym), classify.component_stack(i, v[None], ctx)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), i


def reference_enumeration(n, q, mode, ctx, complete):
    """The canonical keys of every profile in product order: the options of
    the mu-fixed classes (sorted) and then the pairs of the transposed ones,
    each profile assembled from component_rows and row-reduced on its own."""
    tab = ctx.table
    singles = sorted([0] + ([tab.i_sharp] if tab.i_sharp is not None else []) + list(tab.fixed))
    lists = ([[(c,) for c in classify.subcode_options(i, mode, ctx, complete)] for i in singles]
             + [classify.pair_options(j, mode, ctx) for j in tab.paired])
    rows = {c: classify.component_rows(c, ctx)
            for options in lists for group in options for c in group}
    for profile in itertools.product(*lists):
        blocks = [rows[c] for group in profile for c in group]
        yield codes.AdditiveCode.from_expansion(ctx, np.concatenate(blocks)).key()


@pytest.mark.parametrize("n,q,paper", [(7, 3, True), (7, 4, False), (8, 3, False),
                                       (13, 2, False), (5, 9, False)])
def test_emission_order_is_the_product_of_the_option_lists(n, q, paper):
    ctx = context(n, q, 2, paper=paper)
    for mode, complete in itertools.product(("so", "sd"), (False, True)):
        got = [c.key() for c in classify.enumerate_codes(n, q, mode, ctx, complete=complete)]
        assert got == list(reference_enumeration(n, q, mode, ctx, complete)), (mode, complete)


def test_enumeration_builds_no_choice_objects(monkeypatch):
    """The enumeration works on coefficient and row arrays alone: it builds
    no SubcodeChoice and no group-algebra element of its own."""
    def refuse(*args, **kwargs):
        raise AssertionError("the enumeration built a choice object")

    ctxs = {(n, q): context(n, q, 2) for n, q in [(7, 4), (8, 3), (5, 9), (7, 3)]}
    monkeypatch.setattr(classify, "SubcodeChoice", refuse)
    monkeypatch.setattr(classify, "GroupAlgebraElement", refuse)
    for (n, q), ctx in ctxs.items():
        for mode in ("so", "sd"):
            got = sum(1 for _ in classify.enumerate_codes(n, q, mode, ctx, complete=True))
            assert got == classify.count_codes(n, q, mode, ctx, complete=True)


#: fixed classes at these instances cover both orientations, the identity
#: classes at odd and even q, and the complete identity option
OPTION_INSTANCES = [(7, 3, True), (13, 2, False), (7, 5, False), (5, 9, False),
                    (5, 3, False), (11, 3, False), (13, 3, False)]


@pytest.mark.parametrize("n,q,paper", OPTION_INSTANCES)
def test_options_are_labelled_like_one_dim_subspaces(n, q, paper):
    """Every 1-dimensional option of a fixed class, published or complete,
    is the entry of one_dim_subspaces with the same label and vector."""
    ctx = context(n, q, 2, paper=paper)
    tab = ctx.table
    checked = 0
    for i in range(tab.num_classes):
        if tab.mu[i] != i:
            continue
        listed = {c.label: c.vector for c in classify.one_dim_subspaces(i, ctx)}
        for complete in (False, True):
            for c in classify.subcode_options(i, "so", ctx, complete):
                if c.kind == "dim1":
                    assert listed.get(c.label) == c.vector, c.label
                    checked += 1
    assert checked


def j_spanning_rows(i, ctx):
    """F_q-expanded rows spanning J_i, built without the ring product: the
    F_{q^t}-basis e_{i,j} X^s of J_i, each scaled by every element of
    ctx.fq_basis."""
    atlas, tab = ctx.atlas, ctx.table
    span = [atlas.idempotent(i, j).shift(s) for j in range(tab.s[i]) for s in range(tab.D[i])]
    return ctx.expand(np.array([v.scale(x).coeffs for v in span for x in ctx.fq_basis]))


@pytest.mark.parametrize("n,q,paper", [(7, 3, True), (7, 4, False), (5, 9, False),
                                       (9, 2, False), (8, 3, False), (13, 2, False)])
def test_full_choice_spans_the_component(n, q, paper):
    """The full choice, built from the K_i-basis x * f_i, has the reduced
    rows of the shifted-idempotent spanning set of J_i."""
    ctx = context(n, q, 2, paper=paper)
    fq = ctx.field_q
    for i in range(ctx.table.num_classes):
        full = classify.SubcodeChoice(i, "full", None, "J")
        want = linalg.row_space(fq, j_spanning_rows(i, ctx))
        assert want.shape[0] == ctx.t * ctx.table.d[i]
        flat, dims = classify._class_rows(i, ctx)
        assert flat[:dims[1]].tolist() == want.tolist()
        assert linalg.row_space(fq, classify.component_rows(full, ctx)).tolist() == want.tolist()


@pytest.mark.parametrize("mode", ["foo", "", "s0", None])
def test_mode_is_checked_everywhere(mode):
    with pytest.raises(InvalidParameterError):
        classify.brute_force_oracle(7, 3, mode, CTX73)
    with pytest.raises(InvalidParameterError):
        classify.pair_options(1, mode, CTX73)
    with pytest.raises(InvalidParameterError):
        classify.subcode_options(0, mode, CTX73)
    with pytest.raises(InvalidParameterError):
        next(classify.enumerate_codes(7, 3, mode, CTX73))
    with pytest.raises(InvalidParameterError):
        classify.count_codes(7, 3, mode, CTX73)


def test_mode_is_case_insensitive():
    ctx72 = context(7, 2, 2, paper=True)
    pairs = classify.pair_options(1, "SD", ctx72)
    assert pairs == classify.pair_options(1, "sd", ctx72)
    assert len(pairs) == 2 ** 3 + 3 and len(classify.pair_options(1, "So", ctx72)) == 3 * 2 ** 3 + 6
    assert classify.brute_force_oracle(7, 3, "SD", CTX73)[0] == 56
    assert classify.count_codes(7, 3, "Sd", CTX73) == 28


def reference_oracle(n, q, mode, ctx):
    """The per-combination scan: every combination of one K_i-subspace per
    class is assembled, its full Gram matrix formed and tested, and each
    accepted code row-reduced on its own.  Component rows come from ring
    products, one matrix at a time, and J_i from its shifted idempotents."""
    tab = ctx.atlas.table
    fq = ctx.field_q
    per_class = []
    for i in range(tab.num_classes):
        rows = []
        for c in classify.all_subspace_choices(i, ctx):
            if c.kind == "dim1":
                sym = np.array([(kappa * c.vector).coeffs for kappa in ctx.atlas.k_basis(i)])
                raw = ctx.expand(sym)
            elif c.kind == "full":
                raw = j_spanning_rows(i, ctx)
            else:
                raw = classify.component_rows(c, ctx)
            rows.append(linalg.row_space(fq, raw) if len(raw) else raw)
        per_class.append(rows)
    per_gram = [[ctx.gram_apply(rows) for rows in cls] for cls in per_class]
    count, matched = 0, set()
    for combo in itertools.product(*(range(len(cls)) for cls in per_class)):
        blocks = [per_class[i][c] for i, c in enumerate(combo)]
        dim = sum(b.shape[0] for b in blocks)
        if mode == "sd" and dim != n:
            continue
        rows = np.concatenate(blocks, axis=0)
        grows = np.concatenate([per_gram[i][c] for i, c in enumerate(combo)], axis=0)
        if linalg.matmul(fq, grows, rows.T).any():
            continue
        code = codes.AdditiveCode.from_expansion(ctx, rows)
        assert code.k == dim
        count += 1
        matched.add(code.key())
    return count, matched


@pytest.mark.parametrize("n,q", [(7, 3), (9, 2), (15, 2), (5, 7), (7, 4), (3, 5)])
def test_oracle_matches_reference_scan(n, q):
    """The blockwise oracle accepts exactly the combinations the full
    per-combination Gram test accepts, with the same canonical keys."""
    ctx = context(n, q, 2)
    for mode in ("so", "sd"):
        assert classify.brute_force_oracle(n, q, mode, ctx) == reference_oracle(n, q, mode, ctx)


def reference_nullspace(f, mat):
    """Canonical basis of {v : mat @ v = 0}, one free column at a time, from
    the reference Gauss-Jordan."""
    R, pivots = reference_rref(f, mat)
    free = [c for c in range(mat.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), mat.shape[1]), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = f.neg(int(R[r, fc]))
    return reference_rref(f, basis)[0]


def reference_partner_subspace(rows_j, full_mu, ctx):
    """Basis rows of {v in J_mu : [c, v] = 0 = [v, c] for all c in the span
    of rows_j}, one choice at a time; ``full_mu`` is the reduced J_mu."""
    if rows_j.shape[0] == 0:
        return full_mu
    fq = ctx.field_q
    A1 = linalg.matmul(fq, ctx.gram_apply(rows_j), full_mu.T)
    A2 = linalg.matmul(fq, ctx.gram_apply_t(rows_j), full_mu.T)
    N = reference_nullspace(fq, np.concatenate([A1, A2], axis=0))
    if N.shape[0] == 0:
        return np.zeros((0, ctx.n * ctx.t), dtype=np.int64)
    return linalg.row_space(fq, linalg.matmul(fq, N, full_mu))


def reference_pair_options(j, mode, ctx):
    """The pair list with each 1-dim choice's partner computed on its own."""
    mu_j = ctx.table.mu[j]
    side_j = classify.all_subspace_choices(j, ctx)
    side_mu = classify.all_subspace_choices(mu_j, ctx)
    rows = dict(zip(side_j + side_mu, reduced_rows(side_j + side_mu, ctx)))
    by_key = {(rows[c].shape, rows[c].tobytes()): c for c in side_mu}
    zero_mu, full_mu = side_mu[0], side_mu[1]
    pairs = []
    for cj in side_j:
        if cj.kind == "zero":
            targets = side_mu if mode == "so" else [full_mu]
        elif cj.kind == "full":
            targets = [zero_mu]
        else:
            partner = reference_partner_subspace(rows[cj], rows[full_mu], ctx)
            assert partner.shape[0] == ctx.table.d[j]
            match = by_key[(partner.shape, partner.tobytes())]
            targets = [zero_mu, match] if mode == "so" else [match]
        pairs.extend((cj, t) for t in targets)
    return pairs


@pytest.mark.parametrize("n,q", [(7, 4), (7, 2), (8, 3), (15, 2), (13, 3)])
def test_batched_partners_match_the_reference(n, q):
    """The partners of all 1-dim choices of a side, found in one batch, give
    the pair list of the one-choice-at-a-time reference, in its order."""
    ctx = context(n, q, 2)
    assert len(ctx.table.paired) == (2 if (n, q) == (13, 3) else 1)
    for j in ctx.table.paired:
        for mode in ("so", "sd"):
            assert classify.pair_options(j, mode, ctx) == reference_pair_options(j, mode, ctx)
