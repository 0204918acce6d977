"""The batch path of run(): core.needs against the scalar need routines,
WeightSequence.gammas against gamma, the batch validation, and run() in
random chunks mixed with step() against one step() per score, state and all.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcfdr.boosting import TruncationSpec, TruncationVariant, truncate
from arcfdr.core import (
    ConfigError,
    InputError,
    Score,
    ScoreKind,
    WeightSequence,
    minimal_k_evalue,
    minimal_k_pvalue,
    needs,
)
from arcfdr.e_procedures import DeadlineSchedule, ELond, EToad, OnlineEBH
from arcfdr.p_procedures import (
    Lond,
    Lord,
    OnlineBH,
    OnlineBR,
    OnlineStoreyBH,
    RLond,
    Saffron,
    ShapeFunction,
    Toad,
)

E, P = ScoreKind.E_VALUE, ScoreKind.P_VALUE
SCALAR = {E: minimal_k_evalue, P: minimal_k_pvalue}
ALPHAS = (0.05, 0.2, 1.0)
# zero, subnormal, underflowing alpha * gamma, and ordinary weights
GAMMAS = (0.0, 5e-324, 1e-310, 1e-19, 0.001, 0.01, 1.0 / 3.0, 1.0)


def boundary_scores(kind, alpha, gamma):
    """Grid values k alpha gamma / 1/(k alpha gamma) for small and huge k,
    their float neighbours, the cap's edge and the extreme scores."""
    ag = alpha * gamma
    out = [0.0, 5e-324, 1e-320, 1e-300, 1.0]
    out += [math.inf, 1e300] if kind is E else [0.5, 1e-12]
    for k in (1, 2, 3, 7, 1000, 10 ** 15 - 1, 10 ** 15, 10 ** 15 + 1, 10 ** 16):
        with np.errstate(divide="ignore", over="ignore"):
            x = k * ag if kind is P else 1.0 / (k * ag) if k * ag > 0 else math.inf
        out += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    if kind is P:
        out = [min(x, 1.0) for x in out]
    return out


@pytest.mark.parametrize("kind", [E, P])
def test_needs_equal_the_scalar_routines_at_boundaries(kind):
    for alpha in ALPHAS:
        for gamma in GAMMAS:
            scores = boundary_scores(kind, alpha, gamma)
            got = needs(scores, kind, alpha, gamma)
            want = [SCALAR[kind](x, alpha, gamma) for x in scores]
            assert got.tolist() == want, (alpha, gamma)


@pytest.mark.parametrize("kind", [E, P])
def test_needs_take_one_weight_per_score(kind):
    scores = [x for g in GAMMAS for x in boundary_scores(kind, 0.05, g)]
    gammas = [g for g in GAMMAS for _ in boundary_scores(kind, 0.05, g)]
    got = needs(np.array(scores), kind, 0.05, np.array(gammas))
    assert got.tolist() == [SCALAR[kind](x, 0.05, g) for x, g in zip(scores, gammas)]


@given(st.sampled_from([E, P]), st.floats(0.01, 1.0), st.sampled_from(GAMMAS[1:]),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
       st.lists(st.floats(1e-320, 1e300), max_size=20))
@settings(max_examples=300, deadline=None)
def test_needs_equal_the_scalar_routines(kind, alpha, gamma, ps, es):
    scores = ps if kind is P else ps + es
    assert needs(scores, kind, alpha, gamma).tolist() == [
        SCALAR[kind](x, alpha, gamma) for x in scores]


def test_needs_of_invalid_scores_end():
    # validation keeps these from run(); needs() itself must not loop on them
    bad = [-math.inf, -1.0, -0.0, math.nan]
    assert needs(bad, E, 0.05, 0.1).tolist() == [math.inf] * 4
    assert needs([math.nan, -math.inf], P, 0.05, 0.1).tolist() == [math.inf] * 2
    assert ShapeFunction.by(4).needs([math.nan], 0.05, 0.1).tolist() == [math.inf]
    # and the scalar routines give NaN the same no-need as the vector ones
    assert minimal_k_evalue(math.nan, 0.05, 0.1) == math.inf
    assert minimal_k_pvalue(math.nan, 0.05, 0.1) == math.inf
    for shape in (ShapeFunction.by(4), ShapeFunction.custom({1: 0.5, 3: 0.5})):
        assert shape.minimal_k(math.nan, 0.05, 0.1) == math.inf
        assert shape.needs([math.nan], 0.05, 0.1).tolist() == [math.inf]


@given(st.sampled_from([
           WeightSequence.geometric(0.99), WeightSequence.geometric(0.5),
           WeightSequence.geometric(1e-30), WeightSequence.uniform_finite(7),
           WeightSequence.explicit([0.1, 0.0, 0.3, 1e-320, 0.2])]),
       st.integers(1, 40), st.integers(0, 40))
def test_gammas_equal_gamma_bit_for_bit(w, t, n):
    assert w.gammas(t, n).tolist() == [w.gamma(i) for i in range(t, t + n)]


def test_gammas_need_a_positive_index():
    with pytest.raises(InputError):
        WeightSequence.geometric(0.5).gammas(0, 3)


@pytest.mark.parametrize("shape", [ShapeFunction.identity(), ShapeFunction.by(1),
                                   ShapeFunction.by(4), ShapeFunction.by(1000)])
def test_shape_needs_equal_minimal_k(shape):
    for alpha in ALPHAS:
        for gamma in GAMMAS:
            ps = boundary_scores(P, alpha, gamma)
            ps += [min(1.0, alpha * gamma * shape.beta(k)) for k in (1, 2, 3, 5)]
            got = shape.needs(ps, alpha, gamma)
            assert got.tolist() == [shape.minimal_k(p, alpha, gamma) for p in ps]


@pytest.mark.parametrize("shape", [ShapeFunction.custom({1.0: 0.5}),
                                   ShapeFunction.custom({1.0: 0.3, 3.0: 0.5, 7.0: 0.2}),
                                   ShapeFunction.custom({2.5: 0.25, 1e6: 0.75})])
def test_custom_shape_needs_equal_minimal_k(shape):
    for alpha in ALPHAS:
        for gamma in GAMMAS:
            ps = boundary_scores(P, alpha, gamma)
            ps += [min(1.0, alpha * gamma * shape.beta(k)) for k in (1, 2, 3, 5, 7, 1e6)]
            got = shape.needs(ps, alpha, gamma)
            assert got.dtype == float and got.shape == (len(ps),)
            want = [shape.minimal_k(p, alpha, gamma) for p in ps]
            assert [x.hex() for x in got.tolist()] == [float(k).hex() for k in want]
    # one weight per score, and a 2-D block of scores keeps its shape
    ps = np.array([[0.001, 0.01], [0.02, 0.5]])
    gammas = np.array([0.1, 0.3])
    want = [[shape.minimal_k(p, 0.05, g) for p, g in zip(row, gammas)] for row in ps]
    assert shape.needs(ps, 0.05, gammas).tolist() == want


class TestTruncateOnNeeds:
    ALPHA, GAMMA = 0.05, 0.01

    def spec(self, variant=TruncationVariant.FULL, **kw):
        return TruncationSpec(variant, self.ALPHA, self.GAMMA, **kw)

    def test_zero_inf_and_grid_boundaries(self):
        ag = self.ALPHA * self.GAMMA
        full = self.spec()
        assert truncate(full, 0.0) == 0.0
        assert truncate(full, math.inf) == 1.0 / ag
        for k in (1, 2, 3, 1000):
            g = 1.0 / (k * ag)
            assert truncate(full, g) == g
            assert truncate(full, math.nextafter(g, math.inf)) == g
            assert truncate(full, math.nextafter(g, 0.0)) == 1.0 / ((k + 1) * ag)

    def test_need_above_the_cap_keeps_its_grid_value(self):
        # 1/(alpha gamma x) is about 5.4e15 here, so needs() reports none; the
        # grid value keeps the corrected candidate k = 5393123026118765, and
        # the bare ceil, one less, would give 3.708426435506938e-13
        x = 3.7084264355069377e-13
        assert needs([x], E, self.ALPHA, self.GAMMA)[0] == math.inf
        assert truncate(self.spec(), x) == 3.7084264355069377e-13
        assert truncate(self.spec(), np.array([x, 1e-12]))[1] == 1e-12
        minus = self.spec(TruncationVariant.MINUS, s=50)
        plus = self.spec(TruncationVariant.PLUS, s=50)
        assert truncate(minus, x) == 0.0 and truncate(plus, x) == x


# ---------------------------------------------------------------- run() batches

SHAPES = (ShapeFunction.identity(), ShapeFunction.by(4),
          ShapeFunction.custom({1.0: 0.3, 3.0: 0.5, 7.0: 0.2}))


def roster(w, alpha, deadlines):
    """Every procedure, fresh, as (name, kind, procedure)."""
    dl = DeadlineSchedule.explicit(deadlines)
    out = [("oebh", E, OnlineEBH(w, alpha)), ("elond", E, ELond(w, alpha)),
           ("etoad", E, EToad(w, alpha, dl)), ("obh", P, OnlineBH(w, alpha)),
           ("lond", P, Lond(w, alpha)), ("osbh", P, OnlineStoreyBH(w, alpha, 0.5)),
           ("lord", P, Lord(w, alpha)), ("saffron", P, Saffron(w, alpha, 0.5)),
           ("toad-per-index", P, Toad(w, alpha, dl, lambda t: SHAPES[t % 3]))]
    for shape in SHAPES:
        out += [(f"obr-{shape.variant}", P, OnlineBR(w, alpha, shape)),
                (f"rlond-{shape.variant}", P, RLond(w, alpha, shape)),
                (f"toad-{shape.variant}", P, Toad(w, alpha, dl, shape))]
    return out


def state(proc) -> dict:
    """Everything a procedure keeps, heaps sorted, without its settings."""
    out = {k: v for k, v in vars(proc).items()
           if k not in ("weights", "deadlines", "beta", "_beta_of", "_shape")}
    for heap in ("_waiting", "_expiry"):
        if heap in out:
            out[heap] = sorted(out[heap])
    out["kstar_path"] = proc.kstar_path
    out["set"] = proc.rejection_set()
    return out


@st.composite
def chunked_streams(draw):
    """(alpha, w, deadlines, e, p, chunks): n <= 30 scores mostly on the grid,
    so that needs tie, and a split of the stream into chunks, each fed by
    run() (from an array, a list, Scores or a generator) or by step()."""
    alpha = draw(st.sampled_from([0.05, 0.2, 0.5]))
    n = draw(st.integers(1, 30))
    family = draw(st.sampled_from(["explicit", "uniform", "geometric"]))
    if family == "explicit":
        w = WeightSequence.explicit(
            [draw(st.sampled_from([0.0, 1.0 / n, 0.5 / n])) for _ in range(n)])
    elif family == "uniform":
        w = WeightSequence.uniform_finite(draw(st.integers(1, n + 3)))
    else:
        w = WeightSequence.geometric(draw(st.sampled_from([0.5, 0.9, 1e-30, 1e-19])))
    deadlines = [t + draw(st.sampled_from([0, 1, 3, math.inf])) for t in range(1, n + 1)]
    e, p = [], []
    for t in range(1, n + 1):
        ag = alpha * w.gamma(t)
        k = draw(st.integers(1, 6))
        tie_e = 1.0 / (k * ag) if k * ag > 0 else 1.0
        e.append(draw(st.one_of(st.sampled_from([tie_e, tie_e, math.inf, 0.0, 1e-9]),
                                st.floats(0.0, 1e4))))
        p.append(draw(st.one_of(st.sampled_from([min(1.0, k * ag)] * 2 + [0.0, 1.0]),
                                st.floats(0.0, 1.0))))
    cuts = [0] + sorted(draw(st.lists(st.integers(0, n), max_size=6))) + [n]
    chunks = [(b - a, draw(st.sampled_from(["array", "list", "scores", "iter", "step"])))
              for a, b in zip(cuts, cuts[1:])]
    return alpha, w, deadlines, np.array(e), np.array(p), chunks


def feed(proc, kind, xs, how):
    if how == "step":
        for x in xs.tolist():
            proc.step(x)
    elif how == "array":
        proc.run(xs)
    elif how == "list":
        proc.run(xs.tolist())
    elif how == "scores":
        proc.run([Score(x, kind) for x in xs.tolist()])
    else:
        proc.run(iter(xs.tolist()))


@given(chunked_streams())
@settings(max_examples=250, deadline=None)
def test_chunked_run_equals_one_step_per_score(stream):
    alpha, w, deadlines, e, p, chunks = stream
    stepped = roster(w, alpha, deadlines)
    chunked = roster(w, alpha, deadlines)
    for (name, kind, one), (_, _, batch) in zip(stepped, chunked):
        xs = e if kind is E else p
        start = 0
        for size, how in chunks:
            part = xs[start:start + size]
            feed(batch, kind, part, how)
            for x in part.tolist():
                one.step(x)
            start += size
            assert state(batch) == state(one), (name, start)
            if size:
                assert batch.newly_rejected == one.newly_rejected, (name, start)


def needs_at(w, alpha, k, n):
    """e-values whose need is k at every index 1..n under w."""
    return [1.0 / (k * (alpha * w.gamma(t))) for t in range(1, n + 1)]


@pytest.mark.parametrize("before", [0, 3])
def test_a_call_whose_needs_all_reach_its_horizon(before):
    # N0 = before, and every need of the call is N0 + len(call): nothing
    # qualifies until the last arrival, which rejects the whole call
    n, alpha = 12, 0.1
    w = WeightSequence.uniform_finite(n + before)
    e = needs_at(w, alpha, 1, before) + needs_at(w, alpha, n + before, n)
    stepped, batch = OnlineEBH(w, alpha), OnlineEBH(w, alpha)
    for x in e:
        stepped.step(x)
    batch.run(e[:before])
    batch.run(e[before:])
    assert state(batch) == state(stepped)
    assert batch.k_star == n + before
    assert batch.newly_rejected == tuple(range(before + 1, before + n + 1))


def test_a_far_arrival_drains_a_need_at_the_new_count():
    # a need of 2 waits after one step; the far arrival of the next call
    # raises N to 2 and must drain it, as step() does (a far arrival never
    # rejects: it adds no need <= N + 1 itself, so only the state tells)
    w, alpha = WeightSequence.uniform_finite(10), 0.1
    first = needs_at(w, alpha, 2, 1)
    far = [1e-9]
    stepped, batch = OnlineEBH(w, alpha), OnlineEBH(w, alpha)
    for x in first + far:
        stepped.step(x)
    batch.run(first)
    assert batch._waiting == [(2, 1, math.inf)]
    batch.run(far)
    assert batch._pending_needs == [2] and batch._waiting == []
    assert state(batch) == state(stepped)


class TestBatchValidation:
    @pytest.mark.parametrize("make, bad, message", [
        (lambda w: OnlineBH(w, 0.1), 1.5, "outside [0, 1]"),
        (lambda w: OnlineBH(w, 0.1), math.nan, "NaN"),
        (lambda w: Lond(w, 0.1), -0.1, "outside [0, 1]"),
        (lambda w: OnlineStoreyBH(w, 0.1), 2.0, "outside [0, 1]"),
        (lambda w: Saffron(w, 0.1), math.inf, "outside [0, 1]"),
        (lambda w: OnlineEBH(w, 0.1), -1.0, "negative"),
        (lambda w: ELond(w, 0.1), -math.inf, "negative"),
    ])
    def test_bad_score_names_its_place_and_changes_nothing(self, make, bad, message):
        w = WeightSequence.uniform_finite(10)
        proc = make(w)
        proc.run([0.01, 0.5])
        before = state(proc)
        for scores in ([0.01, 0.02, bad, 0.3], np.array([0.01, 0.02, bad, 0.3]),
                       iter([0.01, 0.02, bad])):
            with pytest.raises(InputError, match=r"scores\[2\] \(t=5\): .*" + message.split()[0]):
                proc.run(scores)
            assert state(proc) == before

    def test_score_of_the_wrong_kind(self):
        proc = OnlineEBH(WeightSequence.uniform_finite(5), 0.1)
        scores = [Score(2.0, E), Score(0.5, P)]
        with pytest.raises(InputError, match=r"scores\[1\] \(t=2\): p-value fed"):
            proc.run(scores)
        assert proc.t == 0 and proc.kstar_path == []

    @pytest.mark.parametrize("scores, message", [
        (["0.5", "x"], r"^scores\[1\] \(t=2\): score 'x' is not a number$"),
        ([0.5, object()], r"^scores\[1\] \(t=2\): score <object .*> is not a number$"),
        (np.ones((2, 2)), r"^scores of shape \(2, 2\): expected one dimension$"),
        ([[0.5], [0.2]], r"^scores of shape \(2, 1\): expected one dimension$"),
    ])
    def test_scores_that_are_not_numbers(self, scores, message):
        proc = OnlineBH(WeightSequence.uniform_finite(5), 0.1)
        with pytest.raises(InputError, match=message):
            proc.run(scores)
        assert proc.t == 0 and proc.kstar_path == []

    def test_a_shape_that_raises_changes_nothing(self):
        # the keys of a whole call are computed before the first is placed
        w = WeightSequence.uniform_finite(10)

        def shape_of(t):
            if t == 3:
                raise RuntimeError("no shape for t=3")
            return ShapeFunction.identity()

        proc = Toad(w, 0.5, DeadlineSchedule.unbounded(), shape_of)
        with pytest.raises(RuntimeError, match="t=3"):
            proc.run([0.0, 0.0, 0.0, 0.0])
        assert proc.t == 0 and proc.rejection_times == {}

    @pytest.mark.parametrize("make, score", [
        (lambda w, dl: EToad(w, 0.5, dl), 1e9),
        (lambda w, dl: Toad(w, 0.5, dl, ShapeFunction.identity()), 1e-9),
    ])
    def test_a_bad_deadline_changes_nothing(self, make, score):
        # the deadlines of a whole call are read before the first key is placed
        proc = make(WeightSequence.uniform_finite(4), DeadlineSchedule.explicit([1, 2, 1, 4]))
        with pytest.raises(ConfigError, match=r"d_3=1 is not at or after arrival time 3"):
            proc.run([score] * 4)
        assert proc.t == 0 and proc.rejection_times == {}

    def test_empty_call_keeps_the_last_rejections(self):
        w = WeightSequence.uniform_finite(2)
        proc = OnlineBH(w, 0.5)
        proc.step(0.0)
        proc.run([])
        assert proc.newly_rejected == (1,) and proc.t == 1


@pytest.mark.parametrize("kind", [E, P])
def test_needs_of_stacked_streams_equal_row_by_row(kind):
    # a 2-D array of streams against one weight per column, as the harness
    # passes its trials: each row equals its own call, and BY's needs too
    rng = np.random.default_rng(3)
    gammas = np.array(GAMMAS * 3)
    rows = [rng.permutation(boundary_scores(kind, 0.05, 0.01))[:len(gammas)]
            for _ in range(4)]
    stacked = np.array(rows)
    got = needs(stacked, kind, 0.05, gammas)
    assert got.shape == stacked.shape
    for row, want in zip(got, rows):
        np.testing.assert_array_equal(row, needs(want, kind, 0.05, gammas))
    if kind is P:
        by = ShapeFunction.by(50)
        got = by.needs(stacked, 0.05, gammas)
        for row, want in zip(got, rows):
            np.testing.assert_array_equal(row, by.needs(want, 0.05, gammas))


class TestStoreyBatchPath:
    """OnlineStoreyBH's run() computes its keys and its pi0_hat path as
    vectors; each step must equal step()'s, bit for bit."""

    WEIGHTS = {
        "uniform": WeightSequence.uniform_finite(30),
        "geometric": WeightSequence.geometric(0.9),
        # zeros, weights whose alpha * gamma underflows (t = 2, 8) and a
        # subnormal alpha * gamma, over which P overflows (t = 5)
        "explicit": WeightSequence.explicit(
            [0.0, 5e-324, 0.05, 0.0, 1e-310, 0.02, 0.1, 5e-324] + [0.01] * 32),
    }

    @staticmethod
    def pvalues(n, seed):
        rng = np.random.default_rng(seed)
        p = np.where(rng.random(n) < 0.4, rng.random(n) * 1e-3, rng.random(n))
        p[::9] = 0.0
        p[1] = 0.0  # at an underflowing alpha * gamma: key 0
        p[4::11] = 0.5  # at lambda
        p[7] = 0.25
        return p

    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    def test_run_equals_one_step_per_score_at_every_t(self, name):
        w, p = self.WEIGHTS[name], self.pvalues(40, 1)
        stepped = OnlineStoreyBH(w, 0.2, 0.5)
        for t in range(1, len(p) + 1):
            stepped.step(p[t - 1])
            batch = OnlineStoreyBH(w, 0.2, 0.5).run(p[:t])
            assert batch.pi0_hat == stepped.pi0_hat, (name, t)
            assert batch.rejection_times == stepped.rejection_times, (name, t)
            assert state(batch) == state(stepped), (name, t)

    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    def test_resumed_run(self, name):
        w, p = self.WEIGHTS[name], self.pvalues(40, 2)
        stepped = OnlineStoreyBH(w, 0.2, 0.5)
        for x in p.tolist():
            stepped.step(x)
        for cut in (0, 1, 7, 23, 40):
            resumed = OnlineStoreyBH(w, 0.2, 0.5).run(p[:cut]).run(p[cut:])
            assert state(resumed) == state(stepped), (name, cut)

    @pytest.mark.parametrize("name", sorted(WEIGHTS))
    def test_keys_and_path_equal_need(self, name):
        # zero weights and an underflowing alpha * gamma give _need's keys,
        # and no RuntimeWarning
        w, p = self.WEIGHTS[name], self.pvalues(40, 3)
        one = OnlineStoreyBH(w, 0.05, 0.5)
        want = []
        for t, x in enumerate(p.tolist(), 1):
            want.append((one._need(x, t), one.pi0_hat))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            keys, pi0 = OnlineStoreyBH(w, 0.05, 0.5)._path(p, 1)
        assert list(zip(keys.tolist(), pi0.tolist())) == want
