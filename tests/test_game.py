"""Sequential-game solvers: worked example, oracle agreement, determinism."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SequentialGame, reference_tensor_equilibrium, solve
from roundabout_sim.game import GameParams, order_players, tensor_equilibrium


def exhaustive_oracle(costs, order):
    """Independent subgame-perfect solution via explicit assignment search."""
    K = len(costs)

    def best(assign):
        k = len(assign)
        if k == K:
            prof = tuple(assign[a] for a in range(K))
            return prof, [float(costs[p][prof]) for p in range(K)]
        ax = order[k]
        options = [best({**assign, ax: s}) for s in range(costs[0].shape[ax])]
        pick = min(range(len(options)), key=lambda i: (options[i][1][ax], i))
        return options[pick]

    return best({})


class TestStrategies:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            GameParams(horizon=1)
        with pytest.raises(ValueError):
            GameParams(strategy_accels=(0.0,))


class TestOrderPlayers:
    def test_descending_aggressiveness(self):
        assert order_players({1: 0.3, 2: 0.7}) == [2, 1]

    def test_tie_breaks_to_lower_id(self):
        assert order_players({2: 0.5, 1: 0.5}) == [1, 2]
        assert order_players({3: 0.5, 1: 0.7, 2: 0.5}) == [1, 2, 3]


class TestWorkedTwoPlayerGame:
    # cost table: rows = first mover's strategy, cols = second mover's
    K0 = np.array([[4.0, 1.0], [3.0, 2.0]])
    K1 = np.array([[4.0, 2.0], [1.0, 3.0]])

    def test_dfs_solver(self):
        game = SequentialGame(players=[0, 1], n_strategies=[2, 2],
                              payoff=lambda p: (self.K0[p], self.K1[p]))
        profile, payoffs = solve(game)
        assert profile == (0, 1)
        assert tuple(payoffs) == (1.0, 2.0)
        assert game.evaluations == 4

    def test_tensor_solver(self):
        profile = tensor_equilibrium([self.K0, self.K1], order=[0, 1])
        assert profile == (0, 1)
        assert (self.K0[profile], self.K1[profile]) == (1.0, 2.0)

    def test_first_mover_anticipates_response(self):
        # myopic row minimum would pick row 1 (cost 2 < 3); induction picks row 0
        profile = tensor_equilibrium([self.K0, self.K1], order=[0, 1])
        assert profile[0] == 0


class TestDeterminism:
    def test_constant_payoffs_pick_first_strategy(self):
        c = [np.zeros((3, 3)) for _ in range(2)]
        profile = tensor_equilibrium(c, order=[0, 1])
        assert profile == (0, 0)
        game = SequentialGame(players=[0, 1], n_strategies=[3, 3],
                              payoff=lambda p: (0.0, 0.0))
        assert solve(game)[0] == (0, 0)

    def test_order_is_validated(self):
        c = [np.zeros((2, 2))] * 2
        with pytest.raises(ValueError):
            tensor_equilibrium(c, order=[0, 0])


class TestReferenceBitIdentity:
    """Stacked induction equals per-tensor gathers exactly, ties included."""

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_every_order_with_ties(self, K):
        rng = np.random.default_rng(K)
        for trial in range(40):
            sizes = [5] * K if trial % 2 else rng.integers(1, 5, size=K).tolist()
            costs = [rng.integers(0, 3, size=sizes).astype(float) for _ in range(K)]
            for order in itertools.permutations(range(K)):
                prof = tensor_equilibrium(costs, list(order))
                want_prof, want_pay = reference_tensor_equilibrium(costs, list(order))
                assert prof == want_prof
                assert type(prof[0]) is int
                assert np.array_equal([c[prof] for c in costs], want_pay)

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_batch_equals_slices(self, K):
        rng = np.random.default_rng(10 + K)
        for B in (1, 9):
            costs = [rng.integers(0, 3, size=(B,) + (4,) * K).astype(float)
                     for _ in range(K)]
            order = rng.permutation(K).tolist()
            prof = tensor_equilibrium(costs, order)
            assert prof.shape == (B, K)
            # the stacked (K, B, S, ..., S) form payoff_tensors returns solves the same
            assert np.array_equal(tensor_equilibrium(np.stack(costs), order), prof)
            for b in range(B):
                want_prof, want_pay = reference_tensor_equilibrium([c[b] for c in costs], order)
                assert tuple(prof[b].tolist()) == want_prof
                assert np.array_equal([c[b][tuple(prof[b])] for c in costs], want_pay)

    def test_broadcast_views_accepted(self):
        # the solver only reads its tensors, so read-only broadcast views
        # (zero strides, no own memory) are valid input
        rng = np.random.default_rng(3)
        base = [rng.integers(0, 3, size=(4, 1)).astype(float),
                rng.integers(0, 3, size=(1, 4)).astype(float)]
        costs = [np.broadcast_to(c, (4, 4)) for c in base]
        for order in ([0, 1], [1, 0]):
            assert tensor_equilibrium(costs, order) == reference_tensor_equilibrium(costs, order)[0]


class TestSolverAgreement:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tensor_dfs_and_oracle_agree(self, data):
        K = data.draw(st.integers(1, 3))
        S = data.draw(st.integers(2, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        costs = [rng.integers(0, 9, size=(S,) * K).astype(float) for _ in range(K)]
        perm = data.draw(st.permutations(list(range(K))))
        t_prof = tensor_equilibrium(costs, order=list(perm))
        t_pay = [float(c[t_prof]) for c in costs]
        o_prof, o_pay = exhaustive_oracle(costs, list(perm))
        assert t_prof == o_prof
        assert tuple(t_pay) == tuple(o_pay)
        # DFS solver sees profiles in decision order; adapt indexing
        def payoff(prefix):
            by_axis = [0] * K
            for k, ax in enumerate(perm):
                by_axis[ax] = prefix[k]
            return [costs[perm[k]][tuple(by_axis)] for k in range(K)]
        game = SequentialGame(players=list(perm), n_strategies=[S] * K, payoff=payoff)
        d_prof, d_pay = solve(game)
        assert game.evaluations == S ** K
        assert tuple(d_prof) == tuple(t_prof[ax] for ax in perm)
        assert tuple(d_pay) == tuple(t_pay[ax] for ax in perm)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_no_profitable_deviation_given_rational_followers(self, data):
        K = data.draw(st.integers(2, 3))
        S = 3
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        costs = [rng.random((S,) * K) for _ in range(K)]
        order = list(range(K))
        prof = tensor_equilibrium(costs, order)
        pay = [c[prof] for c in costs]

        def continuation(fixed):
            # later players best-respond in order given the fixed choices
            remaining = [ax for ax in order if ax not in fixed]

            def best(assign):
                if len(assign) == len(remaining):
                    full = [0] * K
                    for a, s in {**fixed, **assign}.items():
                        full[a] = s
                    t = tuple(full)
                    return t, [float(costs[p][t]) for p in range(K)]
                ax = remaining[len(assign)]
                opts = [best({**assign, ax: s}) for s in range(S)]
                return min(opts, key=lambda o: o[1][ax])

            return best({})

        for k, ax in enumerate(order):
            for alt in range(S):
                if alt == prof[ax]:
                    continue
                fixed = {order[i]: prof[order[i]] for i in range(k)}
                fixed[ax] = alt
                _, dev_pay = continuation(fixed)
                assert dev_pay[ax] >= pay[ax] - 1e-12
